package main

import (
	"math"
	"slices"
)

// metricDef describes one reported metric. The lists below are the
// contract BENCHMARK.json repeats; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// group is the layer group whose probe measures the metric.
	group string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what every workload reports from the scored (untraced)
// run. Bound is the share of the parent's median by which the metric
// may get worse.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "units_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "allocs_per_kunit", Unit: "count", Better: lower, Bound: 0.10},
	{Name: "alloc_kb_per_kunit", Unit: "KB", Better: lower, Bound: 0.10},
	{Name: "model_cycles_per_unit", Unit: "cycles", Better: lower, Bound: 0.15},
	{Name: "model_tail_cycles", Unit: "cycles", Better: lower, Bound: 0.25},
}

// perLayer is what the traced run reports. The share.* and trace.*
// metrics describe the traced workload; every other metric comes from
// the probe of its layer group, which runs on the traced workload's
// inputs when the workload stresses that group and on mini inputs
// otherwise.
var perLayer = []metricDef{
	{Name: "ir.parse_ns_per_instr", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "ir.parse_allocs_per_instr", Unit: "count", Better: lower, group: "compiler"},
	{Name: "ir.verify_ns_per_instr", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "ir.clone_ns_per_instr", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "ir.print_ns_per_instr", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "cfg.canonicalize_ns_per_instr", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "cfg.dom_loops_ns_per_block", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "opt.module_ns_per_instr", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "opt.removed_instr_frac", Unit: "frac", Better: higher, group: "compiler"},
	{Name: "analysis.analyze_ns_per_instr", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "analysis.allocs_per_instr", Unit: "count", Better: lower, group: "compiler"},
	{Name: "instrument.self_ns_per_instr", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "instrument.static_probes_per_kinstr.ci", Unit: "count", Better: lower, group: "compiler"},
	{Name: "instrument.static_probes_per_kinstr.naive", Unit: "count", Better: lower, group: "compiler"},
	{Name: "core.compile_ns_per_instr", Unit: "ns", Better: lower, group: "compiler"},
	{Name: "core.compile_self_frac", Unit: "frac", Better: lower, group: "compiler"},
	{Name: "core.parse_share", Unit: "frac", Better: lower, group: "compiler"},

	{Name: "vm.interp_ns_per_instr", Unit: "ns", Better: lower, group: "vm"},
	{Name: "vm.compiled_ns_per_instr", Unit: "ns", Better: lower, group: "vm"},
	{Name: "vm.tier_speedup", Unit: "x", Better: higher, group: "vm"},
	{Name: "vm.compiled_predecode_us_per_run", Unit: "us", Better: lower, group: "vm"},
	{Name: "vm.allocs_per_run.interp", Unit: "count", Better: lower, group: "vm"},
	{Name: "vm.allocs_per_run.compiled", Unit: "count", Better: lower, group: "vm"},
	{Name: "vm.dyn_probes_per_kinstr", Unit: "count", Better: lower, group: "vm"},
	{Name: "vm.overhead_pct", Unit: "%", Better: lower, group: "vm"},
	{Name: "vm.interval_err_p99_pct", Unit: "%", Better: lower, group: "vm"},
	{Name: "ciruntime.probe_untaken_ns", Unit: "ns", Better: lower, group: "vm"},
	{Name: "ciruntime.fire_ns", Unit: "ns", Better: lower, group: "vm"},
	{Name: "ciruntime.fires_per_minstr", Unit: "count", Better: lower, group: "vm"},
	{Name: "ciruntime.policy_observe_ns.aimd", Unit: "ns", Better: lower, group: "vm"},
	{Name: "ciruntime.policy_observe_ns.feedback", Unit: "ns", Better: lower, group: "vm"},
	{Name: "ciruntime.est_share_of_vm", Unit: "frac", Better: lower, group: "vm"},
	{Name: "obs.enabled_overhead_pct", Unit: "%", Better: lower, group: "vm"},

	{Name: "fleet.scale_ns_per_attempt", Unit: "ns", Better: lower, group: "fleet"},
	{Name: "fleet.zone_ns_per_attempt", Unit: "ns", Better: lower, group: "fleet"},
	{Name: "fleet.allocs_per_attempt", Unit: "count", Better: lower, group: "fleet"},
	{Name: "fleet.epochs", Unit: "count", Better: lower, group: "fleet"},
	{Name: "fleet.pool2_speedup", Unit: "x", Better: higher, group: "fleet"},
	{Name: "fleet.goodput_frac", Unit: "frac", Better: higher, group: "fleet"},
	{Name: "fleet.amplification", Unit: "x", Better: lower, group: "fleet"},
	{Name: "fleet.migrated", Unit: "count", Better: higher, group: "fleet"},
	{Name: "overload.admit_ns", Unit: "ns", Better: lower, group: "fleet"},
	{Name: "overload.poll_ns", Unit: "ns", Better: lower, group: "fleet"},
	{Name: "overload.est_share_of_fleet", Unit: "frac", Better: lower, group: "fleet"},
	{Name: "faults.draw_ns", Unit: "ns", Better: lower, group: "fleet"},
	{Name: "stats.loghist_observe_ns", Unit: "ns", Better: lower, group: "fleet"},
	{Name: "stats.summarize_ns_per_sample", Unit: "ns", Better: lower, group: "fleet"},

	// Layers with no end-to-end workload yet.
	{Name: "sim.event_ns", Unit: "ns", Better: lower, group: "misc"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: lower, group: "misc"},
	{Name: "mtcp.ns_per_req", Unit: "ns", Better: lower, group: "misc"},
	{Name: "mtcp.gbps", Unit: "Gbit/s", Better: higher, group: "misc"},
	{Name: "shenango.ns_per_req", Unit: "ns", Better: lower, group: "misc"},
	{Name: "shenango.p999_us", Unit: "us", Better: lower, group: "misc"},
	{Name: "ffwd.run_us", Unit: "us", Better: lower, group: "misc"},
	{Name: "engine.cache_hit_ns", Unit: "ns", Better: lower, group: "misc"},
	{Name: "engine.map_ns_per_cell", Unit: "ns", Better: lower, group: "misc"},
	{Name: "sanitize.checked_compile_ratio", Unit: "x", Better: lower, group: "misc"},
	{Name: "sanitize.difftiers_ns_per_instr", Unit: "ns", Better: lower, group: "misc"},
	{Name: "interleave.schedules_per_s", Unit: "1/s", Better: higher, group: "misc"},
	{Name: "experiments.table7_s", Unit: "s", Better: lower, group: "misc"},
	{Name: "experiments.fig10_s", Unit: "s", Better: lower, group: "misc"},
	{Name: "cmd.ciexp_quick_all_s", Unit: "s", Better: lower, group: "misc"},
	{Name: "cmd.cirun_start_ms", Unit: "ms", Better: lower, group: "misc"},

	// Of the traced workload itself.
	{Name: "share.compiler", Unit: "frac", Better: higher, group: "workload"},
	{Name: "share.vm", Unit: "frac", Better: higher, group: "workload"},
	{Name: "share.fleet", Unit: "frac", Better: higher, group: "workload"},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower, group: "workload"},
	{Name: "trace.spans", Unit: "count", Better: lower, group: "workload"},
	{Name: "host.factor", Unit: "x", Better: lower, group: "workload"},
}

// median returns the median of xs (the mean of the middle two for an
// even count). It panics on an empty slice.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quietQuantile is the quantile of the reps' host times a scored run
// reports: the lower quartile. What interference the host probe does
// not take out only ever lengthens a rep, so the faster reps are the
// better measure of the program (README.md, "Noise").
const quietQuantile = 0.25

// quantile returns the p-quantile of xs, interpolating linearly between
// the two nearest ranks. It panics on an empty slice.
func quantile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// worse returns by what share of a the value b is worse than a, in
// the metric's direction; negative when b is better.
func worse(m metricDef, a, b float64) float64 {
	d := (b - a) / math.Abs(a)
	if m.Better == higher {
		return -d
	}
	return d
}
