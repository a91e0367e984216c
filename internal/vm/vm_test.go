package vm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ci/instrument"
	"repro/internal/ir"
	"repro/internal/obs"
)

// forEachTier runs the test body once per execution tier, so the
// compiled tier inherits the full conformance surface of the
// interpreter rather than a parallel copy.
func forEachTier(t *testing.T, f func(t *testing.T, tier Tier)) {
	for _, tier := range []Tier{TierInterpreter, TierCompiled} {
		t.Run(tier.String(), func(t *testing.T) { f(t, tier) })
	}
}

// newVM is New plus tier selection, for tests.
func newVM(m *ir.Module, model *CostModel, threads int, tier Tier) *VM {
	v := New(m, model, threads)
	v.Tier = tier
	return v
}

func run(t *testing.T, tier Tier, m *ir.Module, fn string, args ...int64) (int64, *Thread) {
	t.Helper()
	v := newVM(m, nil, 1, tier)
	v.LimitInstrs = 50_000_000
	th := v.NewThread(0)
	rv, err := th.Run(fn, args...)
	if err != nil {
		t.Fatalf("Run(%s): %v", fn, err)
	}
	return rv, th
}

func TestArithmeticAndControlFlow(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %s = add %s, %i
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`)
		rv, th := run(t, tier, m, "main", 100)
		if rv != 4950 {
			t.Errorf("sum 0..99 = %d, want 4950", rv)
		}
		if th.Stats.Instrs < 500 || th.Stats.Cycles < th.Stats.Instrs {
			t.Errorf("stats implausible: %+v", th.Stats)
		}
	})
}

func TestRecursionAndCalls(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
func @fib(%n) {
entry:
  %c = lt %n, 2
  br %c, base, rec
base:
  ret %n
rec:
  %a = sub %n, 1
  %r1 = call @fib(%a)
  %b = sub %n, 2
  %r2 = call @fib(%b)
  %s = add %r1, %r2
  ret %s
}
`)
		rv, _ := run(t, tier, m, "fib", 15)
		if rv != 610 {
			t.Errorf("fib(15) = %d, want 610", rv)
		}
	})
}

func TestMemoryOps(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
mem 128
func @main() {
entry:
  %v = mov 42
  %base = mov 10
  store %base, 5, %v
  %r = load %base, 5
  %old = aadd %base, 5, %v
  %r2 = load %base, 5
  %sum = add %r, %r2
  ret %sum
}
`)
		rv, _ := run(t, tier, m, "main")
		if rv != 42+84 {
			t.Errorf("got %d, want 126", rv)
		}
	})
}

func TestMinMaxDivByZero(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
func @main(%a, %b) {
entry:
  %mn = min %a, %b
  %mx = max %a, %b
  %z = mov 0
  %d = div %a, %z
  %r = rem %a, %z
  %s = add %mn, %mx
  %s = add %s, %d
  %s = add %s, %r
  ret %s
}
`)
		rv, _ := run(t, tier, m, "main", 3, 9)
		if rv != 12 {
			t.Errorf("got %d, want 12 (min+max, div/rem by zero = 0)", rv)
		}
	})
}

func TestMemoryFault(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
mem 8
func @main() {
entry:
  %x = load _, 99
  ret %x
}
`)
		v := newVM(m, nil, 1, tier)
		th := v.NewThread(0)
		if _, err := th.Run("main"); !errors.Is(err, ErrMemFault) {
			t.Errorf("err = %v, want ErrMemFault", err)
		}
	})
}

func TestInstrLimit(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
func @main() {
entry:
  jmp entry
}
`)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 1000
		th := v.NewThread(0)
		if _, err := th.Run("main"); !errors.Is(err, ErrStepBudget) {
			t.Errorf("err = %v, want ErrStepBudget", err)
		}
	})
}

func TestDeterminism(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		src := `
mem 4096
func @main(%n) {
entry:
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %a = and %i, 1023
  %v = load %a, 0
  %v = add %v, %i
  store %a, 0, %v
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`
		cycles := func() int64 {
			m := ir.MustParse(src)
			_, th := run(t, tier, m, "main", 5000)
			return th.Stats.Cycles
		}
		if a, b := cycles(), cycles(); a != b {
			t.Errorf("non-deterministic cycles: %d vs %d", a, b)
		}
	})
}

func TestExtCallChargesCost(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
extern @slow cost 5000
func @main() {
entry:
  extcall @slow()
  ret
}
`)
		_, th := run(t, tier, m, "main")
		if th.Stats.Cycles < 5000 {
			t.Errorf("cycles = %d, want >= 5000", th.Stats.Cycles)
		}
		if th.Stats.ExtCalls != 1 {
			t.Errorf("ExtCalls = %d", th.Stats.ExtCalls)
		}
	})
}

func TestHWInterrupts(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		src := `
func @main(%n) {
entry:
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`
		base := func() int64 {
			m := ir.MustParse(src)
			_, th := run(t, tier, m, "main", 200000)
			return th.Stats.Cycles
		}()
		m := ir.MustParse(src)
		v := newVM(m, nil, 1, tier)
		fired := 0
		v.HW = &HWConfig{IntervalCycles: 5000, Handler: func(t *Thread) { fired++ }}
		th := v.NewThread(0)
		if _, err := th.Run("main", 200000); err != nil {
			t.Fatal(err)
		}
		if fired == 0 || th.Stats.HWInterrupts != int64(fired) {
			t.Fatalf("HW interrupts = %d / stat %d", fired, th.Stats.HWInterrupts)
		}
		// Overhead must be roughly interrupts * HWInterruptCost.
		over := th.Stats.Cycles - base
		wantMin := int64(fired) * v.code.model.HWInterruptCost
		if over < wantMin {
			t.Errorf("overhead %d < interrupts*cost %d", over, wantMin)
		}
		// With cost 40000 per 5000-cycle interval, slowdown should be ~9x.
		slow := float64(th.Stats.Cycles) / float64(base)
		if slow < 5 || slow > 15 {
			t.Errorf("HW slowdown = %.1fx, want ~9x", slow)
		}
	})
}

// Semantic preservation: every instrumentation design must leave
// program results unchanged. This exercises the loop transform and
// cloning surgery end to end, on both execution tiers.
func TestInstrumentationPreservesSemantics(t *testing.T) {
	programs := []struct {
		name string
		src  string
		fn   string
		args []int64
		want int64
	}{
		{
			name: "param loop sum",
			src: `
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %s = add %s, %i
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`,
			fn: "main", args: []int64{10000}, want: 49995000,
		},
		{
			name: "le loop with step 3",
			src: `
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = le %i, %n
  br %c, body, exit
body:
  %s = add %s, 1
  %i = add %i, 3
  jmp head
exit:
  ret %s
}
`,
			fn: "main", args: []int64{29999}, want: 10000,
		},
		{
			name: "nested loops",
			src: `
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp ohead
ohead:
  %c = lt %i, %n
  br %c, obody, oexit
obody:
  %j = mov 0
  jmp ihead
ihead:
  %c2 = lt %j, 200
  br %c2, ibody, iexit
ibody:
  %s = add %s, 1
  %j = add %j, 1
  jmp ihead
iexit:
  %i = add %i, 1
  jmp ohead
oexit:
  ret %s
}
`,
			fn: "main", args: []int64{300}, want: 60000,
		},
		{
			name: "calls inside loop",
			src: `
func @sq(%x) {
entry:
  %y = mul %x, %x
  ret %y
}
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %q = call @sq(%i)
  %s = add %s, %q
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`,
			fn: "main", args: []int64{1000}, want: 332833500,
		},
		{
			name: "branchy loop",
			src: `
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %b = and %i, 1
  br %b, odd, even
odd:
  %s = add %s, 3
  jmp cont
even:
  %s = add %s, 1
  jmp cont
cont:
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`,
			fn: "main", args: []int64{10000}, want: 20000,
		},
		{
			name: "runtime-small loop (clone fast path)",
			src: `
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %s = add %s, 2
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`,
			fn: "main", args: []int64{7}, want: 14,
		},
	}
	forEachTier(t, func(t *testing.T, tier Tier) {
		for _, p := range programs {
			for _, d := range instrument.Designs {
				t.Run(fmt.Sprintf("%s/%s", p.name, d), func(t *testing.T) {
					m := ir.MustParse(p.src)
					_, err := instrument.Instrument(m, instrument.Options{
						Design:   d,
						Analysis: analysis.Options{ProbeInterval: 150},
					})
					if err != nil {
						t.Fatalf("instrument: %v", err)
					}
					v := newVM(m, nil, 1, tier)
					v.LimitInstrs = 50_000_000
					th := v.NewThread(0)
					th.RT.RegisterCI(5000, func(uint64) {})
					got, err := th.Run(p.fn, p.args...)
					if err != nil {
						t.Fatalf("run: %v\n%s", err, m)
					}
					if got != p.want {
						t.Errorf("result = %d, want %d\n%s", got, p.want, m)
					}
				})
			}
		}
	})
}

// Tier parity: the compiled tier must reproduce the interpreter's
// Stats struct byte for byte — cycles, instruction counts, probe
// counters, handler calls, cycle reads — along with the return value
// and handler fire count, across every instrumentation design. This is
// the in-package complement of the sanitize corpus oracle.
func TestTierStatParity(t *testing.T) {
	src := `
mem 4096
extern @lib cost 900
func @mix(%x) {
entry:
  %a = and %x, 1023
  %v = load %a, 0
  %v = add %v, %x
  store %a, 0, %v
  %old = aadd _, 0, %x
  %y = mul %x, 3
  ret %y
}
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %w = call @mix(%i)
  %s = add %s, %w
  %b = and %i, 255
  %e = eq %b, 0
  br %e, ext, cont
ext:
  extcall @lib()
  jmp cont
cont:
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`
	type result struct {
		rv     int64
		stats  Stats
		fires  uint64
		err    string
		events string
	}
	// A row runs one design plainly, with a CI handler that overruns
	// MaxHandlerCycles at its first delivery (UIntr carries no probes,
	// so there the overrunning handler is the uintr one), under an
	// enabled obs scope whose events must match too, or with an OnProbe
	// schedule forcing a sweep at every 97th probe site. The observed
	// and forced rows run the compiled tier's hooked form.
	type stress int
	const (
		plain stress = iota
		overrun
		observed
		forced
	)
	exec := func(t *testing.T, tier Tier, d instrument.Design, s stress) result {
		t.Helper()
		m := ir.MustParse(src)
		if _, err := instrument.Instrument(m, instrument.Options{
			Design:   d,
			Analysis: analysis.Options{ProbeInterval: 150},
		}); err != nil {
			t.Fatal(err)
		}
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 50_000_000
		if s == observed {
			v.Obs = obs.New(0)
		}
		var th *Thread
		var fires uint64
		handler := func(uint64) { fires++ }
		if s == overrun {
			v.MaxHandlerCycles = 100
			handler = func(uint64) { fires++; th.Charge(1000) }
			if d == instrument.UserInterrupt {
				v.HW = &HWConfig{IntervalCycles: 2000, User: true,
					Handler: func(ht *Thread) { ht.Charge(1000) }}
			}
		}
		th = v.NewThread(0)
		th.RT.RegisterCI(2000, handler)
		if s == forced {
			site := 0
			th.OnProbe = func() int {
				site++
				if site%97 == 0 {
					return 1
				}
				return 0
			}
		}
		rv, err := th.Run("main", 20000)
		switch {
		case s == overrun && !errors.Is(err, ErrHandlerOverrun):
			t.Fatalf("err = %v, want ErrHandlerOverrun", err)
		case s != overrun && err != nil:
			t.Fatal(err)
		}
		r := result{rv: rv, stats: th.Stats, fires: fires}
		if err != nil {
			r.err = err.Error()
		}
		if s == observed {
			r.events = fmt.Sprint(v.Obs.Events(), v.Obs.HotSites(0))
		}
		return r
	}
	type row struct {
		name string
		d    instrument.Design
		s    stress
		// miscompiled plants MiscompileForTest's cycle drift in the
		// compiled leg: the row passes only if the drift shows, which
		// proves a hooked thread runs compiled code.
		miscompiled bool
	}
	var rows []row
	for _, d := range instrument.Designs {
		rows = append(rows, row{name: string(d), d: d, s: plain},
			row{name: "overrun/" + d.String(), d: d, s: overrun},
			row{name: "obs/" + d.String(), d: d, s: observed})
	}
	rows = append(rows, row{name: "forced", d: instrument.CI, s: forced},
		row{name: "miscompiled/obs", d: instrument.CI, s: observed, miscompiled: true},
		row{name: "miscompiled/forced", d: instrument.CI, s: forced, miscompiled: true})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ref := exec(t, TierInterpreter, r.d, r.s)
			if r.miscompiled {
				MiscompileForTest = true
				defer func() { MiscompileForTest = false }()
			}
			got := exec(t, TierCompiled, r.d, r.s)
			switch {
			case r.miscompiled && (got.stats.Cycles >= ref.stats.Cycles || got.rv != ref.rv):
				t.Errorf("a hooked thread on the default tier missed the planted cycle drift:\n interp   %+v\n compiled %+v", ref, got)
			case !r.miscompiled && got != ref:
				t.Errorf("tier divergence:\n interp  %+v\n compiled %+v", ref, got)
			}
		})
	}
}

// fusedStoreLoopSrc is a counted loop whose only access is a store
// addressed by the add just before it: for k < %n, mem[%addr+k] = k.
const fusedStoreLoopSrc = `
mem 4096
func @main(%addr, %n) {
entry:
  %k = mov 0
  jmp head
head:
  %c = lt %k, %n
  br %c, body, exit
body:
  %a = add %addr, %k
  store %a, 0, %k
  %k = add %k, 1
  jmp head
exit:
  ret %k
}
`

// At an address-mode µop the superblock flushes its batched charges
// exactly as the interpreter charged them: a fused access that faults
// past MemWords, and observers that read Stats from inside their
// callbacks, see the interpreter's Stats and error. A function with
// more registers than the superblock's register view runs the same
// loop on the plain path and matches too.
func TestFusedAccessMatchesInterpreter(t *testing.T) {
	var wide strings.Builder
	for r := 0; r < 300; r++ {
		fmt.Fprintf(&wide, "  %%w%d = mov %d\n", r, r)
	}
	wideSrc := strings.Replace(memLoopSrc, "entry:\n", "entry:\n"+wide.String(), 1)
	for _, tc := range []struct {
		name           string
		src            string
		args           []int64
		observe        bool
		loops, addrOps int // Superblocks
		fault          bool
	}{
		{name: "fused load faults past MemWords", src: memLoopSrc, args: []int64{4090, 10}, loops: 1, addrOps: 1, fault: true},
		{name: "fused store faults past MemWords", src: fusedStoreLoopSrc, args: []int64{4090, 10}, loops: 1, addrOps: 1, fault: true},
		{name: "observers read Stats at a fused load", src: memLoopSrc, args: []int64{100, 50}, observe: true, loops: 1, addrOps: 1},
		{name: "observers read Stats at a fused store", src: fusedStoreLoopSrc, args: []int64{100, 50}, observe: true, loops: 1, addrOps: 1},
		{name: "more than 256 registers run on the plain path", src: wideSrc, args: []int64{4090, 10}, observe: true, fault: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := ir.MustParse(tc.src)
			if loops, addrOps := Superblocks(m); loops != tc.loops || addrOps != tc.addrOps {
				t.Fatalf("Superblocks = %d loops, %d address µops; want %d, %d", loops, addrOps, tc.loops, tc.addrOps)
			}
			var runs [2]memRun
			var seen [2][]Stats
			for i, tier := range []Tier{TierInterpreter, TierCompiled} {
				setup := func(th *Thread) {
					if !tc.observe {
						return
					}
					th.OnLoad = func(string, string, int64, int64) { seen[i] = append(seen[i], th.Stats) }
					th.OnStore = func(string, string, int64, int64) { seen[i] = append(seen[i], th.Stats) }
				}
				runs[i] = runMem(m, tier, false, setup, "main", tc.args...)
			}
			ref, got := runs[0], runs[1]
			if (ref.err != "") != tc.fault {
				t.Fatalf("interpreter error %q, want a fault: %v", ref.err, tc.fault)
			}
			if !got.equal(ref) {
				t.Errorf("compiled tier differs from the interpreter:\n interp   ret=%d err=%q %+v\n compiled ret=%d err=%q %+v",
					ref.ret, ref.err, ref.stats, got.ret, got.err, got.stats)
			}
			if tc.observe && (len(seen[0]) == 0 || !slices.Equal(seen[1], seen[0])) {
				t.Errorf("Stats seen inside the observers differ (%d interpreter, %d compiled callbacks)",
					len(seen[0]), len(seen[1]))
			}
		})
	}
}

// Counter fidelity: for the CI design, the runtime's instruction count
// must track the instructions actually executed within a bounded
// relative error — this validates the statically computed increments,
// the loop transform and cloning arithmetic.
func TestCICounterTracksExecution(t *testing.T) {
	srcs := map[string]struct {
		src  string
		args []int64
	}{
		"param loop": {`
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %s = add %s, %i
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`, []int64{100000}},
		"nested with calls": {`
func @work(%x) {
entry:
  %a = mul %x, 3
  %b = add %a, 1
  %c = xor %b, %x
  ret %c
}
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %w = call @work(%i)
  %s = add %s, %w
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`, []int64{50000}},
	}
	forEachTier(t, func(t *testing.T, tier Tier) {
		for name, tc := range srcs {
			t.Run(name, func(t *testing.T) {
				m := ir.MustParse(tc.src)
				_, err := instrument.Instrument(m, instrument.Options{
					Design:   instrument.CI,
					Analysis: analysis.Options{ProbeInterval: 200},
				})
				if err != nil {
					t.Fatal(err)
				}
				v := newVM(m, nil, 1, tier)
				v.LimitInstrs = 100_000_000
				th := v.NewThread(0)
				th.RT.RegisterCI(1000, func(uint64) {})
				if _, err := th.Run("main", tc.args...); err != nil {
					t.Fatal(err)
				}
				counted := float64(th.RT.InsCount())
				actual := float64(th.Stats.Instrs)
				ratio := counted / actual
				if ratio < 0.85 || ratio > 1.15 {
					t.Errorf("counted %v vs executed %v IR (ratio %.3f), want within 15%%",
						counted, actual, ratio)
				}
			})
		}
	})
}

// Handler firing interval: with a tuned IR-per-cycle ratio, CI handlers
// should fire near the requested cycle interval.
func TestCIIntervalAccuracy(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		src := `
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %s = add %s, %i
  %s = xor %s, %i
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`
		// Profiling run to measure IR per cycle.
		m0 := ir.MustParse(src)
		_, th0 := run(t, tier, m0, "main", 100000)
		irPerCycle := float64(th0.Stats.Instrs) / float64(th0.Stats.Cycles)

		m := ir.MustParse(src)
		if _, err := instrument.Instrument(m, instrument.Options{
			Design:   instrument.CI,
			Analysis: analysis.Options{ProbeInterval: 200},
		}); err != nil {
			t.Fatal(err)
		}
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 100_000_000
		th := v.NewThread(0)
		th.RT.IRPerCycle = irPerCycle
		th.RT.RecordIntervals = true
		id := th.RT.RegisterCI(5000, func(uint64) {})
		if _, err := th.Run("main", 1_000_000); err != nil {
			t.Fatal(err)
		}
		ivs := th.RT.Intervals(id)
		if len(ivs) < 100 {
			t.Fatalf("only %d intervals recorded", len(ivs))
		}
		// Median within 40% of the 5000-cycle target.
		med := median(ivs)
		if med < 3000 || med > 9000 {
			t.Errorf("median interval = %d cycles, want ~5000", med)
		}
	})
}

func median(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// Threads of one VM share its memory: eight threads run one after
// another on one goroutine, and their atomic adds all land in the
// shared counter.
func TestSequentialThreadsAtomicCounter(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
mem 64
func @main(%n) {
entry:
  %one = mov 1
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %old = aadd _, 0, %one
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`)
		v := newVM(m, nil, 8, tier)
		v.LimitInstrs = 10_000_000
		for id := 0; id < 8; id++ {
			th := v.NewThread(id)
			if _, err := th.Run("main", 1000); err != nil {
				t.Fatal(err)
			}
			if th.Stats.Cycles == 0 || th.Stats.Instrs == 0 {
				t.Errorf("thread %d has empty stats", id)
			}
		}
		if v.Memory()[0] != 8000 {
			t.Errorf("shared counter = %d, want 8000", v.Memory()[0])
		}
	})
}

func TestContentionScalesMemoryCost(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		src := `
mem 1024
func @main(%n) {
entry:
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %a = and %i, 511
  %v = load %a, 0
  store %a, 0, %v
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`
		cyc := func(threads int) int64 {
			m := ir.MustParse(src)
			v := newVM(m, nil, threads, tier)
			v.LimitInstrs = 10_000_000
			th := v.NewThread(0)
			rv, err := th.Run("main", 20000)
			if err != nil || rv != 20000 {
				t.Fatalf("run: %v rv=%d", err, rv)
			}
			return th.Stats.Cycles
		}
		c1, c32 := cyc(1), cyc(32)
		if c32 <= c1 {
			t.Errorf("32-thread contention did not increase cycles: %d vs %d", c32, c1)
		}
		ratio := float64(c32) / float64(c1)
		if ratio < 1.3 || ratio > 5 {
			t.Errorf("contention ratio = %.2f, want ~1.5-4", ratio)
		}
	})
}

// §2.2: a program brackets its critical sections with
// ci_disable(0)/ci_enable(0) so no handler can run while the "lock" is
// held — the pattern the paper recommends for lock implementations.
// The handler records a violation whenever it observes the lock flag.
func TestCriticalSectionDisablesHandlers(t *testing.T) {
	src := `
mem 16
extern @ci_disable cost 4
extern @ci_enable cost 4
func @main(%protect) {
entry:
  %one = mov 1
  %zero = mov 0
  %ciid = mov 0
  %i = mov 0
  %n = mov 4000
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  br %protect, guarded, raw
guarded:
  extcall @ci_disable(%ciid)
  jmp crit
raw:
  jmp crit
crit:
  store _, 0, %one
  %w = mov 0
  jmp critloop
critloop:
  %wc = lt %w, 40
  br %wc, critbody, critdone
critbody:
  %w = add %w, 1
  jmp critloop
critdone:
  store _, 0, %zero
  br %protect, unguard, cont
unguard:
  extcall @ci_enable(%ciid)
  jmp cont
cont:
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`
	forEachTier(t, func(t *testing.T, tier Tier) {
		run := func(protect int64) (violations, fires int64) {
			m := ir.MustParse(src)
			if _, err := instrument.Instrument(m, instrument.Options{
				Design:   instrument.CI,
				Analysis: analysis.Options{ProbeInterval: 50},
			}); err != nil {
				t.Fatal(err)
			}
			v := newVM(m, nil, 1, tier)
			v.LimitInstrs = 50_000_000
			th := v.NewThread(0)
			th.RT.RegisterCI(300, func(uint64) {
				fires++
				if v.Memory()[0] != 0 {
					violations++
				}
			})
			if _, err := th.Run("main", protect); err != nil {
				t.Fatal(err)
			}
			return violations, fires
		}
		rawViolations, rawFires := run(0)
		if rawFires == 0 {
			t.Fatal("handler never fired")
		}
		if rawViolations == 0 {
			t.Fatal("unprotected run should observe handler fires inside the critical section")
		}
		guardViolations, guardFires := run(1)
		if guardFires == 0 {
			t.Fatal("protected run silenced the handler entirely")
		}
		if guardViolations != 0 {
			t.Errorf("ci_disable/ci_enable leaked %d handler fires into critical sections", guardViolations)
		}
	})
}

// Hardware interrupts coalesce across blocking system calls but fire
// mid-call inside ordinary library calls.
func TestHWInterruptsAndExternCalls(t *testing.T) {
	src := `
extern @lib cost 50000
extern @syscall cost 50000 blocking
func @main(%blocking) {
entry:
  br %blocking, s, l
s:
  extcall @syscall()
  ret
l:
  extcall @lib()
  ret
}
`
	forEachTier(t, func(t *testing.T, tier Tier) {
		count := func(blocking int64) int64 {
			m := ir.MustParse(src)
			v := newVM(m, nil, 1, tier)
			v.HW = &HWConfig{IntervalCycles: 10000}
			th := v.NewThread(0)
			if _, err := th.Run("main", blocking); err != nil {
				t.Fatal(err)
			}
			return th.Stats.HWInterrupts
		}
		lib := count(0)
		sys := count(1)
		if lib < 4 {
			t.Errorf("library call should take ~5 mid-call interrupts, got %d", lib)
		}
		if sys != 1 {
			t.Errorf("blocking syscall should coalesce to 1 delivery, got %d", sys)
		}
	})
}

// RearmHW pushes the watchdog deadline: with the handler re-arming on
// every CI fire, a probe-dense program never takes a hardware
// interrupt.
func TestRearmHWWatchdogStaysQuiet(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
func @main(%n) {
entry:
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`)
		if _, err := instrument.Instrument(m, instrument.Options{
			Design:   instrument.CI,
			Analysis: analysis.Options{ProbeInterval: 100},
		}); err != nil {
			t.Fatal(err)
		}
		v := newVM(m, nil, 1, tier)
		var th *Thread
		v.HW = &HWConfig{IntervalCycles: 10000, Handler: func(t *Thread) { t.RearmHW() }}
		th = v.NewThread(0)
		th.RT.RegisterCI(2000, func(uint64) { th.RearmHW() })
		if _, err := th.Run("main", 500000); err != nil {
			t.Fatal(err)
		}
		if th.Stats.HandlerCalls < 100 {
			t.Fatalf("CI handler barely fired: %d", th.Stats.HandlerCalls)
		}
		if th.Stats.HWInterrupts != 0 {
			t.Errorf("watchdog fired %d times despite constant re-arming", th.Stats.HWInterrupts)
		}
	})
}

func TestTraceTimeline(t *testing.T) {
	// The interrupt timeline of a run (handler fires, external calls)
	// lands in the obs scope that -trace writes out. An enabled scope
	// runs the compiled tier's hooked form; its timeline and probe-site
	// profile must equal the interpreter's event for event.
	type timeline struct {
		events []obs.Event
		sites  []obs.SiteStat
	}
	var got [2]timeline
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
extern @lib cost 3000
func @main(%n) {
entry:
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  extcall @lib()
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`)
		if _, err := instrument.Instrument(m, instrument.Options{
			Design:   instrument.CI,
			Analysis: analysis.Options{ProbeInterval: 100},
		}); err != nil {
			t.Fatal(err)
		}
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 10_000_000
		scope := obs.New(64)
		v.Obs = scope
		th := v.NewThread(0)
		th.RT.RegisterCI(2000, func(uint64) {})
		if _, err := th.Run("main", 200); err != nil {
			t.Fatal(err)
		}
		var fires, extcalls int
		last := map[string]int64{}
		for _, e := range scope.Events() {
			if e.TS < last[e.Name] {
				t.Fatalf("%s events not time-ordered: %d after %d", e.Name, e.TS, last[e.Name])
			}
			last[e.Name] = e.TS
			switch e.Name {
			case "probe-fire":
				fires++
			case "extcall":
				extcalls++
				if e.Args[0].Str != "lib" || e.Dur != 3000 {
					t.Errorf("extcall event = %+v", e)
				}
			}
		}
		if fires == 0 || extcalls == 0 {
			t.Fatalf("timeline missing events: fires=%d extcalls=%d", fires, extcalls)
		}
		// The ring must bound memory: 200 extcalls exceed capacity 64.
		if n := len(scope.Events()); n > 64 {
			t.Errorf("ring exceeded capacity: %d", n)
		}
		if scope.Dropped() == 0 {
			t.Error("expected drops with a small ring")
		}
		got[tier] = timeline{scope.Events(), scope.HotSites(0)}
	})
	ref, cmp := got[TierInterpreter], got[TierCompiled]
	if !slices.Equal(cmp.events, ref.events) {
		t.Errorf("compiled timeline differs from the interpreter's:\n interp   %v\n compiled %v", ref.events, cmp.events)
	}
	if len(ref.sites) == 0 || !slices.Equal(cmp.sites, ref.sites) {
		t.Errorf("probe-site profiles differ:\n interp   %+v\n compiled %+v", ref.sites, cmp.sites)
	}
}

// A call to a function the module does not define is resolved when the
// Code is made, but fails only when it executes, on both tiers, with
// the name it called: a run that never reaches it succeeds.
func TestUnknownCalleeFailsWhenCalled(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 1)
	b := ir.NewBuilder(f)
	call, done := b.Block("call"), b.Block("done")
	b.Br(0, call, done)
	b.SetBlock(call)
	b.Call("ghost", 0)
	b.Jmp(done)
	b.SetBlock(done)
	b.Ret(0)
	forEachTier(t, func(t *testing.T, tier Tier) {
		code := NewCode(m, nil)
		for _, arg := range []int64{0, 1} {
			v := code.NewVM(1)
			v.Tier = tier
			_, err := v.NewThread(0).Run("main", arg)
			switch {
			case arg == 0 && err != nil:
				t.Errorf("main(0) never calls @ghost, but failed: %v", err)
			case arg == 1 && (err == nil || err.Error() != `vm: call to unknown function "ghost"`):
				t.Errorf("main(1) = %v, want the unknown-function error", err)
			}
		}
	})
}
