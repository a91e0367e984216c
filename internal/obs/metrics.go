// Plain-text metrics rendering: counters, histogram quantiles and the
// hottest-probe-sites table. This is the -metrics / cirun -hot
// surface; EXPERIMENTS.md documents how the interval-error histograms
// here reproduce the paper's accuracy CDFs.
package obs

import (
	"bufio"
	"fmt"
	"io"
)

// WriteMetrics renders all counters and histograms in deterministic
// (sorted) order. Histograms report the quantiles the paper's accuracy
// figures use: p50/p90/p99 plus exact min/max and mean.
func (s *Scope) WriteMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if s == nil {
		fmt.Fprintln(bw, "# obs: disabled scope (no metrics recorded)")
		return bw.Flush()
	}
	s.mu.Lock()
	counters := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		counters[k] = v
	}
	hists := make(map[string]*stHist, len(s.hists))
	for k, h := range s.hists {
		cp := *h
		hists[k] = &stHist{cp.N(), cp.Min(), cp.Quantile(50), cp.Quantile(90), cp.Quantile(99), cp.Max(), cp.Mean()}
	}
	nsites := len(s.sites)
	dropped := s.dropped
	s.mu.Unlock()

	if len(counters) > 0 {
		fmt.Fprintln(bw, "# counters")
		for _, k := range sortedKeys(counters) {
			fmt.Fprintf(bw, "%-40s %d\n", k, counters[k])
		}
	}
	if len(hists) > 0 {
		fmt.Fprintln(bw, "# histograms")
		fmt.Fprintf(bw, "%-40s %10s %10s %10s %10s %10s %10s %12s\n",
			"name", "n", "min", "p50", "p90", "p99", "max", "mean")
		for _, k := range sortedKeys(hists) {
			h := hists[k]
			fmt.Fprintf(bw, "%-40s %10d %10d %10d %10d %10d %10d %12.1f\n",
				k, h.n, h.min, h.p50, h.p90, h.p99, h.max, h.mean)
		}
	}
	if nsites > 0 {
		fmt.Fprintf(bw, "# probe sites: %d distinct (see cirun -hot N for the table)\n", nsites)
	}
	if dropped > 0 {
		fmt.Fprintf(bw, "# trace ring dropped %d event(s)\n", dropped)
	}
	return bw.Flush()
}

type stHist struct {
	n, min, p50, p90, p99, max int64
	mean                       float64
}

// WriteHotSites renders the hottest-probe-sites profile table: up to n
// sites by descending probe executions, with fire counts and fire
// rate. This is the cirun -hot surface.
func (s *Scope) WriteHotSites(w io.Writer, n int) error {
	bw := bufio.NewWriter(w)
	sites := s.HotSites(n)
	if len(sites) == 0 {
		fmt.Fprintln(bw, "# obs: no probe sites recorded")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "%-24s %-16s %12s %12s %9s\n", "function", "block", "probe execs", "fires", "fire rate")
	for _, st := range sites {
		rate := 0.0
		if st.Hits > 0 {
			rate = float64(st.Fired) / float64(st.Hits)
		}
		fmt.Fprintf(bw, "%-24s %-16s %12d %12d %8.4f%%\n", st.Fn, st.Block, st.Hits, st.Fired, rate*100)
	}
	return bw.Flush()
}
