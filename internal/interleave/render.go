package interleave

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// WriteTable renders the race table for one report — the cirun
// -interleave output and the golden-file format. Every line is a pure
// function of the report, which is itself deterministic at any worker
// count, so the table can be golden-tested byte-for-byte.
func (r *Report) WriteTable(w io.Writer) error {
	fmt.Fprintf(w, "interleave: @%s vs @%s (cadence fires %d)\n", r.Entry, r.Handler, r.Fires)
	fmt.Fprintf(w, "sites: %d feasible of %d probe sites; bound %d: %d schedules (%d sampled out, %d pair-truncated, %d undelivered, %d inconclusive)\n",
		r.FeasibleSites, r.TotalSites, r.Bound, r.Schedules, r.Sampled, r.PairTruncated, r.Undelivered, r.Inconclusive)
	if len(r.Addrs) == 0 {
		fmt.Fprintln(w, "shared addresses: none")
	} else {
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  addr\tclass\tmain r/w\thandler r/w\tmain site\thandler site")
		for _, a := range r.Addrs {
			fmt.Fprintf(tw, "  %d\t%s\t%d/%d\t%d/%d\t%s\t%s\n",
				a.Addr, a.Class, a.MainReads, a.MainWrites,
				a.HandlerReads, a.HandlerWrites, a.MainSite, a.HandlerSite)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if len(r.NonCommute) == 0 {
		fmt.Fprintln(w, "non-commutative schedules: none")
	} else {
		fmt.Fprintf(w, "non-commutative schedules: %d\n", len(r.NonCommute))
		for _, nc := range r.NonCommute {
			if nc.Schedule == nil {
				fmt.Fprintf(w, "  cadence\t%s\n", nc.Detail)
				continue
			}
			fmt.Fprintf(w, "  fire@%v\t%s\n", nc.Schedule, nc.Detail)
		}
	}
	if err := r.Err(); err != nil {
		fmt.Fprintf(w, "verdict: FAIL (%v)\n", err)
	} else {
		fmt.Fprintln(w, "verdict: OK")
	}
	return nil
}
