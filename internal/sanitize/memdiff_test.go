package sanitize

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
)

// Both oracles read a final memory past its end as zero, so a word one
// side wrote beyond the other side's memory is a divergence, not a
// word the comparison skips.

// highWordSrc stores 7 at word 100 and nothing anywhere else.
const highWordSrc = `
mem 128
func @main() {
entry:
  %v = mov 7
  store _, 100, %v
  ret %v
}
`

func TestDiffTraceReportsWordPastBaselineMemory(t *testing.T) {
	m := ir.MustParse(highWordSrc)
	base, err := Execute(m, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffTrace(base, m, "ci", ExecOptions{}); err != nil {
		t.Fatalf("identical module diverged: %v", err)
	}
	base.Mem = base.Mem[:64] // the baseline's memory ends before word 100
	err = DiffTrace(base, m, "ci", ExecOptions{})
	var div *Divergence
	if !errors.As(err, &div) || !strings.Contains(div.Detail, "final mem[100] = 7, baseline 0") {
		t.Fatalf("err = %v, want a final-memory divergence at word 100", err)
	}
}

func TestDiffTierTracesReportsWordPastReferenceMemory(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ref, got []int64
		want     string
	}{
		{"compiled wrote past the interpreter's memory", []int64{1, 2}, []int64{1, 2, 0, 5}, "final mem[3] = 5, interpreter 0"},
		{"interpreter wrote past the compiled memory", []int64{1, 2, 0, 5}, []int64{1, 2}, "final mem[3] = 0, interpreter 5"},
		{"trailing zeros agree", []int64{1, 2, 0, 0}, []int64{1, 2}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := diffTierTraces(&TierTrace{Mem: tc.ref}, &TierTrace{Mem: tc.got})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("err = %v, want agreement", err)
				}
				return
			}
			var div *Divergence
			if !errors.As(err, &div) || div.Detail != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
