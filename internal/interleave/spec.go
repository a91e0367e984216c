package interleave

import (
	"fmt"

	"repro/internal/ir"
)

// Spec is one module to verify, its options and, for an app model, the
// sharing protocol it must show: the class each shared word must get.
// Nil Words declares nothing (the fuzz corpus's modules).
type Spec struct {
	Name  string
	Mod   *ir.Module
	Opts  Options
	Words []Word
}

// Word declares the class of shared word Addr or, when Last > Addr, of
// any shared word in Addr..Last. A single word must be shared; a range
// need not be in full, since which ring slots a run reaches depends on
// the context bound.
type Word struct {
	Addr, Last int64
	Class      Class
}

// Diff returns one line per difference between rep's classified words
// and the declaration: each shared word declared nowhere or of another
// class, in address order, then each declared single word never shared.
func (s *Spec) Diff(rep *Report) []string {
	if s.Words == nil {
		return nil
	}
	var diff []string
	seen := make([]bool, len(s.Words))
next:
	for _, a := range rep.Addrs {
		for i, w := range s.Words {
			if a.Addr >= w.Addr && a.Addr <= max(w.Addr, w.Last) {
				seen[i] = true
				if a.Class != w.Class {
					diff = append(diff, fmt.Sprintf("word %d is %v, declared %v", a.Addr, a.Class, w.Class))
				}
				continue next
			}
		}
		diff = append(diff, fmt.Sprintf("word %d is %v, undeclared", a.Addr, a.Class))
	}
	for i, w := range s.Words {
		if !seen[i] && w.Last <= w.Addr {
			diff = append(diff, fmt.Sprintf("word %d declared %v, never shared", w.Addr, w.Class))
		}
	}
	return diff
}
