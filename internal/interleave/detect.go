package interleave

import (
	"cmp"
	"slices"
)

// The Detect stage. Inline handlers give the happens-before relation a
// degenerate but useful shape: every access within one epoch is
// totally ordered, a handler epoch is atomic with respect to main
// (it runs to completion at one probe site), and the only cross-epoch
// ordering primitive is ci_disable/ci_enable — a main access executed
// while no handler can fire is ordered with respect to every handler
// epoch. A shared address races when the handler epoch's placement
// relative to unordered main accesses could matter; classification
// separates the placements that provably cannot matter.

// Class is the verdict for one shared address.
type Class uint8

const (
	// ClassReadShared: both sides only read the address.
	ClassReadShared Class = iota
	// ClassObserved: the handler only reads; main may write. Reads of
	// a single word are indivisible in this VM, so the handler observes
	// a clean snapshot — benign unless the handler's own writes
	// elsewhere disagree, which the commutativity oracle catches.
	ClassObserved
	// ClassAtomic: every write on both sides is an atomic add — a
	// commutative reduction whose final value is placement-independent.
	ClassAtomic
	// ClassSameValue: every handler write leaves the value unchanged
	// (a store of the current value, or an add of zero); the handler is
	// effectively a reader.
	ClassSameValue
	// ClassProtected: every main access runs under ci_disable, so no
	// handler epoch can interleave with main's use of the address.
	ClassProtected
	// ClassRacy: an unclassified handler/main race — the verifier's
	// finding.
	ClassRacy
)

func (c Class) String() string {
	switch c {
	case ClassReadShared:
		return "read-shared"
	case ClassObserved:
		return "observed"
	case ClassAtomic:
		return "atomic"
	case ClassSameValue:
		return "same-value"
	case ClassProtected:
		return "protected"
	default:
		return "RACY"
	}
}

// AddrReport is the classified verdict for one shared address.
type AddrReport struct {
	Addr  int64
	Class Class
	// Access counts aggregated over every folded run (reads include
	// the read half of nothing — adds count as writes).
	MainReads, MainWrites       int
	HandlerReads, HandlerWrites int
	// MainSite / HandlerSite are "fn/block" exemplars of the first
	// recorded access on each side.
	MainSite, HandlerSite string
}

// addrState accumulates per-address evidence across runs.
type addrState struct {
	mainReads, mainWrites int
	hReads, hWrites       int
	mainAccess, hAccess   bool
	// mainPlain / hPlain: any non-atomic write on that side.
	mainPlain, hPlain bool
	// hChanging: any handler write that changed the value.
	hChanging bool
	// mainUnprotected: any main access outside a ci_disable region.
	mainUnprotected bool
	mainSite, hSite string
}

// accumulator folds run traces into per-address states. Folding order
// is deterministic (record run first, then schedules in index order),
// so exemplar sites and counts are reproducible at any worker count.
type accumulator struct {
	states map[int64]*addrState
}

func newAccumulator() *accumulator {
	return &accumulator{states: make(map[int64]*addrState)}
}

// fold merges one run's access trace. A per-run shadow memory (all
// words start at zero) tracks the value each address held before every
// write, which is what tells a same-value handler store apart from a
// clobbering one.
func (a *accumulator) fold(r *Run) {
	shadow := make(map[int64]int64)
	for i := range r.Accesses {
		ac := &r.Accesses[i]
		s := a.states[ac.Addr]
		if s == nil {
			s = &addrState{}
			a.states[ac.Addr] = s
		}
		site := ac.Fn + "/" + ac.Block
		if ac.Epoch == 0 {
			s.mainAccess = true
			if !ac.Protected {
				s.mainUnprotected = true
			}
			if s.mainSite == "" {
				s.mainSite = site
			}
			if ac.Kind == KindLoad {
				s.mainReads++
			} else {
				s.mainWrites++
				if ac.Kind == KindStore {
					s.mainPlain = true
				}
			}
		} else {
			s.hAccess = true
			if s.hSite == "" {
				s.hSite = site
			}
			if ac.Kind == KindLoad {
				s.hReads++
			} else {
				s.hWrites++
				if ac.Kind == KindStore {
					s.hPlain = true
				}
				if ac.Val != shadow[ac.Addr] {
					s.hChanging = true
				}
			}
		}
		if ac.Kind != KindLoad {
			shadow[ac.Addr] = ac.Val
		}
	}
}

// handlerWritten returns the set of addresses any handler epoch wrote
// in run r — the words excluded from final-memory equivalence.
func handlerWritten(r *Run) map[int64]bool {
	out := make(map[int64]bool)
	for i := range r.Accesses {
		if r.Accesses[i].Epoch > 0 && r.Accesses[i].Kind != KindLoad {
			out[r.Accesses[i].Addr] = true
		}
	}
	return out
}

// merge folds another accumulator (a worker-local fold) into a.
func (a *accumulator) merge(b *accumulator) {
	for addr, bs := range b.states {
		s := a.states[addr]
		if s == nil {
			cp := *bs
			a.states[addr] = &cp
			continue
		}
		s.mainReads += bs.mainReads
		s.mainWrites += bs.mainWrites
		s.hReads += bs.hReads
		s.hWrites += bs.hWrites
		s.mainAccess = s.mainAccess || bs.mainAccess
		s.hAccess = s.hAccess || bs.hAccess
		s.mainPlain = s.mainPlain || bs.mainPlain
		s.hPlain = s.hPlain || bs.hPlain
		s.hChanging = s.hChanging || bs.hChanging
		s.mainUnprotected = s.mainUnprotected || bs.mainUnprotected
		if s.mainSite == "" {
			s.mainSite = bs.mainSite
		}
		if s.hSite == "" {
			s.hSite = bs.hSite
		}
	}
}

// classify renders the accumulated evidence into sorted per-address
// verdicts. Only addresses touched by both sides appear: an address
// one side never sees cannot race.
func (a *accumulator) classify() []AddrReport {
	var out []AddrReport
	for addr, s := range a.states {
		if !s.mainAccess || !s.hAccess {
			continue
		}
		rep := AddrReport{
			Addr:          addr,
			MainReads:     s.mainReads,
			MainWrites:    s.mainWrites,
			HandlerReads:  s.hReads,
			HandlerWrites: s.hWrites,
			MainSite:      s.mainSite,
			HandlerSite:   s.hSite,
		}
		switch {
		case s.mainWrites == 0 && s.hWrites == 0:
			rep.Class = ClassReadShared
		case s.hWrites == 0:
			rep.Class = ClassObserved
		case !s.mainPlain && !s.hPlain:
			rep.Class = ClassAtomic
		case !s.hChanging:
			rep.Class = ClassSameValue
		case !s.mainUnprotected:
			rep.Class = ClassProtected
		default:
			rep.Class = ClassRacy
		}
		out = append(out, rep)
	}
	slices.SortFunc(out, func(x, y AddrReport) int { return cmp.Compare(x.Addr, y.Addr) })
	return out
}
