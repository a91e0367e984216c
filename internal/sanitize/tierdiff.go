// Tier-differential oracle: the compiled VM tier promises bit-exact
// equivalence with the interpreter — same store stream, same return
// value, same final memory, same handler fire count and the same
// Stats, cycle for cycle. This file runs one module under both tiers
// and reports the first difference as a *Divergence (Stage "tier").
// Stat parity is deliberate and load-bearing: a cycle drift is a
// miscompile even when every memory effect agrees, because the whole
// point of the VM is its virtual clock.
package sanitize

import (
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// tierStoreEv is one observable write in a tier trace. Atomics are
// distinguished from plain stores so a tier that turned one into the
// other would diverge even when the committed value coincides.
type tierStoreEv struct {
	addr, val int64
	atomic    bool
}

// TierTrace is the observable behaviour the tier oracle compares: the
// ordered write stream, the return value, the final memory image, the
// CI handler fire count and the full VM statistics.
type TierTrace struct {
	stores []tierStoreEv
	Ret    int64
	Mem    []int64
	Fires  int64
	Stats  vm.Stats
}

// runTier executes m, which it only reads, under one tier and records
// its trace. Both tiers attach the same OnStore/OnAtomic observers,
// which the compiled tier's plain form checks on its memory ops, so
// the oracle compares the compiled code every unobserved run executes.
func runTier(m *ir.Module, tier vm.Tier, opts ExecOptions) (*TierTrace, error) {
	tr := &TierTrace{}
	th, hid, rv, err := execute(m, tier, opts, tier.String()+" tier", func(th *vm.Thread) {
		th.OnStore = func(fn, block string, addr, val int64) {
			tr.stores = append(tr.stores, tierStoreEv{addr, val, false})
		}
		th.OnAtomic = func(fn, block string, addr, old, add int64) {
			tr.stores = append(tr.stores, tierStoreEv{addr, old + add, true})
		}
	})
	if err != nil {
		return nil, err
	}
	tr.Ret = rv
	tr.Mem = th.VM.Memory()
	tr.Fires = th.RT.Fires(hid)
	tr.Stats = th.Stats
	return tr, nil
}

// DiffTiers runs m under the interpreter (the reference semantics) and
// the compiled tier and returns a *Divergence at the first observable
// difference, ErrInconclusive when the interpreter exhausts the step
// budget, or nil when the tiers agree bit for bit. A compiled leg that
// exhausts the budget the interpreter finished under is a divergence:
// the tiers count instructions alike, so it ran a different program.
func DiffTiers(m *ir.Module, opts ExecOptions) error {
	ref, err := runTier(m, vm.TierInterpreter, opts)
	if err != nil {
		return err
	}
	got, err := runTier(m, vm.TierCompiled, opts)
	if errors.Is(err, ErrInconclusive) {
		return tierDivergence(-1, "hit the step budget of %d instructions, interpreter finished in %d",
			opts.withDefaults().LimitInstrs, ref.Stats.Instrs)
	}
	if err != nil {
		return err
	}
	return diffTierTraces(ref, got)
}

// tierDivergence is a tier-stage *Divergence of the compiled leg.
func tierDivergence(step int, format string, args ...any) *Divergence {
	return &Divergence{Stage: "tier", Design: "compiled", Step: step,
		Detail: fmt.Sprintf(format, args...)}
}

// diffTierTraces compares a compiled-tier trace against the
// interpreter reference, most-localizing check first (store stream,
// then return value, memory, fire count, stats).
func diffTierTraces(ref, got *TierTrace) error {
	n := min(len(ref.stores), len(got.stores))
	for i := 0; i < n; i++ {
		if ref.stores[i] != got.stores[i] {
			return tierDivergence(i, "store %+v, interpreter stored %+v", got.stores[i], ref.stores[i])
		}
	}
	if len(got.stores) != len(ref.stores) {
		return tierDivergence(n, "made %d stores, interpreter made %d", len(got.stores), len(ref.stores))
	}
	if got.Ret != ref.Ret {
		return tierDivergence(-1, "returned %d, interpreter returned %d", got.Ret, ref.Ret)
	}
	if i := memDiff(got.Mem, ref.Mem); i >= 0 {
		return tierDivergence(-1, "final mem[%d] = %d, interpreter %d", i, wordAt(got.Mem, i), wordAt(ref.Mem, i))
	}
	if got.Fires != ref.Fires {
		return tierDivergence(-1, "handler fired %d times, interpreter %d", got.Fires, ref.Fires)
	}
	if got.Stats != ref.Stats {
		return tierDivergence(-1, "stats drift: compiled %+v, interpreter %+v", got.Stats, ref.Stats)
	}
	return nil
}
