package vm

import (
	"errors"
	"testing"

	"repro/internal/ir"
)

// loopSrc runs forever; probed variants drive the CI runtime.
const loopSrc = `
mem 64
func @main(%n) {
entry:
  %i = mov 0
  jmp head
head:
  %i = add %i, 1
  store _, 3, %i
  %c = lt %i, %n
  br %c, head, exit
exit:
  ret %i
}
`

func TestWatchdogStepBudgetTyped(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(loopSrc)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 500
		th := v.NewThread(0)
		_, err := th.Run("main", 1_000_000)
		if !errors.Is(err, ErrStepBudget) {
			t.Fatalf("err = %v, want ErrStepBudget", err)
		}
	})
}

func TestWatchdogMemBoundsTyped(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		for _, src := range []string{
			"mem 8\nfunc @main() {\nentry:\n  %x = load _, 99\n  ret %x\n}\n",
			"mem 8\nfunc @main() {\nentry:\n  %x = mov 7\n  store _, -1, %x\n  ret %x\n}\n",
			"mem 8\nfunc @main() {\nentry:\n  %x = mov 7\n  %o = aadd _, 1000, %x\n  ret %o\n}\n",
		} {
			m := ir.MustParse(src)
			th := newVM(m, nil, 1, tier).NewThread(0)
			if _, err := th.Run("main"); !errors.Is(err, ErrMemFault) {
				t.Errorf("err = %v, want ErrMemFault\n%s", err, src)
			}
		}
	})
}

// instrumentLoop gives loopSrc a probe in the loop body so handlers
// actually fire.
func probedLoop(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.MustParse(loopSrc)
	b := m.FuncByName("main").BlockByName("head")
	b.Instrs = append(b.Instrs, ir.ProbeInstr(ir.ProbeInfo{Kind: ir.ProbeIR, Inc: 5, IndVar: ir.NoReg, Base: ir.NoReg}))
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWatchdogHandlerReentrancyTyped(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := probedLoop(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 100_000
		th := v.NewThread(0)
		var reentryErr error
		th.RT.RegisterCI(200, func(uint64) {
			if _, err := th.Run("main", 1); err != nil && reentryErr == nil {
				reentryErr = err
			}
		})
		if _, err := th.Run("main", 5000); err != nil {
			t.Fatalf("outer run failed: %v", err)
		}
		if !errors.Is(reentryErr, ErrHandlerReentrancy) {
			t.Fatalf("reentrant Run: err = %v, want ErrHandlerReentrancy", reentryErr)
		}
	})
}

func TestWatchdogHandlerOverrunTyped(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := probedLoop(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 1_000_000
		v.MaxHandlerCycles = 1000
		th := v.NewThread(0)
		th.RT.RegisterCI(200, func(uint64) { th.Charge(50_000) })
		_, err := th.Run("main", 100_000)
		if !errors.Is(err, ErrHandlerOverrun) {
			t.Fatalf("err = %v, want ErrHandlerOverrun", err)
		}
	})
}

func TestWatchdogOverrunDisabledByDefault(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := probedLoop(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 1_000_000
		th := v.NewThread(0)
		th.RT.RegisterCI(200, func(uint64) { th.Charge(50_000) })
		if _, err := th.Run("main", 2000); err != nil {
			t.Fatalf("MaxHandlerCycles=0 must not enforce a budget: %v", err)
		}
	})
}

func TestWatchdogHWHandlerGuards(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(loopSrc)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 1_000_000
		v.MaxHandlerCycles = 100
		var reentryErr error
		var th *Thread
		v.HW = &HWConfig{IntervalCycles: 5000, Handler: func(ht *Thread) {
			if _, err := th.Run("main", 1); err != nil && reentryErr == nil {
				reentryErr = err
			}
			ht.Charge(10_000)
		}}
		th = v.NewThread(0)
		_, err := th.Run("main", 200_000)
		if !errors.Is(err, ErrHandlerOverrun) {
			t.Fatalf("err = %v, want ErrHandlerOverrun", err)
		}
		if !errors.Is(reentryErr, ErrHandlerReentrancy) {
			t.Fatalf("reentrant Run from HW handler: err = %v, want ErrHandlerReentrancy", reentryErr)
		}
	})
}

func TestWatchdogCallDepthTyped(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
func @main(%n) {
entry:
  %r = call @main(%n)
  ret %r
}
`)
		th := newVM(m, nil, 1, tier).NewThread(0)
		if _, err := th.Run("main", 1); !errors.Is(err, ErrCallDepth) {
			t.Fatalf("err = %v, want ErrCallDepth", err)
		}
	})
}

// The store observer sees every committed write in order, with probes
// contributing nothing.
func TestOnStoreObserver(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := probedLoop(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 100_000
		th := v.NewThread(0)
		th.RT.RegisterCI(200, func(uint64) {})
		var n int64
		var lastVal int64
		th.OnStore = func(fn, block string, addr, val int64) {
			if fn != "main" || block != "head" || addr != 3 {
				t.Fatalf("OnStore(%q,%q,%d,%d) unexpected", fn, block, addr, val)
			}
			n++
			lastVal = val
		}
		rv, err := th.Run("main", 100)
		if err != nil {
			t.Fatal(err)
		}
		if n != 100 || lastVal != rv {
			t.Errorf("observed %d stores (last=%d), want 100 ending at %d", n, lastVal, rv)
		}
	})
}
