package sanitize_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ci/fuzz"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sanitize"
	"repro/internal/vm"
)

// The compiled tier must agree with the interpreter bit for bit —
// store stream, return value, final memory, fire counts and full VM
// statistics — over at least 500 seeded fuzz programs, instrumented
// under each of the four oracle designs. This is the tier-differential
// twin of TestOracleFourDesignsOver500Programs, and it is the headline
// gate on the compiled tier: the superinstruction fuser and the
// specialized probe path have to preserve exact cycle accounting, not
// just memory effects.
func TestTierOracleFourDesignsOver500Programs(t *testing.T) {
	total := 500
	if testing.Short() {
		total = 60
	}
	const chunk = 25
	for lo := 1; lo <= total; lo += chunk {
		lo := lo
		hi := min(lo+chunk-1, total)
		t.Run(fmt.Sprintf("seeds%d-%d", lo, hi), func(t *testing.T) {
			t.Parallel()
			for seed := lo; seed <= hi; seed++ {
				src := fuzz.Generate(uint64(seed), fuzz.Options{
					MaxDepth: 2, MaxStmts: 4, MaxFuncs: 2, WithExterns: seed%5 == 0,
				})
				eo := sanitize.ExecOptions{
					Args:        []int64{int64(seed % 4096)},
					LimitInstrs: 40_000_000,
				}
				// The uninstrumented program first (pure fusion, no
				// probes), then each design's instrumented form (adds
				// every probe kind to the mix).
				if err := sanitize.DiffTiers(src, eo); err != nil {
					t.Errorf("seed %d source: %v", seed, err)
				}
				for _, d := range oracleDesigns {
					prog, err := core.Compile(src, core.WithDesign(d), core.WithProbeInterval(250))
					if err != nil {
						t.Fatalf("seed %d %v: %v", seed, d, err)
					}
					if err := sanitize.DiffTiers(prog.Mod, eo); err != nil {
						t.Errorf("seed %d %v: %v", seed, d, err)
					}
				}
			}
		})
	}
}

// A cycle-only miscompile — memory, control flow and return value all
// agree, only the virtual clock drifts — must be caught by the tier
// oracle's stat-parity check. vm.MiscompileForTest plants exactly that
// bug: fused cmp+br epilogues skip their terminator cycle charge. The
// reproducer pinned under testdata/repro/ is the minimal program that
// shows it (its header records how it was shrunk): it must hold a
// fused cmp+br pair, drift under the planted bug and be clean without
// it.
func TestTierCycleDriftShrinksToPinnedRepro(t *testing.T) {
	repros, err := sanitize.LoadRepros(filepath.Join("testdata", "repro"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned *ir.Module
	for _, rp := range repros {
		if rp.Name == "tier-cycle-drift" {
			pinned = rp.Mod
		}
	}
	if pinned == nil {
		t.Fatal("no pinned tier-cycle-drift reproducer under testdata/repro")
	}
	if cb, _, _ := vm.FusiblePairs(pinned); cb == 0 {
		t.Errorf("pinned reproducer holds no fused cmp+br pair, so the drift it shows is not the planted one\n%s", pinned)
	}
	eo := sanitize.ExecOptions{Args: []int64{29}, LimitInstrs: 1_000_000}
	if err := sanitize.DiffTiers(pinned, eo); err != nil {
		t.Errorf("pinned reproducer diverges without the planted bug: %v", err)
	}

	vm.MiscompileForTest = true
	defer func() { vm.MiscompileForTest = false }()
	err = sanitize.DiffTiers(pinned, eo)
	var div *sanitize.Divergence
	if !errors.As(err, &div) {
		t.Fatalf("planted cycle drift: err = %v, want *Divergence", err)
	}
	if div.Stage != "tier" || !strings.Contains(div.Detail, "stats drift") {
		t.Fatalf("divergence = %+v, want a tier-stage stats drift (memory agrees, cycles do not)", div)
	}
}

// cycleSpinSrc counts loop trips until the cycle counter passes a
// deadline. Its loop head fuses the compare into the branch, so under
// MiscompileForTest the compiled tier charges each trip a cycle less
// and needs more trips, and more instructions, to reach the deadline.
const cycleSpinSrc = `
mem 8
func @main(%n) {
entry:
  %i = mov 0
  jmp head
head:
  %t = rdcyc
  %i = add %i, 1
  %c = lt %t, 10000
  br %c, head, exit
exit:
  ret %i
}
`

// A compiled leg that exhausts a step budget the interpreter finished
// under is a tier divergence that names the overrun, not an
// inconclusive run: the tiers count instructions alike.
func TestTierBudgetOverrunIsDivergence(t *testing.T) {
	src := ir.MustParse(cycleSpinSrc)
	eo := sanitize.ExecOptions{LimitInstrs: 3_800}
	if err := sanitize.DiffTiers(src, eo); err != nil {
		t.Fatalf("without a planted drift: %v", err)
	}
	vm.MiscompileForTest = true
	defer func() { vm.MiscompileForTest = false }()
	err := sanitize.DiffTiers(src, eo)
	var div *sanitize.Divergence
	if !errors.As(err, &div) || errors.Is(err, sanitize.ErrInconclusive) {
		t.Fatalf("compiled leg over the budget: err = %v, want a *Divergence", err)
	}
	if div.Stage != "tier" || !strings.Contains(div.Detail, "step budget of 3800") {
		t.Errorf("divergence = %+v, want a tier-stage divergence naming the budget", div)
	}
}

// Every pinned reproducer must also agree across tiers (with no
// planted bug), both raw and instrumented — the tier oracle's
// regression anchor, mirroring TestPinnedReprosStayFixed.
func TestPinnedReprosTierParity(t *testing.T) {
	repros, err := sanitize.LoadRepros(filepath.Join("testdata", "repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) == 0 {
		t.Fatal("no pinned reproducers found under testdata/repro")
	}
	for _, rp := range repros {
		rp := rp
		t.Run(rp.Name, func(t *testing.T) {
			t.Parallel()
			eo := sanitize.ExecOptions{LimitInstrs: 20_000_000}
			if err := sanitize.DiffTiers(rp.Mod, eo); err != nil {
				t.Errorf("source: %v", err)
			}
			for _, d := range oracleDesigns {
				prog, err := core.Compile(rp.Mod, core.WithDesign(d), core.WithProbeInterval(60))
				if err != nil {
					t.Fatalf("%v: %v", d, err)
				}
				if err := sanitize.DiffTiers(prog.Mod, eo); err != nil {
					t.Errorf("%v: %v", d, err)
				}
			}
		})
	}
}

// addressModeSrc is a loop whose load and store take their address
// from the add just before them, the shape of every memory access in
// the Table-7 loop bodies. The fuzz corpus never produces it (its
// addresses are `and` results).
const addressModeSrc = `
mem 256
func @main(%n) {
entry:
  %b = and %n, 127
  %base = mov 64
  %i = mov 0
  %s = mov 0
  jmp head
head:
  %c = lt %i, %b
  br %c, body, exit
body:
  %a = add %base, %i
  %v = load %a, 0
  %s = add %s, %v
  %s = add %s, %i
  %p = add %base, %i
  store %p, 1, %s
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`

// The tier oracle must cover the compiled tier's address-mode µops,
// which the fuzz corpus above never emits: a loop built of them agrees
// across tiers raw and under each oracle design.
func TestTierOracleCoversAddressModeOps(t *testing.T) {
	src := ir.MustParse(addressModeSrc)
	if _, addrOps := vm.Superblocks(src); addrOps != 2 {
		t.Fatalf("address-mode µops = %d, want the load and the store fused", addrOps)
	}
	eo := sanitize.ExecOptions{LimitInstrs: 20_000_000}
	if err := sanitize.DiffTiers(src, eo); err != nil {
		t.Errorf("source: %v", err)
	}
	for _, d := range oracleDesigns {
		prog, err := core.Compile(src, core.WithDesign(d), core.WithProbeInterval(60))
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if err := sanitize.DiffTiers(prog.Mod, eo); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}
