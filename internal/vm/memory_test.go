package vm

// Memory grown on first touch: a VM allocates a small prefix of its
// logical memory and grows it on the first access past the prefix.
// These tests pin the logical view on both tiers, superblock path
// included, against a reference VM that allocates the whole memory up
// front, as every VM did before memory grew on demand.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ci/fuzz"
	"repro/internal/ci/instrument"
	"repro/internal/ir"
)

// preallocate gives v the whole logical memory at once, the reference
// the growing VM must be indistinguishable from.
func preallocate(v *VM) { v.mem = make([]int64, v.memWords) }

// memRun is everything a run can show: return value, error text,
// statistics and the logical memory.
type memRun struct {
	ret   int64
	err   string
	stats Stats
	mem   []int64
}

func (r memRun) equal(o memRun) bool {
	return r.ret == o.ret && r.err == o.err && r.stats == o.stats && slices.Equal(r.mem, o.mem)
}

// runMem runs fn on a fresh VM for m, preallocated or growing; setup,
// when non-nil, prepares the thread before the run.
func runMem(m *ir.Module, tier Tier, full bool, setup func(*Thread), fn string, args ...int64) memRun {
	v := newVM(m, nil, 1, tier)
	v.LimitInstrs = 50_000_000
	if full {
		preallocate(v)
	}
	th := v.NewThread(0)
	if setup != nil {
		setup(th)
	}
	rv, err := th.Run(fn, args...)
	r := memRun{ret: rv, stats: th.Stats, mem: v.Memory()}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// memLoopSrc is a counted loop the compiled tier runs as one
// superblock: for k < %n it adds mem[%addr+k] to the result and then
// stores k+1 there.
const memLoopSrc = `
mem 4096
func @main(%addr, %n) {
entry:
  %k = mov 0
  %s = mov 0
  jmp head
head:
  %c = lt %k, %n
  br %c, body, exit
body:
  %a = add %addr, %k
  %v = load %a, 0
  %s = add %s, %v
  %w = add %k, 1
  store %a, 0, %w
  %k = add %k, 1
  jmp head
exit:
  ret %s
}
`

func TestMemoryGrowsOnFirstTouch(t *testing.T) {
	const words = 4096
	fault := func(addr int64) string {
		return fmt.Sprintf("vm: memory access out of bounds: address %d (mem size %d)", addr, words)
	}
	for _, tc := range []struct {
		name    string
		addr, n int64
		err     string
		lo, hi  int64 // the words the run writes, mem[k] = k-lo+1
	}{
		{name: "untouched high words read 0", addr: 4000, n: 96, lo: 4000, hi: 4096},
		{name: "store at MemWords-1 succeeds", addr: words - 1, n: 1, lo: words - 1, hi: words},
		{name: "a walk over all memory grows it inside the loop", addr: 0, n: words, lo: 0, hi: words},
		{name: "address MemWords faults", addr: words - 6, n: 10, err: fault(words), lo: words - 6, hi: words},
		{name: "a negative address faults", addr: -1, n: 1, err: fault(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachTier(t, func(t *testing.T, tier Tier) {
				m := ir.MustParse(memLoopSrc)
				if n, _ := Superblocks(m); n != 1 {
					t.Fatalf("Superblocks = %d, want the loop to be one", n)
				}
				got := runMem(m, tier, false, nil, "main", tc.addr, tc.n)
				if got.err != tc.err {
					t.Errorf("err = %q, want %q", got.err, tc.err)
				}
				if got.ret != 0 {
					t.Errorf("returned %d, want 0: every word read was untouched", got.ret)
				}
				want := make([]int64, words)
				for k := tc.lo; k < tc.hi; k++ {
					want[k] = k - tc.lo + 1
				}
				if !slices.Equal(got.mem, want) {
					t.Errorf("final memory differs from the words the loop wrote")
				}
				if ref := runMem(m, tier, true, nil, "main", tc.addr, tc.n); !got.equal(ref) {
					t.Errorf("growing VM differs from the preallocated one:\n grow %+v\n full %+v",
						got.stats, ref.stats)
				}
			})
		})
	}
}

// A handler that writes the top word of memory fires in the middle of
// a loop nest whose inner loop is a superblock with the memory slice
// cached: the write grows memory under the running loop, which must
// keep working on the grown slice.
func TestMemoryGrowsUnderHandlerMidLoop(t *testing.T) {
	const src = `
mem 8192
func @handler() {
entry:
  %one = mov 1
  %o = aadd _, 8191, %one
  ret %o
}
func @main(%n) {
entry:
  %i = mov 0
  jmp outer
outer:
  %c = lt %i, %n
  br %c, fill, exit
fill:
  %j = mov 0
  jmp inner
inner:
  %d = lt %j, 8
  br %d, ibody, onext
ibody:
  %v = load %j, 0
  %v = add %v, 1
  store %j, 0, %v
  %j = add %j, 1
  jmp inner
onext:
  %i = add %i, 1
  jmp outer
exit:
  %t = load _, 8191
  ret %t
}
`
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(src)
		b := m.FuncByName("main").BlockByName("onext")
		b.Instrs = append(b.Instrs, ir.ProbeInstr(ir.ProbeInfo{Kind: ir.ProbeIR, Inc: 50, IndVar: ir.NoReg, Base: ir.NoReg}))
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}
		if n, _ := Superblocks(m); n != 1 {
			t.Fatalf("Superblocks = %d, want the inner loop to be one", n)
		}
		var fires int64
		withHandler := func(th *Thread) {
			th.RT.RegisterCI(200, func(uint64) {
				fires++
				if _, err := th.CallHandler("handler"); err != nil {
					t.Errorf("CallHandler: %v", err)
				}
			})
		}
		got := runMem(m, tier, false, withHandler, "main", 100)
		if got.err != "" {
			t.Fatal(got.err)
		}
		if fires == 0 || got.ret != fires || got.mem[8191] != fires {
			t.Errorf("handler fired %d times; main read %d and memory holds %d at the top",
				fires, got.ret, got.mem[8191])
		}
		for j := 0; j < 8; j++ {
			if got.mem[j] != 100 {
				t.Errorf("mem[%d] = %d, want 100", j, got.mem[j])
			}
		}
		if ref := runMem(m, tier, true, withHandler, "main", 100); !got.equal(ref) {
			t.Errorf("growing VM differs from the preallocated one:\n grow %+v\n full %+v", got.stats, ref.stats)
		}
	})
}

// Over the fuzz corpus, plain and CI-instrumented, with a generated
// handler (which writes above the main region) fired from IR, a VM
// whose memory grows on first touch must give the same statistics,
// return value, error and final memory as one that preallocates it.
func TestGrowingMemoryMatchesPreallocated(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for seed := 1; seed <= seeds; seed++ {
		src := fuzz.Generate(uint64(seed), fuzz.Options{
			MaxDepth: 2, MaxStmts: 4, MaxFuncs: 2, WithExterns: seed%5 == 0, WithHandler: seed%2 == 0,
		})
		prog := src.Clone()
		if _, err := instrument.Instrument(prog, instrument.Options{
			Design:   instrument.CI,
			Analysis: analysis.Options{ProbeInterval: 250},
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		withHandler := func(th *Thread) {
			th.RT.RegisterCI(400, func(delta uint64) {
				if th.VM.code.mod.FuncByName("handler") == nil {
					return
				}
				if _, err := th.CallHandler("handler", int64(delta)); err != nil {
					t.Errorf("seed %d: handler: %v", seed, err)
				}
			})
		}
		for _, m := range []*ir.Module{src, prog} {
			for _, tier := range []Tier{TierInterpreter, TierCompiled} {
				arg := int64(seed % 4096)
				got := runMem(m, tier, false, withHandler, "main", arg)
				ref := runMem(m, tier, true, withHandler, "main", arg)
				if !got.equal(ref) {
					t.Errorf("seed %d %s: growing VM differs from the preallocated one:\n grow ret=%d err=%q %+v\n full ret=%d err=%q %+v",
						seed, tier, got.ret, got.err, got.stats, ref.ret, ref.err, ref.stats)
				}
			}
		}
	}
}
