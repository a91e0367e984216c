package engine_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Map must return results in input order regardless of worker count,
// with errors landing in the slot of the input that produced them.
func TestMapOrderAndErrorSlots(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := engine.NewPool(workers)
		out, errs := engine.Map(p, 20, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i * i, nil
		})
		if len(out) != 20 || len(errs) != 20 {
			t.Fatalf("workers=%d: lengths %d/%d", workers, len(out), len(errs))
		}
		for i := range out {
			if i == 7 || i == 13 {
				if errs[i] == nil {
					t.Errorf("workers=%d: slot %d lost its error", workers, i)
				}
				continue
			}
			if errs[i] != nil {
				t.Errorf("workers=%d: slot %d unexpected error %v", workers, i, errs[i])
			}
			if out[i] != i*i {
				t.Errorf("workers=%d: slot %d = %d, want %d", workers, i, out[i], i*i)
			}
		}
		if err := engine.FirstError(errs); err == nil {
			t.Errorf("workers=%d: FirstError missed the failures", workers)
		}
	}
}

// A single-worker pool must execute cells in input order on the calling
// goroutine — the property that makes workers=1 byte-identical to the
// legacy serial loop.
func TestMapSerialExecutionOrder(t *testing.T) {
	p := engine.NewPool(1)
	var seen []int
	_, errs := engine.Map(p, 10, func(i int) (struct{}, error) {
		seen = append(seen, i) // no lock: must run on one goroutine
		return struct{}{}, nil
	})
	if err := engine.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial pool ran out of order: %v", seen)
		}
	}
}

// entries counts the cache's completed entries.
func entries(c *engine.Cache) int {
	n := 0
	c.Range(func(string, any) { n++ })
	return n
}

// A hit builds nothing: three lookups of one key run its build once and
// leave one entry.
func TestCacheHitMissAccounting(t *testing.T) {
	c := engine.NewCache(8)
	builds := 0
	build := func() (any, error) { builds++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Get("k", build)
		if err != nil || v.(int) != 42 {
			t.Fatalf("Get = %v, %v", v, err)
		}
	}
	if builds != 1 {
		t.Errorf("build ran %d times, want 1", builds)
	}
	if n := entries(c); n != 1 {
		t.Errorf("entries = %d, want 1", n)
	}
}

// Over-capacity inserts must evict the least recently used entry, and a
// later lookup of the victim must rebuild it.
func TestCacheEvictionUnderCap(t *testing.T) {
	c := engine.NewCache(2)
	builds := map[string]int{}
	get := func(key string) {
		if _, err := c.Get(key, func() (any, error) { builds[key]++; return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now LRU
	get("c") // evicts b
	if n := entries(c); n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	get("a") // must still be resident
	get("b") // must rebuild
	if builds["a"] != 1 || builds["b"] != 2 || builds["c"] != 1 {
		t.Errorf("builds = %v, want a:1 b:2 c:1", builds)
	}
}

// Build errors must not be cached: the next lookup retries.
func TestCacheErrorsNotCached(t *testing.T) {
	c := engine.NewCache(8)
	builds := 0
	fail := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.Get("k", func() (any, error) { builds++; return nil, fail }); !errors.Is(err, fail) {
			t.Fatalf("Get err = %v", err)
		}
	}
	if builds != 2 {
		t.Errorf("failed build ran %d times, want 2 (no caching of errors)", builds)
	}
	if n := entries(c); n != 0 {
		t.Errorf("entries = %d after failures, want 0", n)
	}
	if _, err := c.Get("k", func() (any, error) { return 1, nil }); err != nil {
		t.Errorf("recovery Get failed: %v", err)
	}
}

// Concurrent lookups of one key share a single in-flight build
// (per-key singleflight): the entry is published under the lock before
// the build runs, so racing callers wait on it instead of rebuilding.
func TestCacheSingleflight(t *testing.T) {
	c := engine.NewCache(8)
	var builds atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.Get("shared", func() (any, error) {
				builds.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return "val", nil
			})
			if err != nil || v.(string) != "val" {
				t.Errorf("Get = %v, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times under concurrency, want 1", n)
	}
}

// The copy-on-write guard: a full VM run — probes firing, CI handlers
// charging cycles, 8 threads sharing memory — must never mutate a cached
// instrumented module, and the fingerprint must prove it.
func TestGuardedModuleSurvivesVMRuns(t *testing.T) {
	wl := workloads.ByName("histogram")
	prog, err := core.Compile(wl.Build(1),
		core.WithDesign(instrument.CI), core.WithProbeInterval(250))
	if err != nil {
		t.Fatal(err)
	}
	g := engine.GuardModule(prog.Mod)

	machine := vm.New(prog.Mod, nil, 1)
	th := machine.NewThread(0)
	th.RT.IRPerCycle = 1
	th.RT.RegisterCI(5000, func(uint64) { th.Charge(25) })
	if _, err := th.Run("main", 0); err != nil {
		t.Fatal(err)
	}
	machine8 := vm.New(prog.Mod, nil, 8)
	for id := 0; id < 8; id++ {
		if _, err := machine8.NewThread(id).Run("main", int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Verify(); err != nil {
		t.Errorf("VM runs mutated the cached module: %v", err)
	}
}

// ...and when a module IS mutated behind the cache's back, Verify says so.
func TestGuardDetectsMutation(t *testing.T) {
	wl := workloads.ByName("histogram")
	m := wl.Build(1)
	g := engine.GuardModule(m)
	if err := g.Verify(); err != nil {
		t.Fatalf("fresh guard: %v", err)
	}
	m.Funcs[0].Name = "mutated"
	if err := g.Verify(); err == nil {
		t.Error("Verify missed a renamed function")
	}
	m.Funcs[0].Name = "main"
	if err := g.Verify(); err != nil {
		t.Fatalf("restoring the module should restore the fingerprint: %v", err)
	}
	m.Funcs[0].Blocks[0].Instrs = m.Funcs[0].Blocks[0].Instrs[1:]
	if err := g.Verify(); err == nil {
		t.Error("Verify missed a dropped instruction")
	}
}

// Sharding must deliver real wall-clock speedup on multi-core hosts.
// The container this repo usually builds in has a single CPU, where no
// speedup is physically possible — the test then skips; run it on a
// >=4-core machine to check the engine's headline claim.
func TestPoolSpeedupMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("NumCPU = %d; parallel speedup needs >= 4 cores", runtime.NumCPU())
	}
	work := func(i int) (int64, error) {
		var acc int64
		for j := int64(0); j < 60_000_000; j++ {
			acc += j ^ (acc >> 3)
		}
		return acc, nil
	}
	const cells = 16
	time1 := func(workers int) time.Duration {
		start := time.Now()
		_, errs := engine.Map(engine.NewPool(workers), cells, work)
		if err := engine.FirstError(errs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := time1(1)
	parallel := time1(runtime.NumCPU())
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, parallel %v, speedup %.1fx on %d CPUs", serial, parallel, speedup, runtime.NumCPU())
	if speedup < 2 {
		t.Errorf("speedup %.2fx < 2x on %d CPUs", speedup, runtime.NumCPU())
	}
}
