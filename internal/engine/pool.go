// Package engine is the parallel experiment engine behind the §5
// evaluation sweeps: a bounded worker pool that shards independent
// (workload × design × interval) cells across GOMAXPROCS, and an
// in-process memoization cache that reuses instrumented modules and
// baseline runs across cells.
//
// Every VM run is virtual-time deterministic (per-thread RNGs are
// seeded by thread id), so a cell's result is a pure function of its
// inputs and the engine merges shard results by input index: the output
// of a sweep is byte-identical at any worker count, and with a single
// worker the pool degenerates to the plain serial loop of the original
// pipeline.
package engine

import (
	"runtime"
	"sync"
)

// Pool is a bounded worker pool for sweep cells.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given concurrency; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Map evaluates f(0..n-1) on the pool and returns results and errors
// indexed by input position — a sorted merge of the shard outputs, so
// the caller sees input order regardless of completion order. A failed
// cell leaves its result slot zero and records its error; other cells
// are unaffected.
//
// With one worker the cells run in index order on the calling
// goroutine, reproducing the serial pipeline exactly.
func Map[R any](p *Pool, n int, f func(i int) (R, error)) ([]R, []error) {
	results := make([]R, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = f(i)
		}
		return results, errs
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errs
}

// FirstError returns the first non-nil error in errs, or nil.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
