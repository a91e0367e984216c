package engine

import "repro/internal/obs"

// Engine bundles the two layers of the experiment engine: the worker
// pool (sharding) and the in-process memoization cache (module and
// baseline reuse).
type Engine struct {
	Pool  *Pool
	Cache *Cache
	// Obs, when enabled, receives engine-level telemetry: cache
	// hit/miss instants and counters. Attach it via AttachObs so the
	// cache observer is wired as well.
	Obs *obs.Scope
}

// AttachObs points the engine (and its cache) at an observability
// scope. Cache lookups then emit "engine" hit/miss instants on the
// scope's tick clock plus engine/cache_{hit,miss} counters.
func (e *Engine) AttachObs(scope *obs.Scope) {
	e.Obs = scope
	if !scope.Enabled() || e.Cache == nil {
		return
	}
	e.Cache.Observer = func(key string, hit bool) {
		name, counter := "cache-miss", "engine/cache_miss"
		if hit {
			name, counter = "cache-hit", "engine/cache_hit"
		}
		scope.Count(counter, 1)
		scope.Instant("engine", name, 0, scope.Tick(), obs.S("key", key))
	}
}

// New returns an engine with the given worker count (<= 0 selects
// GOMAXPROCS) and a default-capacity cache.
func New(workers int) *Engine {
	return &Engine{Pool: NewPool(workers), Cache: NewCache(DefaultCacheCap)}
}

// Serial returns a single-worker engine — the provably deterministic
// configuration whose output is byte-identical to the legacy serial
// pipeline.
func Serial() *Engine { return New(1) }
