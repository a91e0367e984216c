package engine

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Engine bundles the three layers of the experiment engine: the worker
// pool (sharding), the memoization cache (module/baseline reuse) and
// the optional incremental result store (skip-hash persistence).
type Engine struct {
	Pool  *Pool
	Cache *Cache
	// Store, when non-nil, persists sweep cells keyed by content hash
	// so unchanged cells are skipped on re-runs.
	Store *Store
	// SanitizeOnMiss routes cache-miss compilations through the
	// translation-validation sanitizer (stage checks on every pass)
	// instead of the plain pipeline. Cache hits are unaffected, so the
	// cost is paid once per distinct (workload, scale, config) cell.
	SanitizeOnMiss bool
	// Obs, when enabled, receives engine-level telemetry: cache
	// hit/miss instants and counters. Attach it via AttachObs so the
	// cache observer is wired as well.
	Obs *obs.Scope
	// Tier selects the VM execution tier for every cell the engine
	// runs (interpreter by default). It is folded into compile cache
	// keys, so one engine can host both tiers without aliasing.
	Tier vm.Tier
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
// GOMAXPROCS), a default-capacity cache and no store.
func New(workers int) *Engine {
	return &Engine{Pool: NewPool(workers), Cache: NewCache(DefaultCacheCap)}
}

// Serial returns a single-worker engine — the provably deterministic
// configuration whose output is byte-identical to the legacy serial
// pipeline.
func Serial() *Engine { return New(1) }

// Hash folds the printed forms of parts into a stable content-hash
// string, used as the skip-hash of store cells.
func Hash(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x1f", p)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// CellDo runs one store-aware sweep cell: when e has a store holding
// key with a matching input hash, the stored result is decoded and
// compute is skipped (skipped=true); otherwise compute runs and its
// result is recorded. Engines without a store always compute.
func CellDo[T any](e *Engine, key, hash string, compute func() (T, error)) (out T, skipped bool, err error) {
	if e != nil && e.Store != nil && e.Store.Lookup(key, hash, &out) {
		return out, true, nil
	}
	out, err = compute()
	if err == nil && e != nil && e.Store != nil {
		err = e.Store.Put(key, hash, out)
	}
	return out, false, err
}
