package engine

import (
	"fmt"
	"hash/fnv"

	"repro/internal/ir"
)

// GuardedModule pairs a module shared across sweep cells with an
// integrity fingerprint taken when it entered the cache. VM threads
// only read the module (each run gets private registers, memory and a
// CI runtime), so handing the same *ir.Module to many cells is safe —
// and Verify proves it: any cell that mutated a cached module changes
// its printed form and trips the fingerprint. Writers must instead
// clone (copy-on-write), which is what core.Compile already does.
type GuardedModule struct {
	Mod *ir.Module
	fp  uint64
}

// GuardModule fingerprints m and wraps it for shared, read-only use.
func GuardModule(m *ir.Module) *GuardedModule {
	return &GuardedModule{Mod: m, fp: moduleFingerprint(m)}
}

// Verify re-fingerprints the module and fails if it no longer matches
// the insert-time value — i.e. if some consumer wrote to the shared
// module instead of cloning it.
func (g *GuardedModule) Verify() error {
	if now := moduleFingerprint(g.Mod); now != g.fp {
		return fmt.Errorf("engine: cached module %q was mutated (fingerprint %x, was %x)",
			g.Mod.Name, now, g.fp)
	}
	return nil
}

// moduleFingerprint hashes the module's complete printed form —
// functions, blocks, instructions, probes, externs and memory size —
// into a 64-bit content fingerprint.
func moduleFingerprint(m *ir.Module) uint64 {
	h := fnv.New64a()
	h.Write([]byte(m.String()))
	return h.Sum64()
}
