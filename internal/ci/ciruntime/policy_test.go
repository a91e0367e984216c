package ciruntime

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Seeded gap corpus: a mix of on-time fires, mild lateness and hard
// overruns, scaled to the interval in force so both backoff and
// re-tightening paths are exercised.
func fuzzGaps(seed uint64, cur func() int64) func() int64 {
	rng := sim.NewRNG(seed)
	return func() int64 {
		c := cur()
		switch rng.Intn(4) {
		case 0:
			return c + rng.Intn(c/4+1) // on time
		case 1:
			return 2*c + rng.Intn(c+1) // borderline
		case 2:
			return 5 * c // hard overrun
		}
		return c/2 + rng.Intn(c+1) // early
	}
}

// aimdGolden pins AIMD interval trajectories as data: per config row
// and seed, the final interval, the overrun count and an FNV-1a hash of
// the 400 intervals after each fire. The rows were generated through
// the pre-QuantumPolicy adaptive API, whose controller the AIMD policy
// must keep reproducing bit for bit (that API mapped an OverrunFactor
// ≤ 1 to 2, hence the explicit 2 in the third row). `go test
// ./internal/ci/ciruntime -run TestAIMDTrajectoryMatchesLegacyAdaptive
// -update` regenerates the file.
const aimdGolden = "testdata/aimd_trajectories.golden"

var update = flag.Bool("update", false, "rewrite "+aimdGolden)

func aimdTrajectories() string {
	configs := []AIMD{
		{}, // documented defaults
		{OverrunFactor: 1.5, MaxBackoffMult: 4, TightenAfter: 2},
		{OverrunFactor: 2, MaxBackoffMult: 16, TightenAfter: 8},
		{OverrunFactor: 3},
		{MaxBackoffMult: 2, TightenAfter: 1},
	}
	const base = 1000
	var sb strings.Builder
	for ci, cfg := range configs {
		for seed := uint64(1); seed <= 8; seed++ {
			rt := New()
			id := rt.RegisterCI(base, func(uint64) {})
			p := cfg
			rt.SetPolicy(id, &p)
			now := int64(0)
			rt.ProbeIR(1<<30, now) // first fire: no meaningful gap

			h := fnv.New64a()
			var buf [8]byte
			next := fuzzGaps(seed, func() int64 { return rt.CurrentInterval(id) })
			for step := 0; step < 400; step++ {
				now += next()
				rt.ProbeIR(1<<30, now)
				binary.LittleEndian.PutUint64(buf[:], uint64(rt.CurrentInterval(id)))
				h.Write(buf[:])
			}
			fmt.Fprintf(&sb, "cfg=%d seed=%d final=%d overruns=%d hash=%016x\n",
				ci, seed, rt.CurrentInterval(id), rt.Overruns(id), h.Sum64())
		}
	}
	return sb.String()
}

func TestAIMDTrajectoryMatchesLegacyAdaptive(t *testing.T) {
	got := aimdTrajectories()
	if *update {
		if err := os.WriteFile(aimdGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(aimdGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("AIMD trajectories diverge from %s:\ngot:\n%s", aimdGolden, got)
	}
}

// Fixed is the identity policy: whatever the gaps, the interval stays
// put and nothing is classified as an overrun.
func TestFixedPolicyNeverMoves(t *testing.T) {
	rt := New()
	id := rt.RegisterCI(1000, func(uint64) {})
	rt.SetPolicy(id, Fixed{})
	now := int64(0)
	for i := 0; i < 20; i++ {
		now += 50_000
		rt.ProbeIR(1<<30, now)
	}
	if got := rt.CurrentInterval(id); got != 1000 {
		t.Errorf("Fixed policy moved the interval to %d", got)
	}
	if rt.Overruns(id) != 0 {
		t.Errorf("Fixed policy classified %d overruns", rt.Overruns(id))
	}
}

// The feedback controller must converge below base under systematic
// lateness (every gap overshoots the target by a constant handler
// cost), and must respect its floor.
func TestFeedbackPIDConvergesBelowBase(t *testing.T) {
	const base = 5000
	p := &FeedbackPID{}
	p.Reset(base)
	cur := int64(base)
	for i := 0; i < 20*32; i++ {
		gap := cur + 3000 // constant lateness
		next, _ := p.Observe(gap, cur)
		cur = next
	}
	if cur >= base {
		t.Errorf("interval %d did not converge below base %d under constant lateness", cur, base)
	}
	if floor := int64(0.25 * base); cur < floor {
		t.Errorf("interval %d fell through the MinFrac floor %d", cur, floor)
	}
}

// Two identical Observe sequences must produce identical trajectories
// — the determinism contract the experiment engine depends on.
func TestFeedbackPIDDeterministic(t *testing.T) {
	run := func() []int64 {
		p := &FeedbackPID{ClassOf: nil}
		p.Reset(5000)
		rng := sim.NewRNG(7)
		cur := int64(5000)
		var out []int64
		for i := 0; i < 500; i++ {
			gap := cur + rng.Intn(20000)
			next, _ := p.Observe(gap, cur)
			cur = next
			out = append(out, cur)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %d vs %d — FeedbackPID is not deterministic", i, a[i], b[i])
		}
	}
}

// The worst class's tail must drive the setpoint: a cheap majority
// class must not mask one expensive class.
func TestFeedbackPIDWorstClassDrives(t *testing.T) {
	const base = 5000
	trial := func(heavyLate int64) int64 {
		class := 0
		p := &FeedbackPID{ClassOf: func() int { return class }}
		p.Reset(base)
		cur := int64(base)
		for i := 0; i < 10*32; i++ {
			var gap int64
			if i%8 == 0 {
				class = 1
				gap = cur + heavyLate
			} else {
				class = 0
				gap = cur + 100
			}
			next, _ := p.Observe(gap, cur)
			cur = next
		}
		return cur
	}
	mild, heavy := trial(200), trial(20000)
	if heavy >= mild {
		t.Errorf("heavy-class interval %d not tighter than mild-class %d — worst class is not driving", heavy, mild)
	}
}

// SetPolicy(nil) removes adaptation but leaves the current interval in
// force.
func TestSetPolicyNilStopsAdaptation(t *testing.T) {
	rt := New()
	id := rt.RegisterCI(1000, func(uint64) {})
	rt.SetPolicy(id, &AIMD{})
	now := int64(0)
	rt.ProbeIR(1<<30, now)
	for i := 0; i < 3; i++ {
		now += 5 * rt.CurrentInterval(id)
		rt.ProbeIR(1<<30, now)
	}
	backed := rt.CurrentInterval(id)
	if backed == 1000 {
		t.Fatal("interval never backed off")
	}
	rt.SetPolicy(id, nil)
	for i := 0; i < 5; i++ {
		now += 10 * backed
		rt.ProbeIR(1<<30, now)
	}
	if got := rt.CurrentInterval(id); got != backed {
		t.Errorf("interval moved to %d after SetPolicy(nil), want frozen at %d", got, backed)
	}
}
