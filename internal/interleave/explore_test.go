package interleave

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ci/fuzz"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

var update = flag.Bool("update", false, "rewrite golden files")

// quickOpts keeps exploration small for corpus-scale tests.
func quickOpts() Options {
	return Options{ContextBound: 1, MaxSchedules: 64, LimitInstrs: 2_000_000}
}

// reproOpts is the configuration minimal reproducers are shrunk and
// re-verified under: a dense probe interval keeps straight-line
// candidates probeable, so the reduction is free to drop every loop.
func reproOpts() Options {
	o := quickOpts()
	o.MaxSchedules = 16
	o.ProbeIntervalIR = 2
	return o
}

func TestFuzzCorpusWithHandlerIsClean(t *testing.T) {
	// The generated handler confines writes to its private region, so
	// every seed must verify clean: no shared-address race, and by
	// construction no main-visible effect, hence full commutativity.
	for seed := uint64(1); seed <= 8; seed++ {
		m := fuzz.Generate(seed, fuzz.Options{WithHandler: true})
		rep, err := VerifyHandlers(m, engine.Serial(), quickOpts())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Err(); err != nil {
			var buf bytes.Buffer
			rep.WriteTable(&buf)
			t.Errorf("seed %d: %v\n%s", seed, err, buf.String())
		}
	}
}

// injectRace plants a lost-update hazard into a generated module: the
// handler plain-stores its changing IR-delta argument into a shared
// word main read-modify-writes. Used by the shrink and determinism
// tests as a realistic "bug a fuzz run would catch".
func injectRace(m *ir.Module) {
	h := m.FuncByName("handler")
	// store _, 40, %p0  (p0 = the IR delta, different every fire)
	h.Blocks[0].Instrs = append([]ir.Instr{
		{Op: ir.OpStore, A: ir.NoReg, Imm: 40, B: 0},
	}, h.Blocks[0].Instrs...)
	mf := m.FuncByName("main")
	// Read-modify-write the same word at the top of main's entry block.
	r := ir.Reg(mf.NumRegs)
	mf.NumRegs++
	pre := []ir.Instr{
		{Op: ir.OpLoad, Dst: r, A: ir.NoReg, Imm: 40},
		{Op: ir.OpAdd, Dst: r, A: r, Imm: 1, BImm: true},
		{Op: ir.OpStore, A: ir.NoReg, Imm: 40, B: r},
	}
	mf.Blocks[0].Instrs = append(pre, mf.Blocks[0].Instrs...)
}

func TestInjectedRaceIsDetected(t *testing.T) {
	m := fuzz.Generate(3, fuzz.Options{WithHandler: true})
	injectRace(m)
	if err := m.Verify(); err != nil {
		t.Fatalf("injected module invalid: %v", err)
	}
	rep, err := VerifyHandlers(m, engine.Serial(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := classOf(t, rep, 40); got != ClassRacy {
		t.Fatalf("injected word class = %v, want RACY", got)
	}
	if rep.Err() == nil {
		t.Fatal("injected race not reported by Err")
	}
}

func TestShrinkRacePinsMinimalReproducer(t *testing.T) {
	if testing.Short() {
		t.Skip("ddmin reduction is slow")
	}
	m := fuzz.Generate(3, fuzz.Options{WithHandler: true})
	injectRace(m)
	opts := reproOpts()
	red := ShrinkRace(m, engine.Serial(), opts)

	blocks := 0
	for _, f := range red.Funcs {
		blocks += len(f.Blocks)
	}
	if blocks > 3 {
		t.Errorf("reduced module has %d blocks, want <= 3:\n%s", blocks, red.String())
	}
	// The reduction must preserve the failure...
	rep, err := VerifyHandlers(red, engine.Serial(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatal("reduced module no longer races")
	}
	// ...and survive a save/load round trip.
	dir := t.TempDir()
	if _, err := sanitize.SaveRepro(dir, "race_roundtrip", red,
		"interleave: injected lost-update, shrunk by ShrinkRace"); err != nil {
		t.Fatal(err)
	}
	back, err := sanitize.LoadRepros(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("LoadRepros returned %d modules", len(back))
	}
}

// TestPinnedReproducersStillRace auto-loads every module committed
// under testdata/repro/ and asserts the verifier still fails it — the
// inverse polarity of sanitize's pinned regressions: these are
// *supposed* to race, and a verifier change that stops seeing them is
// a detection regression.
func TestPinnedReproducersStillRace(t *testing.T) {
	dir := filepath.Join("testdata", "repro")
	mods, err := sanitize.LoadRepros(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) == 0 {
		t.Fatal("no pinned reproducers under testdata/repro")
	}
	for _, r := range mods {
		rep, err := VerifyHandlers(r.Mod, engine.Serial(), reproOpts())
		if err != nil {
			t.Errorf("repro %s: %v", r.Name, err)
			continue
		}
		if rep.Err() == nil {
			t.Errorf("repro %s: pinned race no longer detected", r.Name)
		}
	}
}

// TestPinInjectedRaceRepro regenerates the committed reproducer. Run
// with PIN_INTERLEAVE_REPRO=1 after a verifier change that invalidates
// the pinned module (and re-review the result — it must stay racy).
func TestPinInjectedRaceRepro(t *testing.T) {
	if os.Getenv("PIN_INTERLEAVE_REPRO") == "" {
		t.Skip("set PIN_INTERLEAVE_REPRO=1 to regenerate testdata/repro")
	}
	m := fuzz.Generate(3, fuzz.Options{WithHandler: true})
	injectRace(m)
	red := ShrinkRace(m, engine.Serial(), reproOpts())
	path, err := sanitize.SaveRepro(filepath.Join("testdata", "repro"), "lost_update", red,
		"interleave: lost-update race, handler plain-stores a word main RMWs.\n"+
			"Injected into fuzz seed 3 (WithHandler) and shrunk by ShrinkRace;\n"+
			"verified under reproOpts (ProbeIntervalIR=2, bound 1).\n"+
			"Regenerate with PIN_INTERLEAVE_REPRO=1 go test -run TestPinInjectedRaceRepro .")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pinned %s", path)
}

func TestExplorationDeterministicAcrossWorkers(t *testing.T) {
	// Byte-identical reports at any worker count: exploration shards
	// across the engine pool, but folding and comparison merge in
	// schedule index order. Run a module big enough to enumerate pairs.
	m := fuzz.Generate(5, fuzz.Options{WithHandler: true})
	injectRace(m)
	opts := Options{ContextBound: 2, MaxSchedules: 120, LimitInstrs: 2_000_000}

	render := func(eng *engine.Engine) string {
		rep, err := VerifyHandlers(m, eng, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(engine.Serial())
	for _, workers := range []int{2, 8} {
		eng := engine.New(workers)
		if got := render(eng); got != serial {
			t.Errorf("workers=%d report differs from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
				workers, serial, workers, got)
		}
	}
}

func TestRaceTableGolden(t *testing.T) {
	// Pin the cirun-facing table format byte-for-byte on a module
	// exercising several classes at once plus a non-commute finding.
	src := mainHead + `
  %one = mov 1
  %old = aadd _, 8, %one
  %v = load _, 4
  %v = add %v, 1
  store _, 4, %v
  %acc = add %acc, %v
  %acc = and %acc, 1023
  store _, 6, %acc
` + mainTail + `
func @handler(%ir) {
entry:
  %one = mov 1
  %o = aadd _, 8, %one
  store _, 4, %ir
  %p = load _, 6
  ret %p
}
`
	m := ir.MustParse(src)
	rep, err := VerifyHandlers(m, engine.Serial(), Options{MaxSchedules: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "racetable.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("race table drifted from golden (rerun with -update if intended):\ngot:\n%s\nwant:\n%s",
			buf.String(), want)
	}
}
