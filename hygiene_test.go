package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// A model run is one goroutine with no host clock: its results are a
// pure function of its inputs. Host time belongs to benchmark/, and
// parallelism to sweep cells. A run's results are printed, never kept
// on disk where a later binary could serve them as its own. This test
// holds non-test code under internal/ and cmd/ to that, by syntax
// alone:
//
//   - no time.Now or time.Since, no global math/rand source, no
//     os.Getenv;
//   - no go statement outside goStmtAllowed;
//   - no file write (os.Create, os.CreateTemp, os.WriteFile,
//     os.OpenFile, os.Rename, os.MkdirAll) outside fileWriteAllowed;
//   - no sort.Slice or sort.SliceStable on the hot paths (hotPaths):
//     slices.SortFunc and slices.SortStableFunc take a typed
//     comparison and no reflection-based swapper;
//   - no fmt.Fprint* in internal/experiments outside fprintAllowed: a
//     figure returns a table, and one renderer prints every table;
//   - no tier pick (vm.TierCompiled, vm.TierInterpreter, core.WithTier)
//     outside tierPickAllowed: every other run takes the VM's default,
//     compiled tier, whose hooked form serves observed runs too.
//   - no core.Compile, core.CompileConfig or core.CompileText in
//     internal/experiments or internal/interleave (checkedCompileOnly):
//     every figure and the interleave verifier compile through
//     sanitize.CompileChecked, so every program a figure measures or
//     the verifier explores was stage-checked.
//   - no (*vm.VM).NewThread or write to a thread's RT.IRPerCycle in
//     internal/experiments: every figure runs through core's one run
//     primitive (core.RunThread, core.Calibrate), which sets up the
//     machine, the IR/cycle ratio and the handler once.
//   - no vm.New outside vmNewAllowed: vm.New pre-decodes its module
//     for one VM, so every other run builds its VM over a shared
//     vm.Code (core.Program.Code), which pre-decodes once per program.
//
// Each allow-list entry is "file:function" with its reason. The paper's
// multi-threaded figures need no entry: Figures 9 and 11 run one
// representative thread whose memory costs CostModel.MemContention
// scales by the thread count.
var goStmtAllowed = map[string]string{
	"internal/engine/pool.go:Map": "parallelism across independent sweep cells",
}

var fileWriteAllowed = map[string]string{
	"internal/obs/trace.go:WriteTraceFile":       "the -trace file a user asked for",
	"internal/cliflags/cliflags.go:StartProfile": "the -cpuprofile and -memprofile files a user asked for",
	"internal/sanitize/repro.go:SaveRepro":       "pins a shrunk reproducer as a test input under testdata/repro",
}

// fprintAllowed are the places in internal/experiments that print,
// each a file or "file:function".
var fprintAllowed = map[string]string{
	"internal/experiments/table.go":                "the renderer every figure prints through",
	"internal/experiments/fleet.go:PrintFleetPlan": "the fleet fault plan's debugging printout (ciexp fleetplan)",
}

// tierPickAllowed are the places that name a VM tier: the VM itself,
// the tier oracle whose reference leg is the interpreter, and the
// benchmark that measures both tiers.
var tierPickAllowed = []string{"internal/vm/", "internal/sanitize/", "benchmark/"}

// vmNewAllowed are the places that may build a VM over a code of its
// own: the VM itself, core, the oracles' one-off runs and the
// benchmark.
var vmNewAllowed = []string{"internal/vm/", "internal/core/", "internal/sanitize/", "benchmark/"}

// uncheckedCompiles are the core entry points that compile without the
// translation-validation stage checks.
var uncheckedCompiles = map[string]bool{"Compile": true, "CompileConfig": true, "CompileText": true}

// checkedCompileOnly are the packages that compile only through
// sanitize.CompileChecked.
var checkedCompileOnly = []string{"internal/experiments/", "internal/interleave/"}

// hotPaths are the packages between IR text and an instrumented module,
// and the fleet model's: the fleet, its overload controllers and the
// statistics its result pass reads.
var hotPaths = []string{
	"internal/ir/", "internal/cfg/", "internal/opt/", "internal/ci/",
	"internal/fleet/", "internal/overload/", "internal/stats/",
}

// fileWrites are the os functions that create, write or move files.
var fileWrites = map[string]bool{
	"Create": true, "CreateTemp": true, "WriteFile": true, "OpenFile": true, "Rename": true, "MkdirAll": true,
}

// randSeeded are the math/rand names that build or name a seeded
// source instead of drawing from the global one.
var randSeeded = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

func TestNoHostClockOrStrayGoroutines(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, v := range hygieneViolations(fset, filepath.ToSlash(path), f) {
				t.Error(v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// hygieneViolations lists the rule breaks in one parsed file.
func hygieneViolations(fset *token.FileSet, path string, f *ast.File) []string {
	imports := map[string]string{} // local name -> import path
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := p[strings.LastIndex(p, "/")+1:]
		if p == "math/rand/v2" {
			name = "rand"
		}
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	var out []string
	report := func(n ast.Node, msg string) {
		out = append(out, fset.Position(n.Pos()).String()+": "+msg)
	}
	for _, decl := range f.Decls {
		fn := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if _, ok := goStmtAllowed[path+":"+fn]; !ok {
					report(n, "go statement outside the allow-list")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "IRPerCycle" && inExperiments(path) {
						if rt, ok := sel.X.(*ast.SelectorExpr); ok && rt.Sel.Name == "RT" {
							report(lhs, "write to RT.IRPerCycle in internal/experiments; run through core.RunThread")
						}
					}
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "NewThread" && inExperiments(path) {
					report(n, "NewThread in internal/experiments; run through core.RunThread")
				}
				pkg, ok := n.X.(*ast.Ident)
				if !ok {
					break
				}
				switch imp, sel := imports[pkg.Name], n.Sel.Name; {
				case imp == "time" && (sel == "Now" || sel == "Since"):
					report(n, "host clock time."+sel)
				case (imp == "math/rand" || imp == "math/rand/v2") && !randSeeded[sel]:
					report(n, "global math/rand source rand."+sel)
				case imp == "os" && sel == "Getenv":
					report(n, "environment read os.Getenv")
				case imp == "os" && fileWrites[sel]:
					if _, ok := fileWriteAllowed[path+":"+fn]; !ok {
						report(n, "file write os."+sel+" outside the allow-list")
					}
				case imp == "sort" && (sel == "Slice" || sel == "SliceStable") && onHotPath(path):
					report(n, "sort."+sel+" on a hot path; use slices.SortFunc or slices.SortStableFunc")
				case (imp == "repro/internal/vm" && (sel == "TierCompiled" || sel == "TierInterpreter")) ||
					(imp == "repro/internal/core" && sel == "WithTier"):
					if !hasPrefix(path, tierPickAllowed) {
						report(n, "tier pick "+pkg.Name+"."+sel+" outside the VM, the tier oracle and the benchmark")
					}
				case imp == "repro/internal/core" && uncheckedCompiles[sel] && hasPrefix(path, checkedCompileOnly):
					report(n, "core."+sel+" outside the checked compile; compile through sanitize.CompileChecked")
				case imp == "repro/internal/vm" && sel == "New" && !hasPrefix(path, vmNewAllowed):
					report(n, "vm.New outside the VM, core, the oracles and the benchmark; run on a shared vm.Code")
				case imp == "fmt" && strings.HasPrefix(sel, "Fprint") && inExperiments(path):
					_, inFile := fprintAllowed[path]
					if _, inFunc := fprintAllowed[path+":"+fn]; !inFile && !inFunc {
						report(n, "fmt."+sel+" outside the figure renderer; return the rows in a table")
					}
				}
			}
			return true
		})
	}
	return out
}

func onHotPath(path string) bool { return hasPrefix(path, hotPaths) }

func inExperiments(path string) bool { return strings.HasPrefix(path, "internal/experiments/") }

func hasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// The checker itself must see each kind of violation.
func TestHygieneViolationsDetected(t *testing.T) {
	const src = `package p

import (
	"math/rand"
	"os"
	"time"
)

func f() {
	_ = time.Now()
	_ = time.Since(time.Time{})
	_ = rand.Intn(3)
	_ = rand.New(rand.NewSource(1))
	_ = os.Getenv("X")
	_ = os.WriteFile("x", nil, 0o644)
	go f()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := hygieneViolations(fset, "p.go", f); len(got) != 6 {
		t.Fatalf("want 6 violations (Now, Since, Intn, Getenv, WriteFile, go), got %d:\n%s", len(got), strings.Join(got, "\n"))
	}
}

// The sort rule holds on the hot paths only: the same file fails under
// internal/cfg and internal/fleet, and passes under internal/interleave.
func TestHygieneSortRule(t *testing.T) {
	const src = `package p

import "sort"

func f(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sort.Ints(xs)
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := hygieneViolations(fset, "internal/cfg/p.go", f); len(got) != 2 {
		t.Errorf("internal/cfg: want 2 violations (Slice, SliceStable), got %d:\n%s", len(got), strings.Join(got, "\n"))
	}
	if got := hygieneViolations(fset, "internal/fleet/p.go", f); len(got) != 2 {
		t.Errorf("internal/fleet: want 2 violations (Slice, SliceStable), got %d:\n%s", len(got), strings.Join(got, "\n"))
	}
	if got := hygieneViolations(fset, "internal/interleave/p.go", f); len(got) != 0 {
		t.Errorf("internal/interleave: want no violation, got:\n%s", strings.Join(got, "\n"))
	}
}

// The print rule holds in internal/experiments only, outside the
// renderer's file and PrintFleetPlan.
func TestHygieneFprintRule(t *testing.T) {
	const src = `package p

import (
	"fmt"
	"io"
)

func f(w io.Writer) {
	fmt.Fprintf(w, "%d\n", 1)
	fmt.Fprintln(w)
	_ = fmt.Sprintf("%d", 1)
}

func PrintFleetPlan(w io.Writer) { fmt.Fprint(w, "plan") }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{
		"internal/experiments/p.go":     3,
		"internal/experiments/fleet.go": 2,
		"internal/experiments/table.go": 0,
		"internal/fleet/p.go":           0,
	} {
		if got := hygieneViolations(fset, path, f); len(got) != want {
			t.Errorf("%s: want %d violations, got %d:\n%s", path, want, len(got), strings.Join(got, "\n"))
		}
	}
}

// The tier rule flags exactly the lines a fixture marks with a want
// comment, outside the VM, the tier oracle and the benchmark.
func TestHygieneTierRule(t *testing.T) {
	const src = `package p

import (
	"repro/internal/core"
	"repro/internal/vm"
)

func f() []core.Option {
	var v vm.VM
	v.Tier = vm.TierInterpreter // want "tier pick vm.TierInterpreter"
	v.Tier = vm.TierCompiled    // want "tier pick vm.TierCompiled"
	var tier vm.Tier
	return []core.Option{core.WithTier(tier), core.WithThreads(2)} // want "tier pick core.WithTier"
}
`
	checkWantRule(t, src, map[string]bool{
		"internal/experiments/p.go": true,
		"cmd/cirun/p.go":            true,
		"internal/vm/p.go":          false,
		"internal/sanitize/p.go":    false,
		"benchmark/p.go":            false,
	})
}

// The compile rule flags the unchecked compile entry points in
// internal/experiments and internal/interleave only.
func TestHygieneCompileRule(t *testing.T) {
	const src = `package p

import (
	"repro/internal/core"
	"repro/internal/sanitize"
)

func f() {
	_, _ = core.Compile(nil)                      // want "core.Compile outside the checked compile"
	_, _ = core.CompileConfig(nil, core.Config{}) // want "core.CompileConfig outside the checked compile"
	_, _ = core.CompileText("")                   // want "core.CompileText outside the checked compile"
	_, _ = sanitize.CompileChecked(nil, core.ConfigOf(), sanitize.Options{})
}
`
	checkWantRule(t, src, map[string]bool{
		"internal/experiments/p.go": true,
		"internal/interleave/p.go":  true,
		"internal/core/p.go":        false,
		"internal/sanitize/p.go":    false,
		"cmd/cirun/p.go":            false,
		"benchmark/p.go":            false,
	})
}

// The run rule flags a hand-built machine, thread or IR/cycle ratio in
// internal/experiments only; reading the ratio and running through
// core are not flagged.
func TestHygieneRunRule(t *testing.T) {
	const src = `package p

import (
	"repro/internal/core"
	"repro/internal/vm"
)

func f(base struct{ IRPerCycle float64 }) {
	machine := vm.NewCode(nil, nil).NewVM(1)
	th := machine.NewThread(0) // want "NewThread in internal/experiments"
	th.RT.IRPerCycle = 0.5     // want "write to RT.IRPerCycle in internal/experiments"
	th.RT.IRPerCycle *= 2      // want "write to RT.IRPerCycle in internal/experiments"
	base.IRPerCycle = th.RT.IRPerCycle
	_, _ = core.RunThread(nil, core.Setup{IRPerCycle: base.IRPerCycle}, "main", 0)
}
`
	checkWantRule(t, src, map[string]bool{
		"internal/experiments/p.go": true,
		"internal/core/p.go":        false,
		"internal/sanitize/p.go":    false,
		"cmd/cirun/p.go":            false,
		"benchmark/p.go":            false,
	})
}

// The VM rule flags vm.New outside the VM, core, the oracles and the
// benchmark; a VM over a shared code is not flagged anywhere.
func TestHygieneNewRule(t *testing.T) {
	const src = `package p

import "repro/internal/vm"

func f(code *vm.Code) {
	_ = vm.New(nil, nil, 1) // want "vm.New outside the VM, core, the oracles and the benchmark"
	_ = code.NewVM(1)
	_ = vm.NewCode(nil, nil).NewVM(1)
}
`
	checkWantRule(t, src, map[string]bool{
		"internal/experiments/p.go": true,
		"internal/interleave/p.go":  true,
		"cmd/cirun/p.go":            true,
		"internal/vm/p.go":          false,
		"internal/core/p.go":        false,
		"internal/sanitize/p.go":    false,
		"benchmark/p.go":            false,
	})
}

// checkWantRule parses src and checks, under each path marked true,
// that exactly the lines carrying a want comment are flagged, each with
// a message starting with the comment's quoted text, and under each
// path marked false that nothing is.
func checkWantRule(t *testing.T, src string, paths map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if msg, ok := strings.CutPrefix(c.Text, "// want "); ok {
				want[fset.Position(c.Pos()).Line], _ = strconv.Unquote(msg)
			}
		}
	}
	for path, flagged := range paths {
		got := map[int]string{}
		for _, v := range hygieneViolations(fset, path, f) {
			// v is "file:line:col: message".
			parts := strings.SplitN(v, ":", 4)
			line, _ := strconv.Atoi(parts[1])
			got[line] = strings.TrimSpace(parts[3])
		}
		if !flagged {
			if len(got) != 0 {
				t.Errorf("%s: want no violation, got %v", path, got)
			}
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s: flagged lines %v, want %v", path, got, want)
		}
		for line, msg := range want {
			if !strings.HasPrefix(got[line], msg) {
				t.Errorf("%s:%d: got %q, want a message starting %q", path, line, got[line], msg)
			}
		}
	}
}
