package ir

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

var update = flag.Bool("update", false, "rewrite golden files")

const sampleProgram = `
module sample
mem 1024
extern @print cost 120
extern @read cost 4000 blocking

; computes sum of 0..n-1 and prints it
func @main(%n) {
entry:
  %sum = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n        # loop condition
  br %c, body, done
body:
  %sum = add %sum, %i
  %i = add %i, 1
  jmp head
done:
  %r = call @scale(%sum)
  extcall @print(%r)
  ret %r
}

func @scale(%x) noinstrument {
entry:
  %y = mul %x, 2
  ret %y
}
`

func TestParseSample(t *testing.T) {
	m, err := Parse(sampleProgram)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Name != "sample" {
		t.Errorf("module name = %q", m.Name)
	}
	if m.MemWords != 1024 {
		t.Errorf("MemWords = %d", m.MemWords)
	}
	if len(m.Externs) != 2 {
		t.Fatalf("externs = %d, want 2", len(m.Externs))
	}
	if !m.Externs["read"].Blocking || m.Externs["read"].Cost != 4000 {
		t.Errorf("extern read = %+v", m.Externs["read"])
	}
	main := m.FuncByName("main")
	if main == nil || main.NumParams != 1 {
		t.Fatalf("main = %+v", main)
	}
	if len(main.Blocks) != 4 {
		t.Errorf("main blocks = %d, want 4", len(main.Blocks))
	}
	scale := m.FuncByName("scale")
	if scale == nil || !scale.NoInstrument {
		t.Errorf("scale should carry noinstrument")
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	m := MustParse(sampleProgram)
	text := m.String()
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if m2.String() != text {
		t.Errorf("round trip not stable:\n-- first --\n%s\n-- second --\n%s", text, m2.String())
	}
}

func TestParseProbeRoundTrip(t *testing.T) {
	src := `
module p
func @f(%n) {
entry:
  probe ir 250
  probe cycles 500
  probe event 1
  %k = mov 0
  probe irloop 7 %n %k
  ret
}
`
	m := MustParse(src)
	text := m.String()
	m2 := MustParse(text)
	if m2.String() != text {
		t.Fatalf("probe round trip unstable:\n%s\nvs\n%s", text, m2.String())
	}
	f := m.FuncByName("f")
	probes := 0
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == OpProbe {
			probes++
			if p := in.Probe(); p.Kind == ProbeIRLoop && (p.IndVar == NoReg || p.Base == NoReg) {
				t.Error("loop probe lost registers")
			}
		}
	}
	if probes != 4 {
		t.Errorf("parsed %d probes, want 4", probes)
	}
}

// parseErrorCases pairs malformed sources with a substring of the
// error and, for syntax errors, the line the *ParseError carries (0 for
// the untyped errors of the final Verify).
var parseErrorCases = []struct {
	name, src, want string
	line            int
}{
	{"unknown opcode", "func @f() {\nentry:\n %x = frob 1\n ret\n}", "unknown opcode", 3},
	{"unknown label", "func @f() {\nentry:\n jmp nowhere\n}", "unknown block label", 3},
	{"unknown label reported at its terminator", "func @f() {\nentry:\n br %c, entry, nowhere\nnext:\n ret\n}\n", "unknown block label \"nowhere\"", 3},
	{"missing brace", "func @f() {\nentry:\n ret\n", "missing closing", 3},
	{"instr after term", "func @f() {\nentry:\n ret\n %x = mov 1\n}", "after terminator", 4},
	{"instr before label", "func @f() {\n %x = mov 1\nentry:\n ret\n}", "before any block", 2},
	{"duplicate label", "func @f() {\nentry:\n ret\nentry:\n ret\n}", "duplicate block label", 4},
	{"duplicate func", "func @f() {\nentry:\n ret\n}\nfunc @f() {\nentry:\n ret\n}", "duplicate function", 5},
	{"bad extern", "extern @x price 4", "usage: extern", 1},
	{"bad mem", "mem lots", "bad memory size", 1},
	{"bad br arity", "func @f() {\nentry:\n br %c, a\n}", "usage: br", 3},
	{"store immediate value", "func @f() {\nentry:\n store _, 0, 5\n ret\n}", "expected register", 3},
	{"call undefined", "func @f() {\nentry:\n call @g()\n ret\n}", "undefined function", 0},
	{"unterminated block", "func @f() {\nentry:\n %x = mov 1\nnext:\n ret\n}", "lacks a terminator", 6},

	// Inputs the parser before the one-pass rewrite accepted, or failed
	// on with an untyped error. Each is a declared divergence from it.
	{"no line cap", "; " + strings.Repeat("x", 1<<20) + "\nfrob", "unexpected token \"frob\"", 2},                   // was bufio.ErrTooLong
	{"negative register", "func @f() {\nentry:\n %-1 = mov 1\n ret\n}", "bad register \"%-1\"", 3},                  // was the _ destination
	{"other negative register", "func @f() {\nentry:\n %-7 = mov 1\n ret\n}", "bad register \"%-7\"", 3},            // was an untyped Verify error
	{"register number over the cap", "func @f() {\nentry:\n %65536 = mov 1\n ret\n}", "bad register \"%65536\"", 3}, // was a 65537-word frame
	{"huge register number", "func @f() {\nentry:\n %99999999 = mov 1\n ret\n}", "bad register \"%99999999\"", 3},   // was 10^8 NewReg calls
	{"register number past int64", "func @f() {\nentry:\n ret %99999999999999999999\n}", "bad register", 3},         // was a register of that name
	{"empty register name", "func @f() {\nentry:\n % = mov 1\n ret\n}", "empty register name", 3},
	{"empty parameter name", "func @f(%) {\nentry:\n ret\n}", "empty register name", 1},
	{"empty label", "func @f() {\n:\n ret\n}", "empty block label", 2}, // was a block named b0
	{"repeated parameter", "func @f(%a, %a) {\nentry:\n ret %a\n}", "duplicate parameter \"%a\"", 1},
	{"tokens after closing brace", "func @f() {\nentry:\n ret\n} func @g() {\nentry:\n ret\n}", "unexpected tokens after '}'", 4},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want substring %q", err, tc.want)
			}
			var pe *ParseError
			if errors.As(err, &pe) != (tc.line != 0) {
				t.Errorf("error is a %T, want *ParseError: %v", err, tc.line != 0)
			} else if pe != nil && pe.Line != tc.line {
				t.Errorf("error at line %d, want %d: %v", pe.Line, tc.line, err)
			}
		})
	}
}

func TestParseNamedAndNumericRegisters(t *testing.T) {
	src := `
func @f(%a) {
entry:
  %1 = mov 5
  %x = add %a, %1
  ret %x
}
`
	m := MustParse(src)
	f := m.FuncByName("f")
	// %a is param reg 0, %1 is numeric reg 1, %x allocated fresh (2).
	add := f.Blocks[0].Instrs[1]
	if add.A != 0 || add.B != 1 || add.Dst != 2 {
		t.Errorf("add operands = dst %d, a %d, b %d; want 2, 0, 1", add.Dst, add.A, add.B)
	}
}

// randomModule builds a random but always-valid module, for the
// round-trip property test.
func randomModule(r *rand.Rand) *Module {
	m := NewModule("rnd")
	m.MemWords = 256
	m.DeclareExtern("ext0", 50+r.Int63n(500))
	nf := 1 + r.Intn(3)
	for fi := 0; fi < nf; fi++ {
		f := m.NewFunc("f"+string(rune('a'+fi)), r.Intn(3))
		if f.NumParams == 0 {
			f.NumRegs = 1 // ensure at least one register exists for operands
		}
		b := NewBuilder(f)
		var blocks []*Block
		blocks = append(blocks, b.B)
		extra := r.Intn(3)
		for i := 0; i < extra; i++ {
			blocks = append(blocks, b.Block(""))
		}
		for bi, blk := range blocks {
			b.SetBlock(blk)
			n := r.Intn(5)
			last := Reg(0)
			for i := 0; i < n; i++ {
				switch r.Intn(5) {
				case 0:
					last = b.Mov(r.Int63n(100))
				case 1:
					last = b.BinI(OpAdd, last, r.Int63n(10))
				case 2:
					last = b.Load(NoReg, r.Int63n(256))
				case 3:
					b.Store(NoReg, r.Int63n(256), last)
				case 4:
					last = b.ExtCall("ext0", last)
				}
			}
			// Terminate: last block rets, others jump/branch forward to
			// avoid infinite loops in any later interpretation.
			if bi == len(blocks)-1 {
				b.Ret(last)
			} else if r.Intn(2) == 0 {
				b.Jmp(blocks[bi+1])
			} else {
				t := blocks[bi+1]
				e := blocks[len(blocks)-1]
				b.Br(last, t, e)
			}
		}
		f.Reindex()
	}
	return m
}

func TestQuickParsePrintRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModule(r)
		if err := m.Verify(); err != nil {
			t.Logf("random module does not verify: %v", err)
			return false
		}
		text := m.String()
		m2, err := Parse(text)
		if err != nil {
			t.Logf("reparse failed: %v\n%s", err, text)
			return false
		}
		return m2.String() == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestImportsParsePrintAndLink(t *testing.T) {
	lib := MustParse(`
module libm
mem 256
func @scale(%x) {
entry:
  %y = mul %x, 3
  ret %y
}
`)
	app := MustParse(`
module app
mem 1024
import @scale
func @main(%n) {
entry:
  %r = call @scale(%n)
  ret %r
}
`)
	if !app.Imports["scale"] {
		t.Fatal("import not recorded")
	}
	text := app.String()
	if !strings.Contains(text, "import @scale") {
		t.Errorf("printer lost import:\n%s", text)
	}
	reparsed := MustParse(text)
	if !reparsed.Imports["scale"] {
		t.Error("round trip lost import")
	}
	linked, err := Link("prog", app, lib)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if linked.FuncByName("scale") == nil || linked.FuncByName("main") == nil {
		t.Error("linked module missing functions")
	}
	if linked.MemWords != 1024 {
		t.Errorf("MemWords = %d, want max(256,1024)", linked.MemWords)
	}
}

func TestLinkErrors(t *testing.T) {
	lib := MustParse("func @f() {\nentry:\n ret\n}")
	dup := MustParse("func @f() {\nentry:\n ret\n}")
	if _, err := Link("p", lib, dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate link err = %v", err)
	}
	app := MustParse("import @missing\nfunc @main() {\nentry:\n call @missing()\n ret\n}")
	if _, err := Link("p", app); err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Errorf("unresolved link err = %v", err)
	}
	e1 := MustParse("extern @x cost 5\nfunc @a() {\nentry:\n extcall @x()\n ret\n}")
	e2 := MustParse("extern @x cost 9\nfunc @b() {\nentry:\n extcall @x()\n ret\n}")
	if _, err := Link("p", e1, e2); err == nil || !strings.Contains(err.Error(), "conflicting extern") {
		t.Errorf("conflicting extern err = %v", err)
	}
}

func TestCallToUndeclaredImportFails(t *testing.T) {
	_, err := Parse("func @main() {\nentry:\n call @ghost()\n ret\n}")
	if err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Errorf("err = %v", err)
	}
}

// parseSeeds are the inputs FuzzParse starts from and
// testdata/parse_verdicts.golden pins: the sample program, the pinned
// reproducers of the other packages, every TestParseErrors source of
// reasonable size, and one input per corner of the token grammar that
// is easy to get wrong (DESIGN §16).
func parseSeeds(t testing.TB) (names, srcs []string) {
	add := func(name, src string) {
		names = append(names, name)
		srcs = append(srcs, src)
	}
	add("sample", sampleProgram)
	repros, err := filepath.Glob("../*/testdata/repro/*.ir")
	if err != nil || len(repros) < 4 {
		t.Fatalf("pinned reproducers: found %d, %v", len(repros), err)
	}
	for _, path := range repros {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add(filepath.Base(path), string(b))
	}
	for _, tc := range parseErrorCases {
		if len(tc.src) < 1<<10 {
			add("error/"+tc.name, tc.src)
		}
	}
	const body = "entry:\n %b = add %a, 1\n br %b, entry, e\ne:\n ret %b\n}"
	for _, g := range [][2]string{
		{"minimal", "func @f() {\nentry:\n ret\n}"},
		{"declarations only", "import @x\nextern @y cost 5\nmem 64"},
		{"loop", "func @f(%a) {\n" + body},
		{"instruction at top level", "probe ir 5"},
		{"header only", "func @f() {"},
		{"unicode spaces separate tokens", "func\u00a0@f(%a)\u2003{\n\u3000" + strings.ReplaceAll(body, " ", "\u2009")},
		{"NEL and line separator are spaces not newlines", "func @f() {\u0085entry:\u2028ret }"},
		{"parentheses and commas are spaces", "func @f %a, %b {\nentry:\n %c = add(%a,,%b)\n (ret) %c\n}"},
		{"equals is a token anywhere", "func @f() {\nentry:\n %x=mov 1\n %y =add %x,%x\n ret %y\n}"},
		{"equals in odd places", "mem =\nmodule a=b\nfunc @f() = {"},
		{"comments start anywhere", "func @f() { ; c\nentry: # c\n ret;x }\n}#\n;"},
		{"CRLF line ends", "module m\r\nfunc @f() {\r\nentry:\r\n ret\r\n}\r\n"},
		{"lone CR is a space", "func @f() {\rentry:\r ret\r}"},
		{"signed register numbers", "func @f() {\nentry:\n %+3 = mov 1\n %-0 = mov %+3\n ret %0\n}"},
		{"number-like register names", "func @f() {\nentry:\n %1x = mov 1\n %+ = mov 2\n %0x1 = mov %1_0\n ret %--1\n}"},
		{"parameters that look like numbers", "func @f(%1, %0) {\nentry:\n %r = add %0, %1\n ret %r\n}"},
		{"numeric register grows the frame", "func @f() {\nentry:\n %x = mov %9\n ret %x\n}"},
		{"underscore destination", "func @f() {\nentry:\n _ = mov 1\n _ = call @f()\n ret _\n}"},
		{"nop ignores operands and keeps the register", "func @f() {\nentry:\n %x = nop 1 2\n nop nop\n %y = mov 0\n ret %y\n}"},
		{"destination on instructions without one", "func @f() {\nentry:\n %x = store _, 0, %y\n %z = probe ir 1\n ret %z\n}"},
		{"labels that look like keywords", "func @f() {\njmp:\n jmp }\n}:\n jmp x:\nx::\n jmp ret\nret:\n ret\n}"},
		{"label with operands is an instruction", "func @f() {\nentry: ret\n}"},
		{"label inside an instruction", "func @f() {\nentry:\n jmp entry:\n}"},
		{"noinstrument positions", "func @f(noinstrument) {\nentry:\n ret\n}\nfunc @g(%a noinstrument %b) {"},
		{"extern trailing tokens", "extern @x cost 4 blocking\nextern @y cost 4 nonblocking"},
		{"extern five tokens", "extern @x cost 4 blocking blocking"},
		{"immediates", "func @f() {\nentry:\n %a = mov -9223372036854775808\n %b = add %a, +7\n %c = load _, -0\n ret\n}"},
		{"immediate past int64", "func @f() {\nentry:\n %c = mov 9223372036854775808\n ret\n}"},
		{"immediate forms strconv rejects", "func @f() {\nentry:\n %a = mov 0x10\n ret\n}"},
		{"probes", "func @f(%n) {\nentry:\n probe ir 250\n probe cycles 1\n probe cyclesloop 7 %n %k\n probe irloop 7, %k, %n\n probe event -1\n probe eventcycles 0\n ret\n}"},
		{"loop probe arity", "func @f(%n) {\nentry:\n probe irloop 7 %n\n ret\n}"},
		{"plain probe arity", "func @f(%n) {\nentry:\n probe ir 7 %n\n ret\n}"},
		{"probe kind", "func @f() {\nentry:\n probe fast 1\n ret\n}"},
		{"probe increment", "func @f() {\nentry:\n probe ir %x\n ret\n}"},
		{"call shapes", "extern @e cost 1\nfunc @f(%a) {\nentry:\n call @f %a\n %r = extcall @e(%a, %a, _)\n %r = extcall @e\n ret\n}"},
		{"callee without @", "func @f(%a) {\nentry:\n call f(%a)\n ret\n}"},
		{"call with an immediate argument", "func @f(%a) {\nentry:\n call @f(1)\n ret\n}"},
		{"call arity", "func @f(%a) {\nentry:\n call @f()\n ret\n}"},
		{"extcall undeclared", "func @f() {\nentry:\n extcall @nope()\n ret\n}"},
		{"import call", "import @g\nfunc @f() {\nentry:\n call @g(%x, %y)\n ret\n}"},
		{"import without @", "import g"},
		{"empty names", "module @\nfunc @() {\nentry:\n call @()\n ret\n}"},
		{"invalid UTF-8 in names", "module \xff\xfe\nfunc @\xc3(%\x80) {\n\xf0\x9f:\n ret %\x80\n}"},
		{"no blocks", "func @f() {\n}"},
		{"no blocks and trailing tokens", "func @f() {\n} x"},
		{"two terminators", "func @f() {\nentry:\n ret\n ret\n}"},
		{"unterminated last block", "func @f() {\nentry:\n jmp next\nnext:\n}"},
		{"stale label after error-free function", "func @f() {\na:\n ret\n}\nfunc @g() {\nb:\n jmp a\n}"},
		{"register names do not leak across functions", "func @f(%p) {\na:\n %x = mov 1\n ret %x\n}\nfunc @g() {\na:\n %y = mov 2\n %x = mov 3\n ret %p\n}"},
		{"usage errors", "func @f() {\nentry:\n %a = mov\n ret\n}"},
		{"missing opcode", "func @f() {\nentry:\n %a =\n ret\n}"},
		{"binary arity", "func @f() {\nentry:\n %a = add %a\n ret\n}"},
		{"load and store", "func @f(%p) {\nentry:\n %a = load %p, 8\n store %p, -8, %a\n %b = aadd _, 0, %a\n _ = rdcyc\n ret\n}"},
		{"load operand order", "func @f(%p) {\nentry:\n %c = load 8, %p\n ret\n}"},
		{"store without a value", "func @f(%p) {\nentry:\n store %p, 0, _\n ret\n}"},
		{"rdcyc arity", "func @f() {\nentry:\n %b = rdcyc %a\n ret\n}"},
		{"ret arity", "func @f() {\nentry:\n ret %a %b\n}"},
		{"jmp arity", "func @f() {\nentry:\n jmp\n}"},
		{"module arity", "module"},
		{"mem arity", "mem 1 2"},
		{"mem negative", "mem -1"},
		{"extern cost negative", "extern @x cost -1"},
		{"func alone", "func"},
		{"func without brace", "func @f"},
		{"func without @", "func f() {"},
		{"func closed on its line", "func @f() { }"},
		{"bad parameter", "func @f(a) {"},
		{"blank lines count", "\n\n\nfunc @f() {\n\nentry:\n\n frob\n"},
		{"missing brace after trailing newlines", "func @f() {\nentry:\n ret\n\n\n"},
	} {
		add(g[0], g[1])
	}
	return names, srcs
}

// FuzzParse exercises the parser with arbitrary input: it must never
// panic, and anything it accepts must verify, print, and reparse to
// the same text.
func FuzzParse(f *testing.F) {
	_, srcs := parseSeeds(f)
	for _, src := range srcs {
		f.Add(src)
	}
	// Calls in more than one function, so that the clone check below
	// starts from call tables it must keep apart.
	f.Add(`extern @x cost 3
func @g(%a) {
entry:
  %b = call @h(%a, %a)
  %c = extcall @x(%b)
  ret %c
}
func @h(%a, %b) {
entry:
  %c = call @g(%b)
  ret %c
}`)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		if verr := m.Verify(); verr != nil {
			t.Fatalf("accepted module does not verify: %v\n%s", verr, src)
		}
		text := m.String()
		m2, err := Parse(text)
		if err != nil {
			t.Fatalf("printer output does not reparse: %v\n%s", err, text)
		}
		if m2.String() != text {
			t.Fatalf("round trip unstable:\n%s\nvs\n%s", text, m2.String())
		}
		// A clone copies every function's call table out of one array:
		// it must verify and print as its source does.
		c := m.Clone()
		if verr := c.Verify(); verr != nil {
			t.Fatalf("clone does not verify: %v\n%s", verr, text)
		}
		if got := c.String(); got != text {
			t.Fatalf("clone prints differently:\n%s\nvs\n%s", got, text)
		}
	})
}

// TestParseVerdicts holds Parse to the verdict recorded for every seed
// input while the parser it replaced was still in the tree to agree
// with: a digest of the printed module and each function's register
// count, or the error with its line.
func TestParseVerdicts(t *testing.T) {
	var got bytes.Buffer
	names, srcs := parseSeeds(t)
	for i, src := range srcs {
		fmt.Fprintf(&got, "%s\t", names[i])
		m, err := Parse(src)
		if err != nil {
			fmt.Fprintf(&got, "%q\n", err.Error())
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(m.String()))
		for _, f := range m.Funcs {
			fmt.Fprintf(h, "%d;", f.NumRegs)
		}
		fmt.Fprintf(&got, "ok %016x\n", h.Sum64())
	}
	path := filepath.Join("testdata", "parse_verdicts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/ir -run TestParseVerdicts -update)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("verdict %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d verdicts, golden has %d", len(gl)-1, len(wl)-1)
	}
}
