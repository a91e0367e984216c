package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseError reports a syntax or semantic error with its source line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ir: parse error at line %d: %s", e.Line, e.Msg)
}

// MaxNumericReg bounds the registers a source may name by number
// (%0 .. %65535). A number grows the function's frame up to it, so
// without a bound a 20-byte input costs the VM a gigabyte; the largest
// function of the Table-7 programs and the benchmark corpus has 531
// registers. Named registers need no bound: each costs its own text.
const MaxNumericReg = 1 << 16

// Classes of the token grammar (DESIGN §16). A multi-byte rune is
// clsSep if unicode.IsSpace says so and clsTok otherwise.
const (
	clsTok     = iota // part of a token
	clsSep            // separates tokens: ASCII white space and ( ) ,
	clsEq             // '=' is a token by itself wherever it appears
	clsComment        // ';' and '#' end the line's tokens
	clsNL             // '\n' ends the line
)

var byteClass = func() (t [utf8.RuneSelf]uint8) {
	for _, c := range "\t\v\f\r ()," {
		t[c] = clsSep
	}
	t['='] = clsEq
	t[';'], t['#'] = clsComment, clsComment
	t['\n'] = clsNL
	return t
}()

// parser reads the source in one pass, a line at a time. Every name it
// stores (module, functions, blocks, callees, externs) is a substring
// of src, and blocks, instructions, call tables and call arguments are
// carved out of slabs sized by count, so the work per line allocates
// nothing.
type parser struct {
	src  string
	pos  int      // offset of the first byte of the next line
	line int      // number of the line toks came from
	toks []string // tokens of the current line; the buffer is reused

	mod *Module
	// Slabs for the whole module, with the capacities count computed.
	// Blocks are reached through pointers and the other four through
	// sub-slices taken after their last append, so where count fell
	// short an append merely moves on to a larger array.
	blocks    []Block
	blockPtrs []*Block
	instrs    []Instr
	calls     []Call
	args      []Reg

	// per-function state
	fn         *Func
	firstBlock int               // offset of fn's first block in blockPtrs
	firstCall  int               // offset of fn's first call record in calls
	regs       map[string]Reg    // named registers
	labels     map[string]*Block // block labels
	cur        *Block
	curInstrs  int // offset of cur's first instruction in instrs
	pending    []pendingTerm
}

// pendingTerm is a jmp or br whose labels resolve at the closing '}'.
type pendingTerm struct {
	line      int
	block     *Block
	then, els string // els is empty for jmp
}

// Parse reads a module in the textual IR syntax produced by
// Module.String. The result is verified before being returned. Syntax
// errors are *ParseError values carrying the line; a module that parses
// but does not verify returns Verify's error.
func Parse(src string) (*Module, error) {
	nblocks, ninstrs, ncalls, nargs := count(src)
	p := &parser{
		src:       src,
		mod:       NewModule("m"),
		blocks:    make([]Block, 0, nblocks),
		blockPtrs: make([]*Block, 0, nblocks),
		instrs:    make([]Instr, 0, ninstrs),
		calls:     make([]Call, 0, ncalls),
		args:      make([]Reg, 0, nargs),
		regs:      make(map[string]Reg),
		labels:    make(map[string]*Block),
	}
	for p.pos < len(src) {
		p.line++
		p.scanLine()
		if len(p.toks) == 0 {
			continue
		}
		var err error
		if p.fn == nil {
			err = p.parseTopLevel(p.toks)
		} else {
			err = p.parseBody(p.toks)
		}
		if err != nil {
			return nil, err
		}
	}
	if p.fn != nil {
		return nil, p.errf("missing closing '}' for func @%s", p.fn.Name)
	}
	if err := p.mod.Verify(); err != nil {
		return nil, err
	}
	return p.mod, nil
}

// MustParse is Parse that panics on error; for tests and fixed programs.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

// count sizes the parser's slabs for text as Module.String prints it:
// a ':' per block label, two lines per block that are not instructions
// (the label and the terminator), per call a "call @" (an extcall ends
// in one too), and per call a '@' and one comma fewer than arguments.
// Other text (blank lines, comments, labels inside instructions,
// arguments separated by spaces) makes the counts too large or too
// small, which costs memory or a reallocation.
func count(src string) (blocks, instrs, calls, args int) {
	blocks = strings.Count(src, ":")
	instrs = max(strings.Count(src, "\n")+1-2*blocks, 0)
	calls = strings.Count(src, "call @")
	args = strings.Count(src, ",") + strings.Count(src, "@")
	return blocks, instrs, calls, args
}

// scanLine splits the line at p.pos into p.toks and moves p.pos past
// its newline.
func (p *parser) scanLine() {
	src, toks := p.src, p.toks[:0]
	i, start := p.pos, -1 // start of the token being read, -1 between tokens
scan:
	for i < len(src) {
		cls, w := uint8(clsTok), 1
		if c := src[i]; c < utf8.RuneSelf {
			cls = byteClass[c]
		} else {
			var r rune
			if r, w = utf8.DecodeRuneInString(src[i:]); unicode.IsSpace(r) {
				cls = clsSep
			}
		}
		if cls == clsTok {
			if start < 0 {
				start = i
			}
			i += w
			continue
		}
		if start >= 0 {
			toks = append(toks, src[start:i])
			start = -1
		}
		switch cls {
		case clsEq:
			toks = append(toks, src[i:i+1])
		case clsComment:
			if nl := strings.IndexByte(src[i:], '\n'); nl >= 0 {
				i += nl + 1
			} else {
				i = len(src)
			}
			break scan
		case clsNL:
			i++
			break scan
		}
		i += w
	}
	if start >= 0 {
		toks = append(toks, src[start:i])
	}
	p.pos, p.toks = i, toks
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseTopLevel(toks []string) error {
	switch toks[0] {
	case "module":
		if len(toks) != 2 {
			return p.errf("usage: module <name>")
		}
		p.mod.Name = toks[1]
	case "mem":
		if len(toks) != 2 {
			return p.errf("usage: mem <words>")
		}
		n, err := strconv.ParseInt(toks[1], 10, 64)
		if err != nil || n < 0 {
			return p.errf("bad memory size %q", toks[1])
		}
		p.mod.MemWords = n
	case "import":
		if len(toks) != 2 || !strings.HasPrefix(toks[1], "@") {
			return p.errf("usage: import @name")
		}
		p.mod.DeclareImport(toks[1][1:])
	case "extern":
		// extern @name cost N [blocking]
		if len(toks) < 4 || toks[2] != "cost" || !strings.HasPrefix(toks[1], "@") {
			return p.errf("usage: extern @name cost <n> [blocking]")
		}
		cost, err := strconv.ParseInt(toks[3], 10, 64)
		if err != nil || cost < 0 {
			return p.errf("bad extern cost %q", toks[3])
		}
		e := p.mod.DeclareExtern(toks[1][1:], cost)
		if len(toks) == 5 && toks[4] == "blocking" {
			e.Blocking = true
		} else if len(toks) > 4 {
			return p.errf("unexpected tokens after extern declaration")
		}
	case "func":
		return p.parseFuncHeader(toks)
	default:
		return p.errf("unexpected token %q at top level", toks[0])
	}
	return nil
}

func (p *parser) parseFuncHeader(toks []string) error {
	// func @name %a %b ... [noinstrument] {
	if len(toks) < 3 || !strings.HasPrefix(toks[1], "@") || toks[len(toks)-1] != "{" {
		return p.errf("usage: func @name(%%p0, ...) [noinstrument] {")
	}
	name := toks[1][1:]
	if p.mod.FuncByName(name) != nil {
		return p.errf("duplicate function @%s", name)
	}
	params := toks[2 : len(toks)-1]
	noInstr := false
	if n := len(params); n > 0 && params[n-1] == "noinstrument" {
		noInstr = true
		params = params[:n-1]
	}
	p.fn = p.mod.NewFunc(name, len(params))
	p.fn.NoInstrument = noInstr
	p.firstBlock = len(p.blockPtrs)
	p.firstCall = len(p.calls)
	clear(p.regs)
	clear(p.labels)
	p.cur = nil
	p.pending = p.pending[:0]
	for i, t := range params {
		if !strings.HasPrefix(t, "%") {
			return p.errf("bad parameter %q", t)
		}
		if t == "%" {
			return p.errf("empty register name")
		}
		if _, dup := p.regs[t[1:]]; dup {
			return p.errf("duplicate parameter %q", t)
		}
		p.regs[t[1:]] = Reg(i)
	}
	return nil
}

// regNumber reads name as a register number the way strconv.Atoi reads
// it: an optional sign and decimal digits. ok is false when name is not
// of that shape (it is then a register name); a negative number comes
// back as -1 and one too large to matter as MaxNumericReg.
func regNumber(name string) (n int, ok bool) {
	digits := name
	if name[0] == '+' || name[0] == '-' {
		digits = name[1:]
	}
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n < MaxNumericReg {
			n = n*10 + int(d)
		}
	}
	if name[0] == '-' && n != 0 {
		return -1, true
	}
	return n, true
}

// reg resolves a register token (%name or %number or _), allocating
// registers for new names.
func (p *parser) reg(tok string) (Reg, error) {
	if tok == "_" {
		return NoReg, nil
	}
	if !strings.HasPrefix(tok, "%") {
		return NoReg, p.errf("expected register, got %q", tok)
	}
	name := tok[1:]
	if name == "" {
		return NoReg, p.errf("empty register name")
	}
	if n, ok := regNumber(name); ok {
		if n < 0 || n >= MaxNumericReg {
			return NoReg, p.errf("bad register %q", tok)
		}
		if n >= p.fn.NumRegs {
			p.fn.NumRegs = n + 1
		}
		return Reg(n), nil
	}
	if r, ok := p.regs[name]; ok {
		return r, nil
	}
	r := p.fn.NewReg()
	p.regs[name] = r
	return r, nil
}

// regOrImm resolves a token to either a register or an immediate.
func (p *parser) regOrImm(tok string) (r Reg, imm int64, isImm bool, err error) {
	if strings.HasPrefix(tok, "%") || tok == "_" {
		r, err = p.reg(tok)
		return r, 0, false, err
	}
	imm, perr := strconv.ParseInt(tok, 10, 64)
	if perr != nil {
		return NoReg, 0, false, p.errf("expected register or immediate, got %q", tok)
	}
	return NoReg, imm, true, nil
}

func (p *parser) imm(tok string) (int64, error) {
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return 0, p.errf("expected immediate, got %q", tok)
	}
	return v, nil
}

var opcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode)
	for op := Opcode(0); op < Opcode(NumOpcodes); op++ {
		m[op.String()] = op
	}
	return m
}()

var probeKindByName = func() map[string]ProbeKind {
	m := make(map[string]ProbeKind)
	for k := ProbeIR; k <= ProbeEventCycles; k++ {
		m[k.String()] = k
	}
	return m
}()

// closeBlock hands the current block the instructions appended since
// its label (nil when there are none). The capacity is cut at the
// length so that a later append to the block copies out of the slab
// instead of growing into the next block's instructions.
func (p *parser) closeBlock() {
	if n := len(p.instrs); p.cur != nil && n > p.curInstrs {
		p.cur.Instrs = p.instrs[p.curInstrs:n:n]
	}
}

func (p *parser) parseBody(toks []string) error {
	if toks[0] == "}" {
		if len(toks) > 1 {
			return p.errf("unexpected tokens after '}'")
		}
		if p.cur == nil {
			return p.errf("function @%s has no blocks", p.fn.Name)
		}
		p.closeBlock()
		p.fn.Blocks = p.blockPtrs[p.firstBlock:len(p.blockPtrs):len(p.blockPtrs)]
		if n := len(p.calls); n > p.firstCall {
			p.fn.Calls = p.calls[p.firstCall:n:n]
		}
		if err := p.resolveTerms(); err != nil {
			return err
		}
		p.fn = nil
		return nil
	}
	// Block label?
	if len(toks) == 1 && strings.HasSuffix(toks[0], ":") {
		name := strings.TrimSuffix(toks[0], ":")
		if name == "" {
			return p.errf("empty block label")
		}
		if p.labels[name] != nil {
			return p.errf("duplicate block label %q", name)
		}
		p.closeBlock()
		p.blocks = append(p.blocks, Block{Name: name, Index: len(p.blockPtrs) - p.firstBlock})
		p.cur = &p.blocks[len(p.blocks)-1]
		p.blockPtrs = append(p.blockPtrs, p.cur)
		p.labels[name] = p.cur
		p.curInstrs = len(p.instrs)
		return nil
	}
	if p.cur == nil {
		return p.errf("instruction before any block label")
	}
	if p.cur.Term.Kind != TermNone {
		return p.errf("instruction after terminator in block %q", p.cur.Name)
	}
	switch toks[0] {
	case "jmp":
		if len(toks) != 2 {
			return p.errf("usage: jmp <label>")
		}
		p.cur.Term = Terminator{Kind: TermJmp, Cond: NoReg, Val: NoReg}
		p.pending = append(p.pending, pendingTerm{line: p.line, block: p.cur, then: toks[1]})
	case "br":
		if len(toks) != 4 {
			return p.errf("usage: br %%cond, <then>, <else>")
		}
		c, err := p.reg(toks[1])
		if err != nil {
			return err
		}
		p.cur.Term = Terminator{Kind: TermBr, Cond: c, Val: NoReg}
		p.pending = append(p.pending, pendingTerm{line: p.line, block: p.cur, then: toks[2], els: toks[3]})
	case "ret":
		val := NoReg
		if len(toks) == 2 {
			v, err := p.reg(toks[1])
			if err != nil {
				return err
			}
			val = v
		} else if len(toks) > 2 {
			return p.errf("usage: ret [%%val]")
		}
		p.cur.Term = Terminator{Kind: TermRet, Cond: NoReg, Val: val}
	default:
		in, err := p.parseInstr(toks)
		if err != nil {
			return err
		}
		p.instrs = append(p.instrs, in)
	}
	return nil
}

func (p *parser) parseInstr(toks []string) (Instr, error) {
	var dst Reg = NoReg
	if len(toks) >= 2 && toks[1] == "=" {
		d, err := p.reg(toks[0])
		if err != nil {
			return Instr{}, err
		}
		dst = d
		toks = toks[2:]
		if len(toks) == 0 {
			return Instr{}, p.errf("missing opcode after '='")
		}
	}
	opName := toks[0]
	args := toks[1:]
	op, ok := opcodeByName[opName]
	if !ok {
		return Instr{}, p.errf("unknown opcode %q", opName)
	}
	switch {
	case op == OpNop:
		return Instr{Op: OpNop, Dst: NoReg, A: NoReg, B: NoReg}, nil
	case op == OpMov:
		if len(args) != 1 {
			return Instr{}, p.errf("usage: %%d = mov <reg|imm>")
		}
		r, imm, isImm, err := p.regOrImm(args[0])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpMov, Dst: dst, A: r, B: NoReg, Imm: imm, BImm: isImm}, nil
	case op.IsBinary():
		if len(args) != 2 {
			return Instr{}, p.errf("usage: %%d = %s %%a, <reg|imm>", opName)
		}
		a, err := p.reg(args[0])
		if err != nil {
			return Instr{}, err
		}
		b, imm, isImm, err := p.regOrImm(args[1])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: op, Dst: dst, A: a, B: b, Imm: imm, BImm: isImm}, nil
	case op == OpLoad:
		if len(args) != 2 {
			return Instr{}, p.errf("usage: %%d = load <base|_>, <off>")
		}
		a, err := p.reg(args[0])
		if err != nil {
			return Instr{}, err
		}
		off, err := p.imm(args[1])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpLoad, Dst: dst, A: a, B: NoReg, Imm: off}, nil
	case op == OpStore:
		if len(args) != 3 {
			return Instr{}, p.errf("usage: store <base|_>, <off>, %%val")
		}
		a, err := p.reg(args[0])
		if err != nil {
			return Instr{}, err
		}
		off, err := p.imm(args[1])
		if err != nil {
			return Instr{}, err
		}
		v, err := p.reg(args[2])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpStore, Dst: NoReg, A: a, B: v, Imm: off}, nil
	case op == OpAtomicAdd:
		if len(args) != 3 {
			return Instr{}, p.errf("usage: %%d = aadd <base|_>, <off>, %%val")
		}
		a, err := p.reg(args[0])
		if err != nil {
			return Instr{}, err
		}
		off, err := p.imm(args[1])
		if err != nil {
			return Instr{}, err
		}
		v, err := p.reg(args[2])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpAtomicAdd, Dst: dst, A: a, B: v, Imm: off}, nil
	case op == OpCall || op == OpExtCall:
		if len(args) < 1 || !strings.HasPrefix(args[0], "@") {
			return Instr{}, p.errf("usage: [%%d =] %s @name(args...)", opName)
		}
		first := len(p.args)
		for _, t := range args[1:] {
			r, err := p.reg(t)
			if err != nil {
				return Instr{}, err
			}
			p.args = append(p.args, r)
		}
		c := Call{Callee: args[0][1:]} // Args nil for a call without arguments
		if n := len(p.args); n > first {
			c.Args = p.args[first:n:n]
		}
		p.calls = append(p.calls, c)
		return Instr{Op: op, Dst: dst, A: NoReg, B: NoReg, Imm: int64(len(p.calls) - 1 - p.firstCall)}, nil
	case op == OpReadCycles:
		if len(args) != 0 {
			return Instr{}, p.errf("usage: %%d = rdcyc")
		}
		return Instr{Op: OpReadCycles, Dst: dst, A: NoReg, B: NoReg}, nil
	case op == OpProbe:
		if len(args) < 2 {
			return Instr{}, p.errf("usage: probe <kind> <inc> [%%ind %%base]")
		}
		kind, ok := probeKindByName[args[0]]
		if !ok {
			return Instr{}, p.errf("unknown probe kind %q", args[0])
		}
		inc, err := p.imm(args[1])
		if err != nil {
			return Instr{}, err
		}
		pi := ProbeInfo{Kind: kind, Inc: inc, IndVar: NoReg, Base: NoReg}
		if pi.Loop() {
			if len(args) != 4 {
				return Instr{}, p.errf("loop probe requires %%ind and %%base")
			}
			if pi.IndVar, err = p.reg(args[2]); err != nil {
				return Instr{}, err
			}
			if pi.Base, err = p.reg(args[3]); err != nil {
				return Instr{}, err
			}
		} else if len(args) != 2 {
			return Instr{}, p.errf("usage: probe <kind> <inc>")
		}
		return ProbeInstr(pi), nil
	}
	return Instr{}, p.errf("unhandled opcode %q", opName)
}

// resolveTerms binds the labels of the function's jmp and br
// terminators, in source order, and checks that every block got a
// terminator. An unknown label is reported at its terminator's line.
func (p *parser) resolveTerms() error {
	for _, pt := range p.pending {
		t := &pt.block.Term
		if t.Then = p.labels[pt.then]; t.Then == nil {
			p.line = pt.line
			return p.errf("unknown block label %q", pt.then)
		}
		if t.Kind == TermBr {
			if t.Else = p.labels[pt.els]; t.Else == nil {
				p.line = pt.line
				return p.errf("unknown block label %q", pt.els)
			}
		}
	}
	for _, b := range p.fn.Blocks {
		if b.Term.Kind == TermNone {
			return p.errf("block %q in @%s lacks a terminator", b.Name, p.fn.Name)
		}
	}
	return nil
}
