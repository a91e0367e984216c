package ir

import (
	"fmt"
	"sort"
	"strings"
)

// String renders the module in the textual IR syntax accepted by Parse.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	if m.MemWords > 0 {
		fmt.Fprintf(&sb, "mem %d\n", m.MemWords)
	}
	imports := make([]string, 0, len(m.Imports))
	for name := range m.Imports {
		imports = append(imports, name)
	}
	sort.Strings(imports)
	for _, name := range imports {
		fmt.Fprintf(&sb, "import @%s\n", name)
	}
	names := make([]string, 0, len(m.Externs))
	for name := range m.Externs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := m.Externs[name]
		fmt.Fprintf(&sb, "extern @%s cost %d", e.Name, e.Cost)
		if e.Blocking {
			sb.WriteString(" blocking")
		}
		sb.WriteByte('\n')
	}
	for _, f := range m.Funcs {
		sb.WriteByte('\n')
		f.write(&sb)
	}
	return sb.String()
}

// String renders a single function in textual IR syntax.
func (f *Func) String() string {
	var sb strings.Builder
	f.write(&sb)
	return sb.String()
}

func (f *Func) write(sb *strings.Builder) {
	fmt.Fprintf(sb, "func @%s(", f.Name)
	for i := 0; i < f.NumParams; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%%%d", i)
	}
	sb.WriteString(")")
	if f.NoInstrument {
		sb.WriteString(" noinstrument")
	}
	sb.WriteString(" {\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(sb, "%s:\n", b.Name)
		for i := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(f.InstrString(&b.Instrs[i]))
			sb.WriteByte('\n')
		}
		sb.WriteString("  ")
		sb.WriteString(b.Term.String())
		sb.WriteByte('\n')
	}
	sb.WriteString("}\n")
}

func regStr(r Reg) string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("%%%d", r)
}

// InstrString renders in, an instruction of f, in textual IR syntax:
// f's call table holds a call's callee and arguments.
func (f *Func) InstrString(in *Instr) string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpMov:
		if in.BImm {
			return fmt.Sprintf("%s = mov %d", regStr(in.Dst), in.Imm)
		}
		return fmt.Sprintf("%s = mov %s", regStr(in.Dst), regStr(in.A))
	case OpLoad:
		return fmt.Sprintf("%s = load %s, %d", regStr(in.Dst), regStr(in.A), in.Imm)
	case OpStore:
		return fmt.Sprintf("store %s, %d, %s", regStr(in.A), in.Imm, regStr(in.B))
	case OpAtomicAdd:
		return fmt.Sprintf("%s = aadd %s, %d, %s", regStr(in.Dst), regStr(in.A), in.Imm, regStr(in.B))
	case OpCall, OpExtCall:
		c := f.CallOf(in)
		var args []string
		for _, a := range c.Args {
			args = append(args, regStr(a))
		}
		callee := fmt.Sprintf("%s @%s(%s)", in.Op, c.Callee, strings.Join(args, ", "))
		if in.Dst == NoReg {
			return callee
		}
		return fmt.Sprintf("%s = %s", regStr(in.Dst), callee)
	case OpReadCycles:
		return fmt.Sprintf("%s = rdcyc", regStr(in.Dst))
	case OpProbe:
		p := in.Probe()
		s := fmt.Sprintf("probe %s %d", p.Kind, p.Inc)
		if p.Loop() {
			s += fmt.Sprintf(" %s %s", regStr(p.IndVar), regStr(p.Base))
		}
		return s
	default:
		if in.Op.IsBinary() {
			if in.BImm {
				return fmt.Sprintf("%s = %s %s, %d", regStr(in.Dst), in.Op, regStr(in.A), in.Imm)
			}
			return fmt.Sprintf("%s = %s %s, %s", regStr(in.Dst), in.Op, regStr(in.A), regStr(in.B))
		}
		return fmt.Sprintf("?%s", in.Op)
	}
}

// String renders the terminator in textual IR syntax.
func (t *Terminator) String() string {
	switch t.Kind {
	case TermJmp:
		return fmt.Sprintf("jmp %s", t.Then.Name)
	case TermBr:
		return fmt.Sprintf("br %s, %s, %s", regStr(t.Cond), t.Then.Name, t.Else.Name)
	case TermRet:
		if t.Val == NoReg {
			return "ret"
		}
		return fmt.Sprintf("ret %s", regStr(t.Val))
	default:
		return "<unterminated>"
	}
}
