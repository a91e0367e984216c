package ir

import (
	"errors"
	"fmt"
)

// Verify checks module-level structural invariants: every function
// verifies, call targets exist (function or extern), and block indices
// are consistent.
func (m *Module) Verify() error {
	var errs []error
	seen := make(map[string]bool)
	for _, f := range m.Funcs {
		if seen[f.Name] {
			errs = append(errs, fmt.Errorf("ir: duplicate function @%s", f.Name))
		}
		seen[f.Name] = true
		if err := f.Verify(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Verify checks function-level invariants: non-empty body, terminated
// blocks with in-function targets, consistent indices, register
// operands within NumRegs, and resolvable callees.
func (f *Func) Verify() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("ir: @%s: "+format, append([]any{f.Name}, args...)...))
	}
	if len(f.Blocks) == 0 {
		fail("empty function body")
		return errors.Join(errs...)
	}
	if f.NumParams > f.NumRegs {
		fail("NumParams %d exceeds NumRegs %d", f.NumParams, f.NumRegs)
	}
	// inFunc reports whether t is one of f's blocks: by its index, or,
	// for a block whose index is stale (reported below), by a search.
	inFunc := func(t *Block) bool {
		if t != nil && uint(t.Index) < uint(len(f.Blocks)) && f.Blocks[t.Index] == t {
			return true
		}
		for _, b := range f.Blocks {
			if b == t {
				return true
			}
		}
		return false
	}
	checkReg := func(b *Block, r Reg, what string) {
		if r == NoReg {
			return
		}
		if r < 0 || int(r) >= f.NumRegs {
			fail("block %q: %s register %d out of range [0,%d)", b.Name, what, r, f.NumRegs)
		}
	}
	for i, b := range f.Blocks {
		if b.Index != i {
			fail("block %q has stale index %d (want %d); call Reindex", b.Name, b.Index, i)
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			switch in.Op {
			case OpNop:
			case OpMov:
				checkReg(b, in.Dst, "dst")
				if !in.BImm {
					checkReg(b, in.A, "src")
				}
			case OpLoad:
				checkReg(b, in.Dst, "dst")
				checkReg(b, in.A, "base")
			case OpStore:
				checkReg(b, in.A, "base")
				checkReg(b, in.B, "value")
				if in.B == NoReg {
					fail("block %q: store requires a value register", b.Name)
				}
			case OpAtomicAdd:
				checkReg(b, in.Dst, "dst")
				checkReg(b, in.A, "base")
				checkReg(b, in.B, "value")
			case OpCall, OpExtCall:
				if uint64(in.Imm) >= uint64(len(f.Calls)) {
					fail("block %q: %s without a call record", b.Name, in.Op)
					continue
				}
				c := f.CallOf(in)
				if in.Op == OpExtCall {
					if _, ok := f.Mod.Externs[c.Callee]; !ok {
						fail("block %q: extcall to undeclared extern @%s", b.Name, c.Callee)
					}
				} else {
					target := f.Mod.FuncByName(c.Callee)
					switch {
					case target != nil:
						if len(c.Args) != target.NumParams {
							fail("block %q: call @%s with %d args, want %d", b.Name, c.Callee, len(c.Args), target.NumParams)
						}
					case f.Mod.Imports[c.Callee]:
						// Cross-module call: arity checked at link time.
					default:
						fail("block %q: call to undefined function @%s", b.Name, c.Callee)
					}
				}
				checkReg(b, in.Dst, "dst")
				for _, a := range c.Args {
					checkReg(b, a, "arg")
				}
			case OpReadCycles:
				checkReg(b, in.Dst, "dst")
			case OpProbe:
				if p := in.Probe(); p.Loop() {
					checkReg(b, p.IndVar, "probe indvar")
					checkReg(b, p.Base, "probe base")
					if p.IndVar == NoReg || p.Base == NoReg {
						fail("block %q: loop probe requires indvar and base registers", b.Name)
					}
				}
			default:
				if in.Op.IsBinary() {
					checkReg(b, in.Dst, "dst")
					checkReg(b, in.A, "lhs")
					if !in.BImm {
						checkReg(b, in.B, "rhs")
					}
				} else {
					fail("block %q: unknown opcode %d", b.Name, in.Op)
				}
			}
		}
		switch b.Term.Kind {
		case TermNone:
			fail("block %q lacks a terminator", b.Name)
		case TermJmp:
			if !inFunc(b.Term.Then) {
				fail("block %q jumps outside the function", b.Name)
			}
		case TermBr:
			checkReg(b, b.Term.Cond, "branch cond")
			if b.Term.Cond == NoReg {
				fail("block %q: br requires a condition register", b.Name)
			}
			if !inFunc(b.Term.Then) || !inFunc(b.Term.Else) {
				fail("block %q branches outside the function", b.Name)
			}
		case TermRet:
			checkReg(b, b.Term.Val, "return value")
		}
	}
	return errors.Join(errs...)
}
