package ir

import (
	"strings"
	"testing"
)

// verifySrc is a clean two-function module that every corruption case
// below starts from. It parses (and therefore verifies) before each
// mutation is applied.
const verifySrc = `
func @main(%n) {
entry:
  %a = add %n, 1
  %b = call @helper(%a)
  jmp out
out:
  ret %b
}
func @helper(%x) {
entry:
  %y = mul %x, 2
  ret %y
}
`

// TestVerifyErrorPaths corrupts a valid module through the API (the
// parser refuses to produce malformed modules, so these states can only
// arise from buggy transforms) and asserts each corruption yields its
// own distinct diagnostic.
func TestVerifyErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *Module)
		want    string
	}{
		{
			name: "duplicate function",
			corrupt: func(m *Module) {
				dup := m.NewFunc("helper", 1)
				b := dup.NewBlock("entry")
				b.Term = Terminator{Kind: TermRet, Val: 0}
			},
			want: "ir: duplicate function @helper",
		},
		{
			name: "stale block index",
			corrupt: func(m *Module) {
				m.FuncByName("main").Blocks[1].Index = 7
			},
			want: `ir: @main: block "out" has stale index 7 (want 1); call Reindex`,
		},
		{
			name: "out-of-range register",
			corrupt: func(m *Module) {
				f := m.FuncByName("main")
				f.Blocks[0].Instrs[0].Dst = Reg(99)
			},
			want: `ir: @main: block "entry": dst register 99 out of range [0,`,
		},
		{
			name: "dangling callee",
			corrupt: func(m *Module) {
				f := m.FuncByName("main")
				f.Calls[0].Callee = "ghost"
			},
			want: `ir: @main: block "entry": call to undefined function @ghost`,
		},
		{
			name: "empty function body",
			corrupt: func(m *Module) {
				m.FuncByName("helper").Blocks = nil
			},
			want: "ir: @helper: empty function body",
		},
		{
			name: "missing terminator",
			corrupt: func(m *Module) {
				m.FuncByName("main").Blocks[0].Term = Terminator{}
			},
			want: `ir: @main: block "entry" lacks a terminator`,
		},
		{
			name: "jump outside function",
			corrupt: func(m *Module) {
				m.FuncByName("main").Blocks[0].Term.Then = m.FuncByName("helper").Blocks[0]
			},
			want: `ir: @main: block "entry" jumps outside the function`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := MustParse(verifySrc)
			if err := m.Verify(); err != nil {
				t.Fatalf("base module must verify before corruption: %v", err)
			}
			tc.corrupt(m)
			err := m.Verify()
			if err == nil {
				t.Fatalf("corrupted module verified cleanly:\n%s", m)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Verify() = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestVerifyMessagesAreDistinct guards against error-path collapse: each
// corruption class must produce a distinguishable message, or a future
// triage session cannot tell failures apart.
func TestVerifyMessagesAreDistinct(t *testing.T) {
	corruptions := map[string]func(m *Module){
		"dup": func(m *Module) {
			f := m.NewFunc("main", 0)
			b := f.NewBlock("e")
			b.Term = Terminator{Kind: TermRet, Val: NoReg}
		},
		"stale":   func(m *Module) { m.FuncByName("main").Blocks[1].Index = 3 },
		"reg":     func(m *Module) { m.FuncByName("main").Blocks[0].Instrs[0].A = Reg(50) },
		"dangled": func(m *Module) { m.FuncByName("main").Calls[0].Callee = "nope" },
	}
	seen := make(map[string]string)
	for label, corrupt := range corruptions {
		m := MustParse(verifySrc)
		corrupt(m)
		err := m.Verify()
		if err == nil {
			t.Fatalf("%s: corrupted module verified cleanly", label)
		}
		msg := err.Error()
		if prev, ok := seen[msg]; ok {
			t.Errorf("corruptions %s and %s produce the identical message %q", prev, label, msg)
		}
		seen[msg] = label
	}
}
