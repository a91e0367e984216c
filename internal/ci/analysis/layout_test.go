package analysis

import (
	"testing"
	"unsafe"

	"repro/internal/ir"
)

// TestLayouts pins the sizes the compile path's memory is made of: an
// instruction keeps its call and probe records behind pointers, and a
// leaf container its loop fields, so every instruction and every
// reachable block costs no more than these. An instruction was 80 bytes
// and a leaf 224 before.
func TestLayouts(t *testing.T) {
	if n := unsafe.Sizeof(ir.Instr{}); n > 40 {
		t.Errorf("ir.Instr is %d bytes, want at most 40", n)
	}
	if n := unsafe.Sizeof(Container{}); n > 104 {
		t.Errorf("a leaf Container is %d bytes, want at most 104", n)
	}
}
