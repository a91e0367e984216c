package analysis

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/ir"
)

// TestLayouts pins the sizes the compile path's memory is made of: an
// instruction keeps its probe operands inline and its call record in
// its function's table, and a leaf container its loop fields, so every
// instruction and every reachable block costs no more than these. An
// instruction was 80 bytes and a leaf 224 before; with its call and
// probe records behind two pointers an instruction was 40 bytes. It
// must also hold no pointer, so that the collector never scans an
// instruction array nor puts write barriers on its copies.
func TestLayouts(t *testing.T) {
	if n := unsafe.Sizeof(ir.Instr{}); n != 24 {
		t.Errorf("ir.Instr is %d bytes, want 24", n)
	}
	it := reflect.TypeOf(ir.Instr{})
	for i := 0; i < it.NumField(); i++ {
		if f := it.Field(i); !pointerFree(f.Type) {
			t.Errorf("ir.Instr.%s is a %s: an instruction must hold no pointer", f.Name, f.Type)
		}
	}
	if n := unsafe.Sizeof(Container{}); n > 104 {
		t.Errorf("a leaf Container is %d bytes, want at most 104", n)
	}
}

// pointerFree reports whether a value of type t holds no pointer: no
// pointer, slice, string, map, interface, func or chan, at any depth.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
		reflect.Interface, reflect.Func, reflect.Chan:
		return false
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
	}
	return true
}
