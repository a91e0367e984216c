package analysis

import (
	"testing"
	"testing/quick"
)

func TestCostAlgebraBasics(t *testing.T) {
	c5, c7 := Const(5), Const(7)
	if got := c5.Add(c7); !got.IsConst() || got.C != 12 {
		t.Errorf("5+7 = %v", got)
	}
	if got := c5.MulConst(3); got.C != 15 {
		t.Errorf("5*3 = %v", got)
	}
	a := Affine(2, 3, 0) // 2 + 3p0
	if got := a.Add(c5); got.Kind != CostAffine || got.C != 7 || got.Scale != 3 {
		t.Errorf("affine+const = %v", got)
	}
	if got := a.Add(Affine(1, 1, 0)); got.C != 3 || got.Scale != 4 {
		t.Errorf("affine+affine same param = %v", got)
	}
	if got := a.Add(Affine(1, 1, 1)); got.Kind != CostUnknown {
		t.Errorf("affine+affine different params must be unknown, got %v", got)
	}
	if got := a.MulConst(2); got.C != 4 || got.Scale != 6 {
		t.Errorf("affine*2 = %v", got)
	}
	if got := a.Mul(Affine(0, 1, 0)); got.Kind != CostUnknown {
		t.Errorf("affine*affine must be unknown, got %v", got)
	}
	if got := Unknown().Add(c5); got.Kind != CostUnknown {
		t.Errorf("unknown+const must be unknown, got %v", got)
	}
	if Affine(3, 0, 2).Kind != CostConst {
		t.Error("zero-scale affine should normalize to const")
	}
}

func TestCostMeanAndDiff(t *testing.T) {
	if got := Const(10).Mean(Const(20)); got.C != 15 {
		t.Errorf("mean = %v", got)
	}
	if got := Const(10).Mean(Affine(1, 1, 0)); got.Kind != CostUnknown {
		t.Errorf("mean with affine must be unknown, got %v", got)
	}
	if !Const(10).DiffWithin(Const(14), 4) || Const(10).DiffWithin(Const(15), 4) {
		t.Error("DiffWithin boundary wrong")
	}
	if !Const(14).DiffWithin(Const(10), 4) {
		t.Error("DiffWithin must be symmetric")
	}
	if Affine(0, 1, 0).DiffWithin(Const(0), 100) {
		t.Error("DiffWithin requires const operands")
	}
}

func TestCostSubst(t *testing.T) {
	a := Affine(10, 2, 1) // 10 + 2*p1
	got := a.Subst(func(p int) Cost {
		if p == 1 {
			return Const(7)
		}
		return Unknown()
	})
	if !got.IsConst() || got.C != 24 {
		t.Errorf("subst const = %v", got)
	}
	got = a.Subst(func(p int) Cost { return Affine(0, 1, 3) })
	if got.Kind != CostAffine || got.C != 10 || got.Scale != 2 || got.Param != 3 {
		t.Errorf("subst param-passthrough = %v", got)
	}
	got = a.Subst(func(p int) Cost { return Unknown() })
	if got.Kind != CostUnknown {
		t.Errorf("subst unknown = %v", got)
	}
	if got := Const(5).Subst(func(int) Cost { return Unknown() }); got.C != 5 {
		t.Errorf("subst on const must be identity, got %v", got)
	}
}

// Property: Add is commutative and associative on the const/affine
// fragment, and MulConst distributes over Add.
func TestQuickCostLaws(t *testing.T) {
	mk := func(kind uint8, c, s int64, p uint8) Cost {
		switch kind % 3 {
		case 0:
			return Const(c % 1000)
		case 1:
			return Affine(c%1000, s%50, int(p%2))
		default:
			return Unknown()
		}
	}
	comm := func(k1 uint8, c1, s1 int64, p1 uint8, k2 uint8, c2, s2 int64, p2 uint8) bool {
		a, b := mk(k1, c1, s1, p1), mk(k2, c2, s2, p2)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("Add not commutative: %v", err)
	}
	dist := func(k1 uint8, c1, s1 int64, p1 uint8, k2 uint8, c2, s2 int64, p2 uint8, m int64) bool {
		a, b := mk(k1, c1, s1, p1), mk(k2, c2, s2, p2)
		m %= 20
		if m == 0 {
			// Unknown is absorbing: (unknown)*0 stays unknown while
			// 0+0 is Const(0), so distributivity only holds for m != 0.
			m = 1
		}
		lhs := a.Add(b).MulConst(m)
		rhs := a.MulConst(m).Add(b.MulConst(m))
		return lhs == rhs
	}
	if err := quick.Check(dist, nil); err != nil {
		t.Errorf("MulConst does not distribute: %v", err)
	}
}

func TestExportImportCosts(t *testing.T) {
	tbl := CostTable{
		"f": {Name: "f", Instrumented: true, Cost: Unknown()},
		"g": {Name: "g", Instrumented: false, Cost: Const(42)},
		"h": {Name: "h", Instrumented: false, Cost: Affine(3, 5, 1)},
	}
	data, err := ExportCosts(tbl)
	if err != nil {
		t.Fatalf("ExportCosts: %v", err)
	}
	got, err := ImportCosts(data)
	if err != nil {
		t.Fatalf("ImportCosts: %v", err)
	}
	if len(got) != len(tbl) {
		t.Fatalf("imported %d entries, want %d", len(got), len(tbl))
	}
	for name, fi := range tbl {
		if got[name] != fi {
			t.Errorf("entry %s = %+v, want %+v", name, got[name], fi)
		}
	}
	if _, err := ImportCosts([]byte("{")); err == nil {
		t.Error("ImportCosts accepted malformed JSON")
	}
	if _, err := ImportCosts([]byte(`{"version": 99}`)); err == nil {
		t.Error("ImportCosts accepted wrong version")
	}
}
