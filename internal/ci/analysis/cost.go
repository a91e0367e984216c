// Package analysis implements the Compiler Interrupts analysis phase
// (§3 of the paper): control-flow-graph abstraction into hierarchical
// containers via a forward-chaining production-rule system (Figure 3),
// cost evaluation (Table 6), function cost optimization in call-graph
// order, the loop transform (§3.4), single-block loop cloning (§3.5),
// and CoreDet-style post-processing of unmatched regions (§3.6).
//
// The output is a set of probe marks and (for loops) rewritten control
// flow; the instrumentation phase (package instrument) turns marks into
// probe instructions of the configured design.
package analysis

import "fmt"

// CostKind classifies a static cost expression.
type CostKind uint8

const (
	// CostUnknown means the cost cannot be expressed statically.
	CostUnknown CostKind = iota
	// CostConst is a compile-time constant number of IR instructions.
	CostConst
	// CostAffine is C + Scale*param(Param): the parametric cost form
	// computed by our miniature scalar-evolution (§3.3).
	CostAffine
)

// Cost is a static IR-instruction cost expression: unknown, constant,
// or affine in one function parameter.
type Cost struct {
	Kind  CostKind
	C     int64
	Scale int64
	Param int
}

// Const returns a constant cost.
func Const(c int64) Cost { return Cost{Kind: CostConst, C: c} }

// Affine returns the cost c + scale*param.
func Affine(c, scale int64, param int) Cost {
	if scale == 0 {
		return Const(c)
	}
	return Cost{Kind: CostAffine, C: c, Scale: scale, Param: param}
}

// Unknown returns the unknown cost.
func Unknown() Cost { return Cost{Kind: CostUnknown} }

// IsConst reports whether the cost is a compile-time constant.
func (c Cost) IsConst() bool { return c.Kind == CostConst }

// Add returns c + d, degrading to Unknown when the sum is not
// representable (different parameters, or any operand unknown).
func (c Cost) Add(d Cost) Cost {
	switch {
	case c.Kind == CostUnknown || d.Kind == CostUnknown:
		return Unknown()
	case c.Kind == CostConst && d.Kind == CostConst:
		return Const(c.C + d.C)
	case c.Kind == CostConst:
		return Affine(c.C+d.C, d.Scale, d.Param)
	case d.Kind == CostConst:
		return Affine(c.C+d.C, c.Scale, c.Param)
	case c.Param == d.Param:
		return Affine(c.C+d.C, c.Scale+d.Scale, c.Param)
	default:
		return Unknown()
	}
}

// AddConst returns c + k.
func (c Cost) AddConst(k int64) Cost { return c.Add(Const(k)) }

// MulConst returns c * k, degrading to Unknown for unknown c.
func (c Cost) MulConst(k int64) Cost {
	switch c.Kind {
	case CostConst:
		return Const(c.C * k)
	case CostAffine:
		return Affine(c.C*k, c.Scale*k, c.Param)
	default:
		return Unknown()
	}
}

// Mul returns c * d when one side is constant; otherwise Unknown
// (quadratic costs are not representable).
func (c Cost) Mul(d Cost) Cost {
	switch {
	case c.Kind == CostConst:
		return d.MulConst(c.C)
	case d.Kind == CostConst:
		return c.MulConst(d.C)
	default:
		return Unknown()
	}
}

// Mean returns the integer mean of two constant costs (the paper's
// function g for branch summarization); Unknown otherwise.
func (c Cost) Mean(d Cost) Cost {
	if c.Kind == CostConst && d.Kind == CostConst {
		return Const((c.C + d.C) / 2)
	}
	return Unknown()
}

// Subst evaluates the cost at a call site: params maps the callee's
// parameter index to the caller-side cost of the argument (constant,
// affine in a caller parameter, or unknown).
func (c Cost) Subst(param func(int) Cost) Cost {
	if c.Kind != CostAffine {
		return c
	}
	arg := param(c.Param)
	return arg.MulConst(c.Scale).AddConst(c.C)
}

// DiffWithin reports whether |c - d| <= eps; requires both constant.
func (c Cost) DiffWithin(d Cost, eps int64) bool {
	if c.Kind != CostConst || d.Kind != CostConst {
		return false
	}
	diff := c.C - d.C
	if diff < 0 {
		diff = -diff
	}
	return diff <= eps
}

// String renders the cost for diagnostics.
func (c Cost) String() string {
	switch c.Kind {
	case CostConst:
		return fmt.Sprintf("%d", c.C)
	case CostAffine:
		return fmt.Sprintf("%d+%d*p%d", c.C, c.Scale, c.Param)
	default:
		return "?"
	}
}
