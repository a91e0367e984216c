package experiments

import (
	"fmt"
	"io"
)

// column is one table column: its header name, the verb for the name
// and any string cell ("%-18s"), and the verb for number and bool cells
// ("%11.1f%%"). A verb may carry literal text (" conns=%-5d").
type column struct{ name, head, cell string }

// table is a figure's printed form. Cells are ints, floats, bools and
// strings; a row of one string is a line of its own, and a table whose
// first column has no name has no header line.
type table struct {
	title []string
	cols  []column
	sep   string // between columns
	rows  [][]any
	notes []string
	// violation prefixes each printed gate violation ("" when the rows
	// show them); failures names them in the figure's error.
	violation, failures string
	// closing is written when the gate passes and no cell failed.
	closing []string
}

// figure joins a figure's measure, table and gate steps (a nil gate
// passes) into its ciexp entry.
func figure[R any](name string, measure func(Inputs) (R, []cellError, error),
	layout func(R, Inputs) *table, gate func(R, Inputs) []string) Figure {

	return Figure{name, func(w io.Writer, in Inputs) error {
		r, errs, err := measure(in)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var violations []string
		if gate != nil {
			violations = gate(r, in)
		}
		return layout(r, in).render(w, name, violations, errs)
	}}
}

// measured adapts a measure step with no configuration to reject.
func measured[R any](r R, errs []cellError) (R, []cellError, error) { return r, errs, nil }

// render writes the table, the gate's violations and the failed cells
// (nothing on a clean sweep), then the closing lines if all is well. It
// returns the figure's named error: the failed cells' first, else the gate's.
func (t *table) render(w io.Writer, name string, violations []string, errs []cellError) error {
	lines := func(prefix string, ls ...string) {
		for _, l := range ls {
			io.WriteString(w, prefix+l+"\n")
		}
	}
	lines("", t.title...)
	rows := t.rows
	if len(t.cols) > 0 && t.cols[0].name != "" {
		header := make([]any, len(t.cols))
		for i, c := range t.cols {
			header[i] = c.name
		}
		rows = append([][]any{header}, rows...)
	}
	for _, row := range rows {
		if s, ok := row[0].(string); ok && len(row) == 1 {
			lines("", s)
			continue
		}
		for i, v := range row {
			verb := t.cols[i].cell
			if _, ok := v.(string); ok {
				verb = t.cols[i].head
			}
			if i > 0 {
				io.WriteString(w, t.sep)
			}
			fmt.Fprintf(w, verb, v)
		}
		io.WriteString(w, "\n")
	}
	lines("", t.notes...)
	if t.violation != "" {
		lines(t.violation, violations...)
	}
	if len(errs) > 0 {
		fmt.Fprintf(w, "%d sweep cell(s) failed:\n", len(errs))
		for _, ce := range errs {
			fmt.Fprintf(w, "  %-24s %s\n", ce.Cell, ce.Err)
		}
		return fmt.Errorf("%s: %d sweep cell(s) failed", name, len(errs))
	}
	if len(violations) > 0 {
		return fmt.Errorf("%s: %d %s", name, len(violations), t.failures)
	}
	lines("", t.closing...)
	return nil
}
