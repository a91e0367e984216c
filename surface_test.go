// Surface ledger: how much exported API the tree carries, and how much
// of it nothing outside tests needs. Every package under the module
// root (testdata and dot directories aside) is type-checked from
// source, first without and then with its test files, and each exported
// identifier of a non-main package is classified by its users:
//
//	(c) no non-test user outside its package (reported only);
//	(b) no non-test user anywhere;
//	(a) no user at all;
//	unset knob: an exported field of a *Config or *Options struct that
//	    no non-test code outside its package writes.
//
// Main packages (cmd/*, benchmark/) are users, never subjects. A method
// that satisfies an interface declared in the module, or is
// String() string or Error() string, counts as used.
//
// The per-package counts are committed as testdata/surface.golden. An
// identifier in (a) fails the test; one in (b) or an unset knob fails it
// unless testdata/surface_allow.txt has a line "pkg.Name<TAB>reason"
// for it, and an allow line whose identifier is no longer flagged fails
// it too, so the list only shrinks. Regenerate the golden with
//
//	go test . -run Surface -update-surface
package repro

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/surface.golden from the current tree")

const (
	surfaceGolden = "testdata/surface.golden"
	surfaceAllow  = "testdata/surface_allow.txt"
)

// srcPkg is one directory of the module, parsed.
type srcPkg struct {
	path, rel, name string
	files           []*ast.File // non-test files
	tests           []*ast.File // _test.go files of the same package
	xtests          []*ast.File // _test.go files of package name_test
	lines           int         // lines of the non-test files
	imports         []string    // module packages the non-test files import
	checked         *types.Package
}

// The ledger's columns, in golden order.
const (
	colNoExternal = iota // (c) no non-test user outside its package
	colNoNonTest         // (b) no non-test user
	colUnused            // (a) no user
	colUnset             // a knob no non-test code outside its package writes
	numCols
)

var colNames = [numCols]string{"(c)", "(b)", "(a)", "unset"}

// surfaceIdent is one exported identifier of a subject package and the
// columns it counts in.
type surfaceIdent struct {
	pkg  *srcPkg
	name string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	in   [numCols]bool
}

type surfaceLedger struct {
	pkgs   []*srcPkg // every package, in import-path order
	idents []*surfaceIdent
}

// loadSurface parses and type-checks the module at root, whose module
// path is modPath, and classifies its exported identifiers.
func loadSurface(root, modPath string) (*surfaceLedger, error) {
	fset := token.NewFileSet()
	byPath := map[string]*srcPkg{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		rel = filepath.ToSlash(rel)
		path := modPath
		if rel != "." {
			path += "/" + rel
		}
		pkg := byPath[path]
		if pkg == nil {
			pkg = &srcPkg{path: path, rel: rel}
			byPath[path] = pkg
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			pkg.name = f.Name.Name
			pkg.files = append(pkg.files, f)
			pkg.lines += bytes.Count(src, []byte{'\n'})
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					pkg.imports = append(pkg.imports, ip)
				}
			}
		case strings.HasSuffix(f.Name.Name, "_test"):
			pkg.xtests = append(pkg.xtests, f)
		default:
			pkg.tests = append(pkg.tests, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Standard-library imports resolve to empty, complete packages and
	// the type errors that follow are ignored: only the module's own
	// objects are classified, and their uses still resolve.
	stubs := map[string]*types.Package{}
	importer := func(own map[string]*types.Package) types.Importer {
		return importerFunc(func(path string) (*types.Package, error) {
			if p := own[path]; p != nil {
				return p, nil
			}
			if p := byPath[path]; p != nil && p.checked != nil {
				return p.checked, nil
			}
			if stubs[path] == nil {
				stubs[path] = types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
				stubs[path].MarkComplete()
			}
			return stubs[path], nil
		})
	}
	check := func(path string, files []*ast.File, own map[string]*types.Package) (*types.Package, *types.Info) {
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: importer(own), Error: func(error) {}}
		p, _ := conf.Check(path, fset, files, info)
		return p, info
	}

	// Objects are keyed by declaration position, so that the checks
	// with and without test files agree on them, and a method or field
	// of a generic instantiation counts for its origin.
	type use struct {
		from *srcPkg
		test bool
	}
	type write struct {
		from *srcPkg
		via  token.Pos // the functional option that makes the write, if any
	}
	uses := map[token.Pos][]use{}
	writes := map[token.Pos][]write{}
	record := func(from *srcPkg, info *types.Info, testOnly bool) {
		for id, obj := range info.Uses {
			test := strings.HasSuffix(fset.File(id.Pos()).Name(), "_test.go")
			if testOnly && !test {
				continue
			}
			uses[obj.Pos()] = append(uses[obj.Pos()], use{from, test})
		}
	}

	var paths []string
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	done := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		p := byPath[path]
		if p == nil || done[path] {
			return
		}
		done[path] = true
		for _, ip := range p.imports {
			visit(ip)
		}
		if len(p.files) == 0 {
			return
		}
		var info *types.Info
		p.checked, info = check(p.path, p.files, nil)
		record(p, info, false)
		for _, f := range p.files {
			fieldWrites(f, info, func(field, via token.Pos) {
				writes[field] = append(writes[field], write{p, via})
			})
		}
	}
	for _, path := range paths {
		visit(path)
	}
	for _, path := range paths {
		p := byPath[path]
		withTests := p.checked
		if len(p.tests) > 0 {
			var info *types.Info
			withTests, info = check(p.path, append(append([]*ast.File{}, p.files...), p.tests...), nil)
			record(p, info, true)
		}
		if len(p.xtests) > 0 {
			_, info := check(p.path+"_test", p.xtests, map[string]*types.Package{p.path: withTests})
			record(p, info, true)
		}
	}

	l := &surfaceLedger{}
	implied := impliedMethods(byPath)
	for _, path := range paths {
		p := byPath[path]
		l.pkgs = append(l.pkgs, p)
		if p.checked == nil || p.name == "main" {
			continue
		}
		external := func(pos token.Pos) bool {
			for _, u := range uses[pos] {
				if !u.test && u.from != p {
					return true
				}
			}
			return implied[pos]
		}
		add := func(name string, obj types.Object, knob bool) {
			used, nonTest := implied[obj.Pos()], implied[obj.Pos()]
			for _, u := range uses[obj.Pos()] {
				used = true
				nonTest = nonTest || !u.test
			}
			set := false
			for _, w := range writes[obj.Pos()] {
				set = set || w.from != p || (w.via.IsValid() && external(w.via))
			}
			l.idents = append(l.idents, &surfaceIdent{pkg: p, name: p.name + "." + name,
				in: [numCols]bool{!external(obj.Pos()), !nonTest, !used, knob && !set}})
		}
		scope := p.checked.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			add(n, obj, false)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					add(n+"."+m.Name(), m, false)
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				knob := strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options")
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() {
						add(n+"."+f.Name(), f, knob)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						add(n+"."+m.Name(), m, false)
					}
				}
			}
		}
	}
	return l, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// fieldWrites reports each struct field f writes: composite-literal
// keys, assignment and ++/-- targets, and fields whose address it
// takes. A write inside an exported function that returns a function
// (a functional option) reports that function as via, since its callers
// choose the value.
func fieldWrites(f *ast.File, info *types.Info, report func(field, via token.Pos)) {
	for _, decl := range f.Decls {
		via := token.NoPos
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				res := fn.Type().(*types.Signature).Results()
				if res.Len() == 1 {
					if _, ok := res.At(0).Type().Underlying().(*types.Signature); ok {
						via = fn.Pos()
					}
				}
			}
		}
		field := func(e ast.Expr) {
			var id *ast.Ident
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				id = e.Sel
			case *ast.Ident:
				id = e
			}
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				report(v.Pos(), via)
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if _, ok := lhs.(*ast.SelectorExpr); ok {
						field(lhs)
					}
				}
			case *ast.IncDecStmt:
				field(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := n.X.(*ast.SelectorExpr); ok {
						field(n.X)
					}
				}
			case *ast.KeyValueExpr:
				field(n.Key)
			}
			return true
		})
	}
}

// impliedMethods is the set of methods used without being named: those
// that satisfy a non-empty interface declared in the module, and
// String() string and Error() string.
func impliedMethods(byPath map[string]*srcPkg) map[token.Pos]bool {
	var ifaces []*types.Interface
	var named []*types.Named
	for _, p := range byPath {
		if p.checked == nil {
			continue
		}
		scope := p.checked.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t, ok := tn.Type().(*types.Named)
			if !ok || t.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := t.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else {
				named = append(named, t)
			}
		}
	}
	out := map[token.Pos]bool{}
	for _, t := range named {
		for i := 0; i < t.NumMethods(); i++ {
			m := t.Method(i)
			sig := m.Type().(*types.Signature)
			if (m.Name() == "String" || m.Name() == "Error") && sig.Params().Len() == 0 &&
				sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
				out[m.Pos()] = true
			}
		}
		ptr := types.NewPointer(t)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if m, _, _ := types.LookupFieldOrMethod(ptr, false, t.Obj().Pkg(), it.Method(i).Name()); m != nil {
					out[m.Pos()] = true
				}
			}
		}
	}
	return out
}

// table renders the per-package counts with a total row; the total's
// lines include the main packages.
func (l *surfaceLedger) table() string {
	importers := map[string]int{}
	for _, p := range l.pkgs {
		seen := map[string]bool{p.path: true}
		for _, ip := range p.imports {
			if !seen[ip] {
				seen[ip] = true
				importers[ip]++
			}
		}
	}
	type row struct {
		lines, exported int
		n               [numCols]int
	}
	rows := map[*srcPkg]*row{}
	var total row
	for _, p := range l.pkgs {
		total.lines += p.lines
	}
	for _, id := range l.idents {
		if rows[id.pkg] == nil {
			rows[id.pkg] = &row{lines: id.pkg.lines}
		}
		for _, r := range []*row{rows[id.pkg], &total} {
			r.exported++
			for c, in := range id.in {
				if in {
					r.n[c]++
				}
			}
		}
	}
	var b strings.Builder
	line := func(name string, r row, importers string) {
		s := fmt.Sprintf("%-26s %6d %8d %6d %6d %6d %6d %9s", name, r.lines, r.exported, r.n[0], r.n[1], r.n[2], r.n[3], importers)
		b.WriteString(strings.TrimRight(s, " ") + "\n")
	}
	fmt.Fprintf(&b, "%-26s %6s %8s %6s %6s %6s %6s %9s\n", "package", "lines", "exported",
		colNames[0], colNames[1], colNames[2], colNames[3], "importers")
	for _, p := range l.pkgs {
		if r := rows[p]; r != nil {
			line(p.rel, *r, strconv.Itoa(importers[p.path]))
		}
	}
	line("total", total, "")
	return b.String()
}

// readSurfaceAllow reads the allow-list: one "pkg.Name<TAB>reason" line
// per identifier, with blank lines and # comments skipped.
func readSurfaceAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, ok := strings.Cut(text, "\t")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name<TAB>reason\", got %q", path, n, text)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

func TestSurfaceLedger(t *testing.T) {
	l, err := loadSurface(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	got := l.table()
	if *updateSurface {
		if err := os.WriteFile(surfaceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(surfaceGolden); err != nil {
		t.Fatal(err)
	} else if got != string(want) {
		t.Errorf("surface ledger differs from %s; regenerate with -update-surface and review the diff:\n%s", surfaceGolden, got)
	}

	allow, err := readSurfaceAllow(surfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range l.idents {
		_, listed := allow[id.name]
		delete(allow, id.name)
		flagged := id.in[colNoNonTest] || id.in[colUnset]
		switch {
		case id.in[colUnused]:
			t.Errorf("%s has no user at all: delete it (column (a) takes no allow-list line)", id.name)
		case flagged && !listed:
			what := "has no non-test user: delete it"
			if !id.in[colNoNonTest] {
				what = "is a knob no non-test code outside its package sets: make it a constant"
			}
			t.Errorf("%s %s, or give it a reasoned line in %s", id.name, what, surfaceAllow)
		case listed && !flagged:
			t.Errorf("%s is no longer flagged: delete its line from %s", id.name, surfaceAllow)
		}
	}
	for name := range allow {
		t.Errorf("%s: %s names no exported identifier: delete the line", name, surfaceAllow)
	}
}

// TestSurfaceRules checks the classifier on testdata/surfacefix, where
// each exported name is one rule's case.
func TestSurfaceRules(t *testing.T) {
	l, err := loadSurface("testdata/surfacefix", "surfacefix")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"surfacefix.Doer":        "",
		"surfacefix.Doer.Do":     "",
		"surfacefix.Impl":        "",
		"surfacefix.Impl.Do":     "", // satisfies Doer
		"surfacefix.Impl.String": "", // String() string
		"surfacefix.Box":         "",
		"surfacefix.Box.Get":     "", // called on Box[int]
		"surfacefix.Config":      "",
		"surfacefix.Config.Set":  "",
		"surfacefix.Config.Read": "unset", // read, never written
		"surfacefix.Local":       "(c)",
		"surfacefix.TestOnly":    "(c) (b)", // a test's use is not a user
		"surfacefix.Dead":        "(c) (b) (a)",
	}
	got := map[string]string{}
	for _, id := range l.idents {
		var cols []string
		for c, in := range id.in {
			if in {
				cols = append(cols, colNames[c])
			}
		}
		got[id.name] = strings.Join(cols, " ")
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: not listed", name)
		} else if g != w {
			t.Errorf("%s: columns %q, want %q", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: listed, but the fixture has no such case", name)
		}
	}
}
