// Command deadexports (`go run ./cmd/deadexports .` in CI) fails on a
// func, method, var, const or struct field under internal/ that no
// command reaches. It type-checks every package, tests included, of the
// module at the root and of each one nested below it, and walks
// references from the roots: every main and init, and of each package
// a main links every var initialiser and every method that implements a
// named interface the scan sees; and the names in allow.txt, each with
// a reason.
//
// A func, method, var or const is live when a live body references it,
// a field when a live body reads it. An assignment's left side, ++ and
// --, a composite-literal key, and Add or Store on a sync/atomic value
// (not a pointer to one) with the result unused are writes. Embedded
// and tagged fields are exempt, and so are the fields of a struct that
// production code compares with == or != or uses as a map key.
//
// An option, a field of an exported …Config struct, that a live body
// reads must also be set by one: by an assignment, ++ or --, a
// composite-literal key or position, or &f. Inside the option's own
// package only a write of a non-constant value counts, since constant
// ones are the package's defaults.
//
// Tests are no caller, except in a test-support package, which only
// other packages' tests link. What only a nested module's main reaches
// or sets (benchmark/) is listed on stdout and does not fail. An
// allow.txt entry that names no finding is itself a finding.
package main

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed allow.txt
var allowList string

// parseAllow reads "name reason" lines; # starts a comment line.
func parseAllow(text string) (map[string]string, error) {
	allow := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if name, reason, _ := strings.Cut(strings.TrimSpace(line), " "); name != "" && name[0] != '#' {
			if allow[name] = strings.TrimSpace(reason); allow[name] == "" {
				return nil, fmt.Errorf("allow-list entry %s has no reason", name)
			}
		}
	}
	return allow, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// The root sets, in the order the walk adds them: a command of the
// scanned module (with every var initialiser and interface method of
// the packages it links), allow.txt, a nested module's main (likewise),
// and the tests. A declaration's level is the first set that reaches it.
const (
	unreached = iota
	command
	allowed
	nested
	tests
)

// rootKey is the pseudo-declaration whose references are roots of level l.
func rootKey(l int) string { return fmt.Sprint("root ", l) }

// A graph is every reference the scan sees: which declaration, keyed by
// its position (the same in every variant of its package), references
// which, with each root set's declarations and the fields exempt from
// the read rule.
type graph struct {
	fset   *token.FileSet
	dirs   map[string]string // import path → directory, for every scanned package
	edges  map[string][]string
	writes map[string][]string // the fields a declaration only writes
	sets   map[string][]string // the fields a declaration sets (see refs)
	roots  [tests + 1][]string
	exempt map[string]bool
}

// key is obj's declaration position, or "" when obj is not a
// declaration the scan tracks: it lies outside the scanned packages, or
// it is local to a func.
func (g *graph) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || g.dirs[obj.Pkg().Path()] == "" {
		return ""
	}
	if v, field := obj.(*types.Var); !(field && v.IsField()) && obj.Parent() != obj.Pkg().Scope() {
		if _, method := obj.(*types.Func); !method {
			return ""
		}
	}
	return g.fset.Position(obj.Pos()).String()
}

// exemptFields marks the fields of t's struct, and of the structs it
// holds by value, as read: comparing or hashing t reads them all.
func (g *graph) exemptFields(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if k := g.key(u.Field(i)); k != "" && !g.exempt[k] {
				g.exempt[k] = true
				g.exemptFields(u.Field(i).Type())
			}
		}
	case *types.Array:
		g.exemptFields(u.Elem())
	}
}

// refs adds an edge from the declaration from, of package pkg, to each
// declaration that n references; a field that n only writes goes to
// g.writes instead. A field n sets goes to g.sets as well: an
// assignment, ++ or --, a composite-literal key or position, or &f
// sets it, but in its own package only a write of a non-constant value
// does: constant ones are its defaults.
func (g *graph) refs(info *types.Info, pkg, from string, n ast.Node, production bool) {
	writes := map[*ast.Ident]bool{}
	write := func(e ast.Expr) {
		if s, ok := e.(*ast.SelectorExpr); ok {
			writes[s.Sel] = true
		}
	}
	isConst := func(e ast.Expr) bool { tv := info.Types[e]; return tv.Value != nil || tv.IsNil() }
	setField := func(f types.Object, constant bool) {
		if k := g.key(f); k != "" && (!constant || f.Pkg().Path() != pkg) {
			g.sets[from] = append(g.sets[from], k)
		}
	}
	set := func(e ast.Expr, constant bool) {
		if s, ok := e.(*ast.SelectorExpr); ok {
			setField(info.Uses[s.Sel], constant)
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				write(l)
				set(l, n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && isConst(n.Rhs[i]))
			}
		case *ast.IncDecStmt:
			write(n.X)
			set(n.X, false)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				set(n.X, false)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if s, ok := t.Underlying().(*types.Struct); ok {
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						setField(info.Uses[kv.Key.(*ast.Ident)], isConst(kv.Value))
					} else {
						setField(s.Field(i), isConst(e))
					}
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				writes[id] = true
			}
		case *ast.ExprStmt:
			if c, ok := n.X.(*ast.CallExpr); ok {
				if s, ok := c.Fun.(*ast.SelectorExpr); ok && (s.Sel.Name == "Add" || s.Sel.Name == "Store") {
					_, ptr := info.TypeOf(s.X).(*types.Pointer) // a pointer field is read to reach its target
					if m := info.Uses[s.Sel]; m != nil && m.Pkg() != nil && m.Pkg().Path() == "sync/atomic" && !ptr {
						write(s.X)
					}
				}
			}
		case *ast.BinaryExpr:
			if production && (n.Op == token.EQL || n.Op == token.NEQ) {
				g.exemptFields(info.TypeOf(n.X))
			}
		case *ast.MapType:
			if production {
				g.exemptFields(info.TypeOf(n.Key))
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if k := g.key(obj); k == "" {
			} else if v, ok := obj.(*types.Var); ok && v.IsField() && writes[n] {
				g.writes[from] = append(g.writes[from], k)
			} else {
				g.edges[from] = append(g.edges[from], k)
			}
		}
		return true
	})
}

// add records the references of files' declarations. A test file's
// references are roots of the tests; those of main, init and var
// initialisers, which run at start-up, are roots of the given level.
func (g *graph) add(info *types.Info, pkg string, files []*ast.File, level int) {
	for _, f := range files {
		if strings.HasSuffix(g.fset.Position(f.Pos()).Filename, "_test.go") {
			g.refs(info, pkg, rootKey(tests), f, false)
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				k := g.key(info.Defs[d.Name])
				if name := d.Name.Name; d.Recv == nil && (name == "init" || name == "main" && f.Name.Name == "main") {
					g.roots[level] = append(g.roots[level], k)
				}
				g.refs(info, pkg, k, d, true)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						g.refs(info, pkg, g.key(info.Defs[s.Name]), s, true)
					case *ast.ValueSpec:
						for i, name := range s.Names {
							if d.Tok == token.CONST {
								g.refs(info, pkg, g.key(info.Defs[name]), s, true)
							} else if i == 0 {
								g.refs(info, pkg, rootKey(level), s, true)
							}
						}
					}
				}
			}
		}
	}
}

// A candidate is a declaration under internal/ that the gate judges;
// an option is a field of an exported …Config struct.
type candidate struct {
	pkg, name, key string
	field, option  bool
}

// scan loads every package under root and returns its findings and the
// names only a nested module's main reaches, each sorted.
func scan(root string, allow map[string]string) (findings, nestedOnly []string, err error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	g := &graph{fset: fset, dirs: map[string]string{}, edges: map[string][]string{}, writes: map[string][]string{}, sets: map[string][]string{}, exempt: map[string]bool{}}
	base := map[string]*types.Package{} // the variant without tests, which every other package imports
	bps := map[string]*build.Package{}  // import path → its files, for every scanned package with Go files
	pkgLevel := map[string]int{}        // import path → the level of its roots
	conf := types.Config{}
	// check type-checks one variant of a package and adds the references
	// of its files from the skip-th on: each file is added once.
	check := func(path, dir string, names []string, skip int) (*types.Package, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		p, err := conf.Check(path, fset, files, info)
		if err == nil {
			pkg := strings.TrimSuffix(path, "_test")
			g.add(info, pkg, files[skip:], pkgLevel[pkg])
		}
		return p, err
	}
	conf.Importer = importerFunc(func(path string) (*types.Package, error) {
		if bps[path] == nil {
			return std.Import(path)
		} else if p, ok := base[path]; ok {
			return p, nil
		}
		p, err := check(path, bps[path].Dir, bps[path].GoFiles, 0)
		base[path] = p
		return p, err
	})

	mods := map[string][2]string{} // directory → its module's root directory and path
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		mod := mods[filepath.Dir(dir)]
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if f := strings.Fields(string(data)); len(f) > 1 && f[0] == "module" { // go.mod opens with it here
				mod = [2]string{dir, strings.Trim(f[1], `"`)}
			}
		}
		mods[dir] = mod
		rel, _ := filepath.Rel(mod[0], dir)
		g.dirs[filepath.ToSlash(filepath.Join(mod[1], rel))] = dir
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// A package's level is that of the first root set whose import
	// closure holds it: the scanned module's mains (command), a nested
	// module's mains (nested), other packages' tests (tests). A package
	// none of them links has no roots, and its own tests are no caller.
	for path, dir := range g.dirs {
		if bp, err := build.ImportDir(dir, 0); err == nil {
			bps[path] = bp
		} else if _, noGo := err.(*build.NoGoError); !noGo {
			return nil, nil, err
		}
	}
	var link func(path string, l int)
	link = func(path string, l int) {
		if bp := bps[path]; bp != nil && pkgLevel[path] == unreached {
			pkgLevel[path] = l
			for _, imp := range bp.Imports {
				link(imp, l)
			}
		}
	}
	for _, l := range []int{command, nested, tests} {
		for path, bp := range bps {
			if l != tests && bp.Name == "main" && (mods[bp.Dir][0] != mods[root][0]) == (l == nested) {
				link(path, l)
			}
			for _, imp := range append(bp.TestImports[:len(bp.TestImports):len(bp.TestImports)], bp.XTestImports...) {
				if l == tests && imp != path {
					link(imp, l)
				}
			}
		}
	}
	for path, bp := range bps {
		_, err := conf.Importer.Import(path)
		if err == nil {
			_, err = check(path, bp.Dir, append(bp.GoFiles[:len(bp.GoFiles):len(bp.GoFiles)], bp.TestGoFiles...), len(bp.GoFiles))
		}
		if err == nil {
			_, err = check(path+"_test", bp.Dir, bp.XTestGoFiles, 0)
		}
		if err != nil {
			return nil, nil, err
		}
	}

	// By method name, error and the named interfaces a scanned package declares
	// or imports: a method that implements one has callers the scan cannot see.
	ifaces := map[string][]*types.Interface{"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}}
	for _, p := range base {
		for _, q := range append(p.Imports(), p) {
			for _, name := range q.Scope().Names() {
				if t, ok := q.Scope().Lookup(name).Type().(*types.Named); ok && t.TypeParams().Len() == 0 {
					if it, ok := t.Underlying().(*types.Interface); ok {
						for i := 0; i < it.NumMethods(); i++ {
							ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
						}
					}
				}
			}
		}
	}
	var cands []candidate
	byName := map[string]string{} // allow-list name → declaration key
	own := map[string]bool{}      // the declarations of packages under internal/
	for path, p := range base {
		judged := strings.Contains(path, "/internal/")
		judge := func(name string, obj types.Object, field, option bool) {
			if k := g.key(obj); judged && k != "" {
				cands = append(cands, candidate{path, path + "." + name, k, field, option})
				byName[path+"."+name], own[k] = k, true
				if allow[path+"."+name] != "" {
					g.roots[allowed] = append(g.roots[allowed], k)
				}
			}
		}
		for _, name := range p.Scope().Names() {
			own[g.key(p.Scope().Lookup(name))] = judged
			switch obj := p.Scope().Lookup(name).(type) {
			case *types.Func:
				if name != "main" {
					judge(name, obj, false, false)
				}
			case *types.Var, *types.Const:
				judge(name, obj, false, false)
			case *types.TypeName:
				t, _ := obj.Type().(*types.Named)
				for i := 0; !obj.IsAlias() && i < t.NumMethods(); i++ {
					m := t.Method(i)
					for _, it := range ifaces[m.Name()] {
						if t.TypeParams().Len() == 0 && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
							g.roots[pkgLevel[path]] = append(g.roots[pkgLevel[path]], g.key(m))
							break
						}
					}
					judge(name+"."+m.Name(), m, false, false)
				}
				if s, ok := obj.Type().Underlying().(*types.Struct); ok && !obj.IsAlias() {
					for i := 0; i < s.NumFields(); i++ {
						if f := s.Field(i); !f.Anonymous() && f.Name() != "_" && s.Tag(i) == "" {
							judge(name+"."+f.Name(), f, true, obj.Exported() && strings.HasSuffix(name, "Config"))
						}
					}
				}
			}
		}
	}

	// Walk each root set in turn; a declaration keeps the first level that
	// reaches it. A field that only code a nested module reaches writes
	// leaves with that code, so the nested walk follows writes too.
	level := map[string]int{}
	for l := command; l <= tests; l++ {
		for stack := append([]string{rootKey(l)}, g.roots[l]...); len(stack) > 0; {
			k := stack[len(stack)-1]
			if stack = stack[:len(stack)-1]; level[k] == unreached {
				level[k], stack = l, append(stack, g.edges[k]...)
				if l == nested {
					stack = append(stack, g.writes[k]...)
				}
			}
		}
	}
	// Of what only a nested module reaches, list the names its own code,
	// or a var initialiser of a package only it links, uses; the rest is
	// reached through them.
	direct := map[string]bool{}
	for from, tos := range g.edges {
		for _, to := range tos {
			direct[to] = direct[to] || level[from] == nested && !own[from]
		}
	}
	// An option a command reads must be set by a command: what only a
	// nested module's code sets is listed, what nothing live sets fails.
	setBy := map[string]int{}
	for from, ks := range g.sets {
		for _, k := range ks {
			if l := level[from]; l == command || l == nested && setBy[k] != command {
				setBy[k] = l
			}
		}
	}
	unset := map[string]bool{} // the options a command reads and does not set
	for _, c := range cands {
		switch l := level[c.key]; {
		case c.field && g.exempt[c.key], l == allowed, l == tests && pkgLevel[c.pkg] == tests:
		case l == command:
			if !c.option || setBy[c.key] == command {
			} else if unset[c.name] = true; allow[c.name] != "" {
			} else if setBy[c.key] == nested {
				nestedOnly = append(nestedOnly, "sets "+c.name)
			} else {
				findings = append(findings, fmt.Sprintf("%s: %s: no command sets it", c.key, c.name))
			}
		case l == nested:
			if direct[c.key] {
				nestedOnly = append(nestedOnly, "reaches "+c.name)
			}
		default:
			findings = append(findings, fmt.Sprintf("%s: %s: no command %s it", c.key, c.name, map[bool]string{false: "reaches", true: "reads"}[c.field]))
		}
	}
	for name := range allow {
		slash := strings.LastIndex(name, "/") + 1
		if pkg, _, _ := strings.Cut(name[slash:], "."); base[name[:slash]+pkg] != nil && (byName[name] == "" || level[byName[name]] == command && !unset[name]) {
			findings = append(findings, fmt.Sprintf("allow.txt: %s is not a finding; remove the entry", name))
		}
	}
	sort.Strings(findings)
	sort.Strings(nestedOnly)
	return findings, nestedOnly, nil
}

func main() {
	root := append(os.Args[1:], ".")[0] // the first argument, or the working directory
	allow, err := parseAllow(allowList)
	var findings, nestedOnly []string
	if err == nil {
		findings, nestedOnly, err = scan(filepath.Clean(root), allow)
	}
	if err != nil {
		findings = append(findings, err.Error())
	}
	for _, n := range nestedOnly {
		fmt.Println("deadexports: only a nested module's own code", n)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, "deadexports:", f)
	}
	if len(findings) > 0 {
		os.Exit(1) // delete each finding, move it into its tests, or allow-list it
	}
	fmt.Printf("deadexports: every func, method, var, const and field under internal/ is reached from a command, and every option set by one (%d allow-listed)\n", len(allow))
}
