// Command deadexports (`go run ./cmd/deadexports .` in CI) fails on a
// func or method under internal/, exported or not, or an exported var or
// const there, that nothing outside its package's tests references; a
// call from inside a func's own body is not a reference. It type-checks
// every package, tests included, of the module at the root and of each
// one nested below it. Exempt are main and init, a method that
// implements a named interface the scan sees, and the names in
// allow.txt with a reason each; an entry that names no finding in a
// scanned package is itself a finding.
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

// scan loads every package under root and returns its findings, sorted.
func scan(root string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	dirs := map[string]string{}              // import path → directory, for every scanned package
	base := map[string]*types.Package{}      // the variant without tests, which every other package imports
	used := map[string]bool{}                // declaration position, the same in every variant → referenced outside its package's tests
	bodies := map[token.Pos]*ast.BlockStmt{} // a func's name → its body, whose calls to the func are recursion
	conf := types.Config{}
	check := func(path, dir string, names []string) (*types.Package, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					bodies[fd.Name.Pos()] = fd.Body
				}
			}
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		p, err := conf.Check(path, fset, files, info)
		for id, obj := range info.Uses {
			if body := bodies[obj.Pos()]; body != nil && body.Pos() <= id.Pos() && id.Pos() < body.End() {
				continue // a recursive call is not a caller
			}
			if obj.Pkg() != nil && dirs[obj.Pkg().Path()] != "" {
				use, decl := fset.Position(id.Pos()).Filename, fset.Position(obj.Pos())
				used[decl.String()] = used[decl.String()] || !strings.HasSuffix(use, "_test.go") || filepath.Dir(use) != filepath.Dir(decl.Filename)
			}
		}
		return p, err
	}
	conf.Importer = importerFunc(func(path string) (*types.Package, error) {
		if dirs[path] == "" {
			return std.Import(path)
		} else if p, ok := base[path]; ok {
			return p, nil
		}
		bp, err := build.ImportDir(dirs[path], 0)
		if err == nil {
			base[path], err = check(path, bp.Dir, bp.GoFiles)
		}
		return base[path], err
	})

	mods := map[string][2]string{} // directory → its module's root directory and path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
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
		dirs[filepath.ToSlash(filepath.Join(mod[1], rel))] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range dirs {
		bp, err := build.ImportDir(dirs[path], 0)
		if _, noGo := err.(*build.NoGoError); noGo {
			continue
		}
		if err == nil {
			_, err = conf.Importer.Import(path)
		}
		if err == nil {
			_, err = check(path, bp.Dir, append(bp.GoFiles[:len(bp.GoFiles):len(bp.GoFiles)], bp.TestGoFiles...))
		}
		if err == nil {
			_, err = check(path+"_test", bp.Dir, bp.XTestGoFiles)
		}
		if err != nil {
			return nil, err
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

	var findings []string
	found := map[string]bool{}
	report := func(key string, obj types.Object) {
		pos := fset.Position(obj.Pos())
		if found[key] = !used[pos.String()] && strings.Contains(key, "/internal/"); found[key] && allow[key] == "" {
			findings = append(findings, fmt.Sprintf("%s: %s has no reference outside its own package's tests", pos, key))
		}
	}
	for path, p := range base {
		for _, name := range p.Scope().Names() {
			switch obj := p.Scope().Lookup(name).(type) {
			case *types.Func:
				if name != "main" && name != "init" {
					report(path+"."+name, obj)
				}
			case *types.Var, *types.Const:
				if obj.Exported() {
					report(path+"."+name, obj)
				}
			case *types.TypeName:
				t, _ := obj.Type().(*types.Named)
				for i := 0; !obj.IsAlias() && i < t.NumMethods(); i++ {
					m, viaInterface := t.Method(i), false
					for _, it := range ifaces[m.Name()] {
						viaInterface = viaInterface || t.TypeParams().Len() == 0 && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it))
					}
					if !viaInterface {
						report(path+"."+name+"."+m.Name(), m)
					}
				}
			}
		}
	}
	for key := range allow {
		slash := strings.LastIndex(key, "/") + 1
		if pkg, _, _ := strings.Cut(key[slash:], "."); base[key[:slash]+pkg] != nil && !found[key] {
			findings = append(findings, fmt.Sprintf("allow.txt: %s is not a finding; remove the entry", key))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

func main() {
	root := append(os.Args[1:], ".")[0] // the first argument, or the working directory
	allow, err := parseAllow(allowList)
	var findings []string
	if err == nil {
		findings, err = scan(filepath.Clean(root), allow)
	}
	if err != nil {
		findings = append(findings, err.Error())
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, "deadexports:", f)
	}
	if len(findings) > 0 {
		os.Exit(1) // delete each finding, move it into its tests, or allow-list it
	}
	fmt.Printf("deadexports: every func, method and exported name under internal/ has a checked caller (%d allow-listed)\n", len(allow))
}
