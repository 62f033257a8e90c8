// Command deadcode fails when an exported function or method declared in a
// non-test file of a package under internal/ has no reference from non-test
// code. References count from this module and from the nested
// internal/bench/perf module, whose harness drives the library. A method
// that implements an interface counts as reached, since a call through the
// interface names only the interface: interfaces declared in either module
// or in a standard-library package they import, error, and the Unwrap
// methods errors.Is and errors.As call.
//
// Run it from the repository root:
//
//	go run ./scripts/deadcode
//
// It prints file:line for each unreached function and exits 1 if there is
// any. The packages that exist to serve tests are allowlisted.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// modules are the modules whose non-test code counts as a reference, with
// their directories relative to the repository root. Only the first one's
// internal/ packages are checked.
var modules = []struct{ path, dir string }{
	{"github.com/mdz/mdz", "."},
	{"github.com/mdz/mdz/internal/bench/perf", "internal/bench/perf"},
}

// allowlist holds the package directories whose exported functions serve
// tests only.
var allowlist = map[string]bool{
	"internal/faultio":         true,
	"internal/codec/codectest": true,
}

// pkg is one type-checked package of non-test files.
type pkg struct {
	dir     string // slash-separated, relative to the repository root
	checked bool   // its exported functions must have a reference
	files   []*ast.File
	info    *types.Info
	types   *types.Package
}

// loader type-checks module packages from source, imports first, all in one
// type universe, so objects and interfaces compare across modules. The
// standard library goes through the source importer.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg // by import path; types is nil until loaded
}

func main() {
	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
	for i, m := range modules {
		if err := l.scan(m.path, m.dir, i == 0); err != nil {
			fail(err)
		}
	}
	for path := range l.pkgs {
		if _, err := l.load(path); err != nil {
			fail(err)
		}
	}

	used := map[*types.Func]bool{}
	ifaces := dynamicIfaces()
	seen := map[*types.Package]bool{}
	var collect func(tp *types.Package)
	collect = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			collect(imp)
		}
	}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		collect(p.types)
	}

	var dead []string
	for _, p := range l.pkgs {
		if !p.checked || allowlist[p.dir] {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if used[fn] || implements(fn, ifaces) {
					continue
				}
				pos := fset.Position(fd.Name.Pos())
				dead = append(dead, fmt.Sprintf("%s:%d: %s has no non-test reference", pos.Filename, pos.Line, fn.FullName()))
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d exported functions are reached only from tests: delete them, or move test oracles into _test.go files\n", len(dead))
		os.Exit(1)
	}
}

// dynamicIfaces returns the interfaces the standard library asserts without
// naming them: error, and the Unwrap methods errors.Is and errors.As walk.
func dynamicIfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := func(res types.Type) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", res)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()
	}
	return []*types.Interface{errType.Underlying().(*types.Interface), unwrap(errType), unwrap(types.NewSlice(errType))}
}

// implements reports whether method fn implements a method of one of
// ifaces.
func implements(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(recv.Type(), it) {
				return true
			}
		}
	}
	return false
}

// scan registers every package of the module at dir, skipping testdata and
// nested modules. internal marks the module whose internal/ packages are
// checked.
func (l *loader) scan(modPath, dir string, internal bool) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != dir {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		p := &pkg{dir: filepath.ToSlash(path), info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		p.checked = internal && strings.HasPrefix(p.dir, "internal/")
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(path, name), nil, 0)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		rel, _ := filepath.Rel(dir, path)
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		l.pkgs[ip] = p
		return nil
	})
}

// load type-checks the package at import path after the module packages it
// imports.
func (l *loader) load(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.types == nil {
		conf := types.Config{Importer: importerFunc(l.load)}
		t, err := conf.Check(path, l.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = t
	}
	return p.types, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func fail(err error) {
	fmt.Fprintln(os.Stderr, "deadcode:", err)
	os.Exit(2)
}
