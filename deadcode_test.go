package repro

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// testOnlyFixtures are production symbols that only tests reach, kept in
// production code because the tests of several packages share them (a
// _test.go file is visible to its own package only).
var testOnlyFixtures = map[string]string{
	"repro/internal/mach.R_":                 "integer register operands of hand-written machine code in the mach, sched and vm tests",
	"repro/internal/mach.FR":                 "float register operands of hand-written machine code in the mach and vm tests",
	"(*repro/internal/server.Server).Handle": "serves one request without a connection in the server tests and the root benchmarks",
	"repro/internal/debugger.New":            "a debugger over a bare compile.Result in the artstore and compile tests and the root benchmarks",
	"repro/internal/fault.Enable":            "arms the fault injector in the chaos, compile, server, store and minic tests",
	"repro/internal/fault.Disable":           "disarms the fault injector in the chaos, compile, server, store and minic tests",
	"repro/internal/fault.Set":               "sets a fault rule in the chaos, compile, server, store and minic tests",
	"repro/internal/fault.Clear":             "clears a fault rule in the chaos schedule player and the store tests",
	"repro/internal/fault.Fired":             "tells the store and minic tests that an injected fault fired",
}

// TestNoProductionSymbolOnlyTestsReach type-checks every non-test file of
// the module, cmd/mcperf and examples/ included, and fails on each
// package-level func, type, var, const or method that nothing uses outside
// its own declaration: such code is reached only from tests, or not at all,
// and belongs in a _test.go file or nowhere. A method that satisfies an
// interface counts as used, as does the exported API of pkg/minic.
func TestNoProductionSymbolOnlyTestsReach(t *testing.T) {
	start := time.Now()
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	m.markInterfaceMethods()
	var unused []string
	declared := map[string]bool{}
	for _, d := range m.decls {
		name := symbolName(d.obj)
		declared[name] = true
		used := m.used[d.obj] || m.exported(d.obj) || m.namesUsedZero(d.obj)
		if _, fixture := testOnlyFixtures[name]; fixture {
			if used {
				t.Errorf("production code uses %s: drop it from testOnlyFixtures", name)
			}
			continue
		}
		if !used {
			unused = append(unused, fmt.Sprintf("%s: %s", m.fset.Position(d.obj.Pos()), name))
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("nothing outside tests uses %s", u)
	}
	for name := range testOnlyFixtures {
		if !declared[name] {
			t.Errorf("testOnlyFixtures names %s, which is not declared", name)
		}
	}
	t.Logf("%d packages, %d declarations checked in %v", len(m.pkgs), len(m.decls), time.Since(start).Round(time.Millisecond))
}

// testOnlyFields are struct fields that no production code writes, kept
// because tests set them to reach behaviour production code reaches in
// other ways.
var testOnlyFields = map[string]string{
	"repro/internal/server.Options.SpillDegradeAfter":  "the chaos soak and the server fault tests trip the spill breaker after fewer failures than the default",
	"repro/internal/server.Options.SpillProbeInterval": "the chaos soak and the server fault tests heal the spill breaker faster than the default",
	"repro/internal/fault.Rule.Prob":                   "only tests arm faults",
	"repro/internal/fault.Rule.After":                  "only tests arm faults",
	"repro/internal/fault.Rule.Times":                  "only tests arm faults",
	"repro/internal/fault.Rule.Delay":                  "only tests arm faults",
	"repro/internal/fault.Rule.Err":                    "only tests arm faults",
	"repro/internal/fault.Rule.Panic":                  "only tests arm faults",
	"repro/internal/fault.Rule.CutTo":                  "only tests arm faults",
	"repro/cmd/mcperf.runOpts.units":                   "the mcperf tests fix a run's script length instead of sizing it from the run's seconds",
	"repro/cmd/mcperf.runOpts.replayUnits":             "the mcperf tests fix the traced replay's unit count instead of bounding it by time",
}

// TestNoFieldOnlyTestsSet fails on each field of a package-level struct
// type of the module that no non-test code writes: an option only tests
// set is a second code path production never takes. A write is a keyed or
// unkeyed composite literal, an assignment (a range clause's included),
// ++ or --, &x.f, x.f[:], or a pointer-receiver method on x.f; writing a
// field of a struct- or array-valued field writes that field too. Structs
// with a json-tagged field are wire records the decoder fills by
// reflection and are skipped, as are embedded fields and fields of a sync
// or sync/atomic type.
func TestNoFieldOnlyTestsSet(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	written := m.writtenFields()
	var unset []string
	declared := map[string]bool{}
	for _, p := range m.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || wireStruct(st) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() || f.Name() == "_" || syncType(f.Type()) {
					continue
				}
				key := p.Path() + "." + tn.Name() + "." + f.Name()
				declared[key] = true
				if _, ok := testOnlyFields[key]; ok {
					if written[f] {
						t.Errorf("production code writes %s: drop it from testOnlyFields", key)
					}
					continue
				}
				if !written[f] {
					unset = append(unset, fmt.Sprintf("%s: %s", m.fset.Position(f.Pos()), key))
				}
			}
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("nothing outside tests writes %s", u)
	}
	for key := range testOnlyFields {
		if !declared[key] {
			t.Errorf("testOnlyFields names %s, which is not declared", key)
		}
	}
}

// writtenFields returns the struct fields (by declaration) that the
// module's non-test code writes, in the sense of TestNoFieldOnlyTestsSet.
func (m *module) writtenFields() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	for i, info := range m.infos {
		// write marks the field e selects, and the struct- or array-valued
		// fields whose memory holds it.
		write := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.SelectorExpr:
					if f, ok := info.Uses[x.Sel].(*types.Var); ok && f.IsField() {
						written[f.Origin()] = true
						if inPlace(info.TypeOf(x.X)) {
							e = x.X
							continue
						}
					}
				case *ast.IndexExpr:
					if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); ok {
						e = x.X
						continue
					}
				}
				return
			}
		}
		for _, f := range m.files[i] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for j, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								written[f.Origin()] = true
							}
						} else if j < st.NumFields() {
							written[st.Field(j).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, l := range n.Lhs {
							write(l)
						}
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						for _, l := range []ast.Expr{n.Key, n.Value} {
							if l != nil {
								write(l)
							}
						}
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.SliceExpr:
					write(n.X)
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil || sel.Kind() != types.MethodVal {
						break
					}
					recv := sel.Obj().(*types.Func).Type().(*types.Signature).Recv()
					if _, ptr := recv.Type().(*types.Pointer); ptr {
						if _, isPtr := info.TypeOf(n.X).Underlying().(*types.Pointer); !isPtr {
							write(n.X)
						}
					}
				}
				return true
			})
		}
	}
	return written
}

// inPlace reports whether a value of type t holds its fields or elements
// in its own memory, so writing one writes the value.
func inPlace(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// wireStruct reports whether st has a json-tagged field.
func wireStruct(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if strings.Contains(st.Tag(i), `json:"`) {
			return true
		}
	}
	return false
}

// syncType reports whether t is a type of package sync or sync/atomic, or
// an array of one.
func syncType(t types.Type) bool {
	if a, ok := t.(*types.Array); ok {
		t = a.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

// module is the type-checked non-test code of a module.
type module struct {
	path   string
	fset   *token.FileSet
	pkgs   map[string]*types.Package // module packages by import path
	infos  []*types.Info
	files  [][]*ast.File // the files each of infos covers
	decls  []decl
	zeroOf map[types.Object][]types.Object // an iota group's first constant: the rest
	used   map[types.Object]bool           // objects used outside their own declaration
}

// decl is a package-level declaration and the extent of its syntax.
type decl struct {
	obj        types.Object
	start, end token.Pos
}

// loadModule parses and type-checks, in dependency order, every package
// under root that has non-test Go files. Standard-library packages come
// from the export data one `go list -export` reports.
func loadModule(root string) (*module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{path: modPath, fset: token.NewFileSet(), pkgs: map[string]*types.Package{},
		zeroOf: map[types.Object][]types.Object{}, used: map[types.Object]bool{}}

	dirs := map[string]*build.Package{} // by import path
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if path != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		if len(bp.GoFiles) > 0 {
			rel, _ := filepath.Rel(root, path)
			dirs[strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/.")] = bp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	inModule := func(p string) bool { return p == modPath || strings.HasPrefix(p, modPath+"/") }
	var std []string
	seen := map[string]bool{}
	for _, bp := range dirs {
		for _, imp := range bp.Imports {
			if !inModule(imp) && !seen[imp] {
				seen[imp] = true
				std = append(std, imp)
			}
		}
	}
	exports, err := exportData(std)
	if err != nil {
		return nil, err
	}
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var check func(path string) error
	check = func(path string) error {
		if _, ok := m.pkgs[path]; ok {
			return nil
		}
		bp, ok := dirs[path]
		if !ok {
			return fmt.Errorf("no package of the module has import path %q", path)
		}
		for _, imp := range bp.Imports {
			if inModule(imp) {
				if err := check(imp); err != nil {
					return err
				}
			}
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
			if p, ok := m.pkgs[imp]; ok {
				return p, nil
			}
			return gc.Import(imp)
		})}
		pkg, err := conf.Check(path, m.fset, files, info)
		if err != nil {
			return err
		}
		m.pkgs[path] = pkg
		m.infos = append(m.infos, info)
		m.files = append(m.files, files)
		m.collectDecls(files, info)
		return nil
	}
	for path := range dirs {
		if err := check(path); err != nil {
			return nil, err
		}
	}

	inDecl := map[types.Object]decl{}
	for _, d := range m.decls {
		inDecl[d.obj] = d
	}
	for _, info := range m.infos {
		for id, obj := range info.Uses {
			obj = origin(obj)
			if d, ok := inDecl[obj]; ok && (id.Pos() < d.start || id.Pos() >= d.end) {
				m.used[obj] = true
			}
		}
	}
	return m, nil
}

// collectDecls records the package-level funcs, methods, types, vars and
// consts of files.
func (m *module) collectDecls(files []*ast.File, info *types.Info) {
	add := func(id *ast.Ident, n ast.Node) {
		if id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		m.decls = append(m.decls, decl{obj, n.Pos(), n.End()})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
					continue
				}
				add(d.Name, d)
			case *ast.GenDecl:
				if g := iotaGroup(d, info); g != nil {
					m.zeroOf[g[0]] = g[1:]
				}
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
					}
				}
			}
		}
	}
}

// markInterfaceMethods marks used every method that a module type needs to
// satisfy an interface that module code can reach: one declared in, or
// reachable from the declarations of, the module or a package it imports,
// an interface literal or instantiation in its code, or error.
func (m *module) markInterfaceMethods() {
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if !isGeneric(t) {
				walk(t.Underlying())
			}
		case *types.Interface:
			if t.IsMethodSet() && t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		}
	}
	walkScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			walk(s.Lookup(name).Type())
		}
	}
	walkScope(types.Universe)
	var named []types.Type
	for _, p := range m.pkgs {
		walkScope(p.Scope())
		for _, imp := range p.Imports() {
			walkScope(imp.Scope())
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !isGeneric(tn.Type()) && !types.IsInterface(tn.Type()) {
				named = append(named, tn.Type())
			}
		}
	}
	for _, info := range m.infos {
		for _, tv := range info.Types {
			walk(tv.Type)
		}
		for _, inst := range info.Instances {
			walk(inst.Type)
		}
	}
	for _, it := range ifaces {
		for _, t := range named {
			ptr := types.NewPointer(t)
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				fn := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, fn.Pkg(), fn.Name()); obj != nil {
					m.used[origin(obj)] = true
				}
			}
		}
	}
}

// iotaGroup returns the constants of d if it declares them from iota.
func iotaGroup(d *ast.GenDecl, info *types.Info) []types.Object {
	if d.Tok != token.CONST || len(d.Specs) < 2 {
		return nil
	}
	first := d.Specs[0].(*ast.ValueSpec)
	if len(first.Values) != 1 || len(first.Names) != 1 {
		return nil
	}
	if !strings.Contains(types.ExprString(first.Values[0]), "iota") {
		return nil
	}
	var g []types.Object
	for _, s := range d.Specs {
		for _, id := range s.(*ast.ValueSpec).Names {
			g = append(g, info.Defs[id])
		}
	}
	return g
}

// namesUsedZero reports whether obj is the first constant of an iota group
// whose other constants are used: it names the zero value of their type,
// which zero-valued variables hold without naming it.
func (m *module) namesUsedZero(obj types.Object) bool {
	for _, c := range m.zeroOf[obj] {
		if m.used[c] {
			return true
		}
	}
	return false
}

// exported reports whether obj belongs to pkg/minic's public API.
func (m *module) exported(obj types.Object) bool {
	return obj.Exported() && obj.Pkg().Path() == m.path+"/pkg/minic"
}

// isGeneric reports whether t is a generic named type not instantiated.
func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > n.TypeArgs().Len()
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// symbolName is "path.Name" for a package-level object and
// "(path.T).M" or "(*path.T).M" for a method.
func symbolName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return fn.FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath reads the module directive of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// exportData maps each of pkgs and their dependencies to its compiled
// export data file, building what the build cache lacks.
func exportData(pkgs []string) (map[string]string, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	sort.Strings(pkgs)
	goCmd := filepath.Join(build.Default.GOROOT, "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		goCmd = "go"
	}
	cmd := exec.Command(goCmd, append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, pkgs...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}
