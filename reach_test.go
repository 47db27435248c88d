package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestReachable holds the rule that the shipped tree is the reachable tree:
// every package-level declaration and method in a non-test file is reached
// from some binary's main or from an init, or is named — with its reason — in
// testdata/reach_allow.txt as a test oracle or test accessor (what a listed
// name reaches is then reached too). The walk is type-checked and
// conservative: a method is live as soon as its receiver type is live and its
// name is a method of any interface declared in the module, or one of the
// standard library's usual ones (stdlibMethods).
func TestReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	m := loadModule(t)
	allow := readAllowlist(t, "testdata/reach_allow.txt")

	binaries := m.unreachable(nil)
	lines, unreached := 0, map[string]bool{}
	for _, d := range binaries {
		lines += d.lines
		unreached[d.name] = true
	}
	t.Logf("%d declarations, %d lines, reached by no binary", len(binaries), lines)
	for name := range allow {
		if !unreached[name] {
			t.Errorf("testdata/reach_allow.txt lists %s, which a binary reaches or which does not exist: drop the line", name)
		}
	}
	for _, d := range m.unreachable(allow) {
		t.Errorf("%s: %s (%d lines) is reached by no main or init: delete it, or list it in testdata/reach_allow.txt if tests use it as an oracle or accessor", d.pos, d.name, d.lines)
	}
}

// TestCensusList holds testdata/census.txt, the never-run functions `make
// census` (census.sh) compares its coverage census with, to the static walk:
// each line names a declaration that exists, that some main or init reaches,
// and that reach_allow.txt does not list, with its reason. So a rename or a
// deletion cannot leave a stale line behind until the next census runs.
func TestCensusList(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	m := loadModule(t)
	allow := readAllowlist(t, "testdata/reach_allow.txt")
	census := readAllowlist(t, "testdata/census.txt")

	exists := map[string]bool{}
	for obj := range m.declOf {
		exists[qualified(obj)] = true
	}
	unreached := map[string]bool{}
	for _, d := range m.unreachable(nil) {
		unreached[d.name] = true
	}
	for name := range census {
		switch _, allowed := allow[name]; {
		case !exists[name]:
			t.Errorf("testdata/census.txt lists %s, which does not exist: drop the line", name)
		case allowed:
			t.Errorf("testdata/census.txt lists %s, which testdata/reach_allow.txt lists too: the census already leaves it out, drop the line", name)
		case unreached[name]:
			t.Errorf("testdata/census.txt lists %s, which no main or init reaches: delete it, or move it to reach_allow.txt if tests use it", name)
		}
	}
}

// stdlibMethods are the method names through which the standard library
// calls back into a value it was handed (fmt, sort, container/heap, flag,
// io, net/http, encoding, errors, math/rand).
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true,
	"Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Set": true, "Read": true, "Write": true, "Close": true, "Flush": true,
	"ReadFrom": true, "WriteTo": true, "ServeHTTP": true, "RoundTrip": true,
	"Header": true, "WriteHeader": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Int63": true,
}

const modulePrefix = "repro/"

// module is the type-checked non-test source of every package under the
// repository root.
type module struct {
	fset  *token.FileSet
	pkgs  map[string]*types.Package // by import path
	info  *types.Info               // shared by every package
	std   types.Importer
	files []*ast.File

	decls      []*decl
	declOf     map[types.Object]*decl
	methods    map[*types.TypeName][]*types.Func
	ifaceNames map[string]bool // methods of the interfaces written in the module
	roots      []types.Object  // every main and init
}

// decl is one top-level FuncDecl, TypeSpec or ValueSpec: the objects it
// declares, the module objects it mentions, and the lines it spans (its doc
// comment not counted).
type decl struct {
	objs  []types.Object
	refs  []types.Object
	lines int
}

// The module is type-checked once per test binary and shared by the tests
// that walk it: a loaded module is read-only, and each walk keeps its own
// state (unreachable's live set, TestKnobsWritten's field maps).
var (
	moduleOnce sync.Once
	loaded     *module
	loadErr    error
)

func loadModule(t *testing.T) *module {
	moduleOnce.Do(func() { loaded, loadErr = readModule() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

// readModule type-checks the non-test source of every package under the
// repository root.
func readModule() (*module, error) {
	m := &module{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		declOf:     map[types.Object]*decl{},
		methods:    map[*types.TypeName][]*types.Func{},
		ifaceNames: map[string]bool{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == "." { // the root package is doc.go and tests
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" || name == "out" {
			return filepath.SkipDir
		}
		_, err = m.Import(modulePrefix + filepath.ToSlash(path))
		return err
	})
	return m, err
}

// Import type-checks a module package from its non-test files, once, so
// every importer sees the same objects; anything else is the standard
// library, imported from source.
func (m *module) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, modulePrefix) {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(path, modulePrefix))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	if len(files) == 0 { // a directory of directories
		m.pkgs[path] = nil
		return nil, nil
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	m.pkgs[path] = pkg
	m.files = append(m.files, files...)
	for _, f := range files {
		m.index(pkg, f)
	}
	return pkg, nil
}

// index records the declarations of one file, what each mentions, the
// method names of every interface written in it, and its main and init.
func (m *module) index(pkg *types.Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			if iface, ok := m.info.Types[it].Type.(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					m.ifaceNames[iface.Method(i).Name()] = true
				}
			}
		}
		return true
	})
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn := m.info.Defs[d.Name].(*types.Func)
			m.add(d, fn)
			if tn, isMethod := receiver(fn); tn != nil {
				m.methods[tn] = append(m.methods[tn], fn)
			} else if !isMethod && (d.Name.Name == "init" || (d.Name.Name == "main" && pkg.Name() == "main")) {
				m.roots = append(m.roots, fn)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					m.add(spec, m.info.Defs[spec.Name])
				case *ast.ValueSpec:
					var objs []types.Object
					for _, name := range spec.Names {
						objs = append(objs, m.info.Defs[name])
					}
					m.add(spec, objs...)
				}
			}
		}
	}
}

// receiver returns the named type fn is a method of — nil for a plain
// function and for a method declared in an interface — and whether fn has a
// receiver at all.
func receiver(fn *types.Func) (tn *types.TypeName, isMethod bool) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && !types.IsInterface(n) {
		return n.Origin().Obj(), true
	}
	return nil, true
}

// add records one declaration and every module function, method and
// package-level name its source mentions. A call through an interface is
// not a mention: it keeps methods alive by name (unreachable).
func (m *module) add(n ast.Node, objs ...types.Object) {
	dc := &decl{objs: objs, lines: m.fset.Position(n.End()).Line - m.fset.Position(n.Pos()).Line + 1}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := m.info.Uses[id]
		if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePrefix) {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if tn, isMethod := receiver(fn); tn != nil || !isMethod {
				dc.refs = append(dc.refs, fn)
			}
		} else if obj.Parent() == obj.Pkg().Scope() {
			dc.refs = append(dc.refs, obj)
		}
		return true
	})
	for _, obj := range objs {
		if obj != nil && obj.Name() != "_" {
			m.declOf[obj] = dc
		}
	}
	m.decls = append(m.decls, dc)
}

type deadDecl struct {
	name  string
	pos   token.Position
	lines int
}

// unreachable walks the reference graph from every main and init, and from
// every declaration named in also, and returns what it never visits, one
// entry per declared name.
func (m *module) unreachable(also map[string]string) []deadDecl {
	live := map[types.Object]bool{}
	var queue []types.Object
	mark := func(obj types.Object) {
		if !live[obj] {
			live[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, r := range m.roots {
		mark(r)
	}
	for obj := range m.declOf {
		if _, ok := also[qualified(obj)]; ok {
			mark(obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if dc := m.declOf[obj]; dc != nil {
			for _, ref := range dc.refs {
				mark(ref)
			}
		}
		if tn, ok := obj.(*types.TypeName); ok {
			for _, fn := range m.methods[tn] {
				if stdlibMethods[fn.Name()] || m.ifaceNames[fn.Name()] {
					mark(fn)
				}
			}
		}
	}

	var dead []deadDecl
	for _, dc := range m.decls {
		for _, obj := range dc.objs {
			if obj != nil && obj.Name() != "_" && !live[obj] {
				dead = append(dead, deadDecl{name: qualified(obj), pos: m.fset.Position(obj.Pos()), lines: dc.lines})
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead
}

// qualified names obj the way the allowlist does: the package's directory
// without the internal/ prefix, then Name or Type.Method.
func qualified(obj types.Object) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), modulePrefix), "internal/")
	if fn, ok := obj.(*types.Func); ok {
		if tn, _ := receiver(fn); tn != nil {
			return pkg + "." + tn.Name() + "." + fn.Name()
		}
	}
	return pkg + "." + obj.Name()
}

// readAllowlist parses "pkg.Name — reason" lines; blank lines and # comments
// are skipped, and an entry without a reason is an error.
func readAllowlist(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Fatalf("%s:%d: want \"pkg.Name — reason\", got %q", path, n, line)
		}
		allow[strings.TrimSpace(name)] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// knobStructs are the option structs TestKnobsWritten audits: the pipeline
// stages of harness's TestKnobStructsConform plus the design server's.
var knobStructs = []string{
	"synth.Options", "harness.Config", "flitsim.Config", "floorplan.Options",
	"nas.Config", "collective.Config", "hier.Options", "serve.Config",
	"workloads.Config",
}

// TestKnobsWritten holds the rule that every knob has a caller: each field of
// a knob struct (and of the module structs nested in one by value, such as
// synth.Constraints) is written by some non-test code — bench/ included — as
// a composite-literal key, the left side of an assignment or inc/dec, or the
// operand of &. Writes inside a knob struct's own Normalized do not count: a
// default is not a caller. A field only tests set is a constant in disguise;
// testdata/knob_allow.txt names, with a reason, the few kept as test seams.
func TestKnobsWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	m := loadModule(t)
	allow := readAllowlist(t, "testdata/knob_allow.txt")

	fields := map[string]*types.Var{} // "pkg.Owner.Field" -> field
	seen := map[*types.Named]bool{}
	var walk func(n *types.Named)
	walk = func(n *types.Named) {
		st, ok := n.Underlying().(*types.Struct)
		if !ok || seen[n] {
			return
		}
		seen[n] = true
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			fields[qualified(n.Obj())+"."+f.Name()] = f
			if inner, ok := f.Type().(*types.Named); ok && inner.Obj().Pkg() != nil &&
				strings.HasPrefix(inner.Obj().Pkg().Path(), modulePrefix) {
				walk(inner)
			}
		}
	}
	roots := map[*types.TypeName]bool{}
	for _, name := range knobStructs {
		pkg, typ, _ := strings.Cut(name, ".")
		p := m.pkgs[modulePrefix+"internal/"+pkg]
		if p == nil {
			t.Fatalf("knob struct %s: no package %s", name, pkg)
		}
		tn, ok := p.Scope().Lookup(typ).(*types.TypeName)
		if !ok {
			t.Fatalf("knob struct %s does not exist", name)
		}
		roots[tn] = true
		walk(tn.Type().(*types.Named))
	}

	written := map[*types.Var]bool{}
	// lhs marks the field an assigned or addressed expression denotes, and
	// every field it is reached through (x.A.B writes part of A).
	var lhs func(e ast.Expr)
	lhs = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if v, ok := m.info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
				written[v] = true
			}
			lhs(e.X)
		case *ast.ParenExpr:
			lhs(e.X)
		case *ast.StarExpr:
			lhs(e.X)
		case *ast.IndexExpr:
			lhs(e.X)
		}
	}
	for _, f := range m.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Normalized" && fd.Recv != nil {
				if tn, _ := receiver(m.info.Defs[fd.Name].(*types.Func)); roots[tn] {
					continue
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := m.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
							written[m.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)] = true
						} else {
							written[st.Field(i)] = true
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs(n.X)
					}
				}
				return true
			})
		}
	}

	for name := range allow {
		if v, ok := fields[name]; !ok || written[v] {
			t.Errorf("testdata/knob_allow.txt lists %s, which non-test code writes or which does not exist: drop the line", name)
		}
	}
	var unwritten []string
	for name, v := range fields {
		if _, ok := allow[name]; !ok && !written[v] {
			unwritten = append(unwritten, name)
		}
	}
	sort.Strings(unwritten)
	for _, name := range unwritten {
		t.Errorf("%s is written by no non-test code: make it a constant, or list it in testdata/knob_allow.txt if tests drive it as a seam", name)
	}
}
