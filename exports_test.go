package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// uncalledExports are the functions and methods under internal/ that no
// program of the module reaches, kept on purpose, each with its reason.
// An entry is "<package dir>.<Recv>.<Name>", or "<package dir>.<Name>"
// for a function. An entry is a root of the walk, so what it calls is
// reached through it.
var uncalledExports = map[string]string{
	"lp.Problem.RHS":           "test accessor: tests read a row's right-hand side to perturb it",
	"lp.Revised.ResetStats":    "test accessor: tests zero the counters before measuring a solve",
	"cluster.Ring.Has":         "test accessor: tests check which members a ring holds",
	"cluster.Store.Dir":        "test accessor: tests read a node's snapshot files from its store's directory",
	"obs.Counter.Inc":          "test accessor: tests count single events; the service records through Add and Set",
	"obs.Histogram.Count":      "test accessor: tests read a histogram's observation count",
	"obs.Histogram.SumSeconds": "test accessor: tests read a histogram's observed total",
	"obs.Histogram.Quantile":   "test accessor: tests read a histogram's quantiles",
	"netsim.SimulateFlowsTCP":  "the RTT refinement of §2's flow model that ROADMAP item 14 measures §6's schedules with",
	"core.RelaxedApps":         "the α-space encoding, β eliminated: §3.1's several applications per origin, whose greedy heuristics' tests bound by it, and the reference the (α, β) model's optimum is held to (DESIGN.md \"β elimination\")",
}

// exemptExportDirs hold test support: code that exists for tests to
// call, so a test is its caller. Every function in them is a root.
var exemptExportDirs = map[string]bool{
	"internal/lp/lptest": true,
}

// TestEveryExportHasACaller: every function and method declared in a
// non-test file under internal/ is reachable from a program of the
// module, or listed in uncalledExports with the reason it stays. The
// walk is over the type-checked module: it starts at every main in
// cmd/, examples/ and bench/, every init, every package-level
// initializer, every function of a test-support package and every
// listed entry, and follows each use of a function or method, a method
// value included. A method no code names is reached when its receiver
// type is reached and it has the name and signature of an interface's
// method, as the standard library calls String, Error or Less. Code that
// only tests reach is surface nothing runs: delete it, move it into a
// _test.go file, or list it above. A listed entry that the programs
// reach, or that is not declared, fails too.
func TestEveryExportHasACaller(t *testing.T) {
	start := time.Now()
	r, err := walkReachable(".", exemptExportDirs, uncalledExports)
	if err != nil {
		t.Fatal(err)
	}
	if r.reachable == 0 {
		t.Fatal("the walk reached no function under internal/; it is broken")
	}
	for _, s := range r.stale {
		t.Error(s)
	}
	for _, d := range r.dead {
		t.Errorf("%s has no caller outside tests", d)
	}
	t.Logf("reachability walk: %v; %d of %d functions under internal/ reachable, %d of them through the %d allowlisted",
		time.Since(start).Round(time.Millisecond), r.reachable, r.declared, r.allowlisted, len(uncalledExports))
}

// TestReachabilityWalkFixture holds the walk itself to a small module
// under testdata/reach whose dead and live functions are known.
func TestReachabilityWalkFixture(t *testing.T) {
	r, err := walkReachable("testdata/reach", nil, map[string]string{
		"a.Kept":  "an allowlisted root: what it calls is reached",
		"b.Stale": "listed, but a program reaches it",
		"b.Gone":  "listed, but not declared",
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range r.dead {
		dead = append(dead, d[strings.LastIndex(d, " ")+1:])
	}
	if want := []string{"a.Validate", "b.Shape.Dead"}; !equalStrings(dead, want) {
		t.Errorf("dead = %q, want %q", dead, want)
	}
	want := []string{
		"uncalledExports lists b.Gone, which is not declared",
		"uncalledExports lists b.Stale, which a program reaches; drop it",
	}
	if !equalStrings(r.stale, want) {
		t.Errorf("stale = %q, want %q", r.stale, want)
	}
}

func equalStrings(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

// reachResult is what walkReachable found under internal/.
type reachResult struct {
	declared, reachable, allowlisted int
	dead                             []string // "file:line: key", sorted
	stale                            []string // allowlist entries that are reached or undeclared, sorted
}

// walkReachable type-checks the module rooted at root (build constraints
// honoured, tests left out) and walks it from its roots: every main,
// init and package-level initializer, every function of the packages in
// exempt (directories relative to root), then every entry of allow.
func walkReachable(root string, exempt map[string]bool, allow map[string]string) (*reachResult, error) {
	prog, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	w := &walker{
		funcs: map[*types.Func]*funcDecl{},
		live:  map[*types.Func]bool{},
		seen:  map[types.Type]bool{},
		kinds: map[*types.Named]bool{},
		iface: map[string][]*types.Func{},
		ifSet: map[*types.Interface]bool{},
	}
	byKey := map[string][]*types.Func{}
	for _, p := range prog.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := p.info.Defs[fd.Name].(*types.Func)
				if obj == nil || fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				key := path.Base(p.dir) + "."
				if fd.Recv != nil {
					key += recvName(fd.Recv.List[0].Type) + "."
				}
				key += fd.Name.Name
				w.funcs[obj] = &funcDecl{fd, p, key, prog.std.fset.Position(fd.Pos()).String()}
				byKey[key] = append(byKey[key], obj)
			}
		}
		w.addInterfaces(p.info)
	}
	// The standard packages the module imports, and theirs, declare
	// interfaces, and the ones it imports may also assert its values to
	// interfaces they spell out in a body, as errors.As does to reach an
	// Unwrap.
	stdSeen := map[*types.Package]bool{}
	var addScopes func(*types.Package)
	addScopes = func(sp *types.Package) {
		if stdSeen[sp] {
			return
		}
		stdSeen[sp] = true
		scope := sp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				w.addInterface(tn.Type())
			}
		}
		for _, imp := range sp.Imports() {
			addScopes(imp)
		}
	}
	for importPath := range prog.direct {
		addScopes(prog.std.pkgs[importPath])
		info, err := prog.std.bodies(importPath)
		if err != nil {
			return nil, err
		}
		w.addInterfaces(info)
	}
	w.addInterface(types.Universe.Lookup("error").Type())

	for _, p := range prog.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					isMain := p.types.Name() == "main" && d.Recv == nil && d.Name.Name == "main"
					if isMain || d.Recv == nil && d.Name.Name == "init" || exempt[p.dir] {
						w.visit(d, p.info)
						if obj, ok := p.info.Defs[d.Name].(*types.Func); ok {
							w.live[obj] = true
						}
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						w.visit(d, p.info)
					}
				}
			}
		}
	}
	w.run()
	reachedBefore := maps.Clone(w.live)

	r := &reachResult{}
	var keys []string
	for key := range allow {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		objs := byKey[key]
		switch {
		case len(objs) == 0:
			r.stale = append(r.stale, fmt.Sprintf("uncalledExports lists %s, which is not declared", key))
			continue
		case reachedBefore[objs[0]]:
			r.stale = append(r.stale, fmt.Sprintf("uncalledExports lists %s, which a program reaches; drop it", key))
			continue
		}
		for _, obj := range objs {
			w.use(obj)
		}
	}
	w.run()

	for obj, fd := range w.funcs {
		if !strings.HasPrefix(fd.pkg.dir, "internal/") || exempt[fd.pkg.dir] {
			continue
		}
		r.declared++
		switch {
		case !w.live[obj]:
			r.dead = append(r.dead, fd.pos+": "+fd.key)
		case !reachedBefore[obj]:
			r.allowlisted++
			fallthrough
		default:
			r.reachable++
		}
	}
	sort.Strings(r.dead)
	return r, nil
}

// funcDecl is one function or method declared in a non-test file.
type funcDecl struct {
	decl     *ast.FuncDecl
	pkg      *modulePkg
	key, pos string
}

// walker holds the functions reached so far and the named types whose
// values the reached code handles.
type walker struct {
	funcs map[*types.Func]*funcDecl
	live  map[*types.Func]bool
	queue []*types.Func
	seen  map[types.Type]bool
	kinds map[*types.Named]bool    // reached named types, generic ones by their declaration
	named []*types.Named           // the keys of kinds, in the order reached
	iface map[string][]*types.Func // interface methods by name
	ifSet map[*types.Interface]bool
}

// use marks f (a generic's instance stands for its declaration) reached.
func (w *walker) use(f *types.Func) {
	f = f.Origin()
	if _, ok := w.funcs[f]; ok && !w.live[f] {
		w.live[f] = true
		w.queue = append(w.queue, f)
	}
}

// run walks the bodies of the queued functions until no function and no
// method of a reached type is left to reach.
func (w *walker) run() {
	for len(w.queue) > 0 {
		for len(w.queue) > 0 {
			f := w.queue[len(w.queue)-1]
			w.queue = w.queue[:len(w.queue)-1]
			fd := w.funcs[f]
			w.visit(fd.decl, fd.pkg.info)
		}
		for _, n := range w.named {
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); !w.live[m] && w.satisfies(m) {
					w.use(m)
				}
			}
		}
	}
}

// satisfies reports whether m has the name and signature of some
// interface's method.
func (w *walker) satisfies(m *types.Func) bool {
	for _, im := range w.iface[m.Name()] {
		if types.Identical(m.Type(), im.Type()) { // receivers are ignored
			return true
		}
	}
	return false
}

// visit reaches every function n names and every type its expressions
// and declarations carry.
func (w *walker) visit(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if f, ok := info.Uses[n].(*types.Func); ok {
				w.use(f)
			}
			if obj := info.ObjectOf(n); obj != nil {
				w.reachType(obj.Type())
			}
		case ast.Expr:
			w.reachType(info.TypeOf(n))
		}
		return true
	})
}

// reachType records t and every type it is built from.
func (w *walker) reachType(t types.Type) {
	if t == nil || w.seen[t] {
		return
	}
	w.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		w.reachType(types.Unalias(t))
	case *types.Named:
		if o := t.Origin(); o.Obj().Pkg() != nil && !w.kinds[o] {
			w.kinds[o] = true
			w.named = append(w.named, o)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			w.reachType(t.TypeArgs().At(i))
		}
		w.reachType(t.Underlying())
	case *types.Pointer:
		w.reachType(t.Elem())
	case *types.Slice:
		w.reachType(t.Elem())
	case *types.Array:
		w.reachType(t.Elem())
	case *types.Chan:
		w.reachType(t.Elem())
	case *types.Map:
		w.reachType(t.Key())
		w.reachType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			w.reachType(t.Field(i).Type())
		}
	case *types.Signature:
		w.reachType(t.Params())
		w.reachType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			w.reachType(t.At(i).Type())
		}
	}
}

// addInterfaces indexes every interface the package's code spells out,
// named or not.
func (w *walker) addInterfaces(info *types.Info) {
	for _, tv := range info.Types {
		w.addInterface(tv.Type)
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			w.addInterface(tn.Type())
		}
	}
}

func (w *walker) addInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || w.ifSet[it] {
		return
	}
	w.ifSet[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		w.iface[m.Name()] = append(w.iface[m.Name()], m)
	}
}

// modulePkg is one type-checked package of the module.
type modulePkg struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module is a type-checked module: its own packages from their non-test
// files, the standard library from source.
type module struct {
	root, mod string
	pkgs      map[string]*modulePkg // by import path
	std       *stdImporter
	direct    map[string]bool // standard packages the module imports
}

// loadModule type-checks every package of the module at root.
func loadModule(root string) (*module, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root, mod: mod, pkgs: map[string]*modulePkg{}, std: stdlib, direct: map[string]bool{}}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		importPath := mod
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		_, err = m.load(importPath)
		return err
	})
	if err != nil {
		return nil, err
	}
	for ip, p := range m.pkgs {
		if p == nil {
			delete(m.pkgs, ip) // a directory without Go files
		}
	}
	return m, nil
}

func modulePath(goMod string) (string, error) {
	data, err := os.ReadFile(goMod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", goMod)
}

// load parses and type-checks the package at importPath once, its
// module imports first; it is nil for a directory without Go files.
func (m *module) load(importPath string) (*modulePkg, error) {
	if p, ok := m.pkgs[importPath]; ok {
		if p != nil && p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", importPath)
		}
		return p, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(importPath, m.mod), "/")
	if dir == "" {
		dir = "."
	}
	ents, err := os.ReadDir(filepath.Join(m.root, dir))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := m.std.ctx.MatchFile(filepath.Join(m.root, dir), name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(m.std.fset, filepath.Join(m.root, dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		m.pkgs[importPath] = nil
		return nil, nil
	}
	p := &modulePkg{dir: filepath.ToSlash(dir), files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	m.pkgs[importPath] = p
	conf := types.Config{Importer: m}
	if p.types, err = conf.Check(importPath, m.std.fset, files, p.info); err != nil {
		return nil, err
	}
	return p, nil
}

// Import implements types.Importer: the module's own packages are
// loaded from root, the rest from the standard library.
func (m *module) Import(importPath string) (*types.Package, error) {
	if importPath == m.mod || strings.HasPrefix(importPath, m.mod+"/") {
		p, err := m.load(importPath)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("%s has no Go files", importPath)
		}
		return p.types, nil
	}
	m.direct[importPath] = true
	return m.std.ImportFrom(importPath, "", 0)
}

// stdlib is the standard library as every walk of this test binary
// sees it: each package is parsed and type-checked once.
var stdlib = newStdImporter()

// stdImporter type-checks standard-library packages from source,
// declarations only, and keeps each package's files for bodies.
type stdImporter struct {
	fset   *token.FileSet
	ctx    build.Context
	pkgs   map[string]*types.Package // by import path
	files  map[string][]*ast.File    // by import path
	bodied map[string]*types.Info    // by import path
}

func newStdImporter() *stdImporter {
	ctx := build.Default
	ctx.CgoEnabled = false // the walk reads declarations; cgo's would need the cgo tool
	// unsafe has no source to type-check: go/types declares it, so its
	// entry is that package from the start, with no files.
	return &stdImporter{fset: token.NewFileSet(), ctx: ctx, pkgs: map[string]*types.Package{"unsafe": types.Unsafe},
		files: map[string][]*ast.File{}, bodied: map[string]*types.Info{}}
}

func (s *stdImporter) Import(importPath string) (*types.Package, error) {
	return s.ImportFrom(importPath, "", 0)
}

func (s *stdImporter) ImportFrom(importPath, dir string, _ types.ImportMode) (*types.Package, error) {
	if p, ok := s.pkgs[importPath]; ok {
		return p, nil
	}
	bp, err := s.ctx.Import(importPath, dir, 0)
	if err != nil {
		return nil, err
	}
	if p, ok := s.pkgs[bp.ImportPath]; ok {
		return p, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s, IgnoreFuncBodies: true}
	p, err := conf.Check(bp.ImportPath, s.fset, files, nil)
	if err != nil {
		return nil, err
	}
	s.pkgs[bp.ImportPath], s.files[bp.ImportPath] = p, files
	return p, nil
}

// bodies type-checks the imported standard package at importPath again,
// function bodies included, and returns the types of its expressions.
func (s *stdImporter) bodies(importPath string) (*types.Info, error) {
	if info, ok := s.bodied[importPath]; ok {
		return info, nil
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: s}
	if _, err := conf.Check(importPath, s.fset, s.files[importPath], info); err != nil {
		return nil, err
	}
	s.bodied[importPath] = info
	return info, nil
}

// recvName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
