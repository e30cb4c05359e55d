package virtines_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepReason is why an exported name with no non-test caller stays in a
// production file. The list is closed: anything else moves into the
// test that uses it, or goes.
type keepReason string

const (
	figure      keepReason = "a paper figure or an engine differential needs it"
	fixture     keepReason = "a fixture or probe the tests of several packages share"
	invariant   keepReason = "the shell content invariant the runtime tests check"
	harnessTest keepReason = "the benchmark harness's own test calls it"
	typedArgs   keepReason = "the typed-argument call path of §7.2"
)

// surfaceAllow lists the exported funcs, methods and types that no
// non-test file calls but that stay in production files, keyed
// "pkg.Name" or "pkg.Type.Method".
var surfaceAllow = map[string]keepReason{
	"asm.Unit.Stmts":             fixture,     // asm's fail-closed test, vcc's optimizer test
	"core.Func.CallTyped":        typedArgs,   // typed_test.go
	"cpu.CPU.CodePages":          fixture,     // cpu's cache tests, wasp's boot-replay test
	"guest.Image.WithPad":        figure,      // Fig 12's image sizes; wasp's forest tests
	"guest.MinimalHalt":          fixture,     // figures, differentials, sched and wasp tests
	"guest.MinimalHaltProtected": figure,      // the engine differential; wasp's platform tests
	"guest.RealModeHalt":         figure,      // Fig 2, Fig 8, Tab 2; sched and wasp tests
	"httpd.EchoImage":            figure,      // Fig 4 and the echo differential
	"httpd.EchoPolicy":           figure,      // Fig 4 and the echo differential
	"hypercall.FS.Paths":         harnessTest, // benchmark/bench_test.go
	"hypercall.HandlerFunc":      fixture,     // hypercall, wasp and httpd tests
	"obs.Deterministic":          fixture,     // obs, sched, wasp and serverless trace tests
	"obs.Tracer.Marshal":         harnessTest, // benchmark/bench_test.go, obs's determinism test
	"stats.HarmonicMean":         figure,      // Fig 13's throughput column
	"stats.Summarize":            figure,      // the figures' Tukey summaries
	"stats.Jain":                 figure,      // the split-fleet and noisy-neighbor fairness pins
	"vmm.Baseline.Measure":       figure,      // Fig 2's and Fig 8's baselines
	"vmm.Context.CheckContent":   invariant,   // wasp's checkRuntime, vmm's capture tests
	"vmm.PageStore.Inserted":     fixture,     // vmm's page-store tests, wasp's ForkLifecycle hashes/op
	"wasp.Cleaner.BusyCycles":    figure,      // Fig 15's cleaner row
	"wasp.Cleaner.Cycles":        fixture,     // wasp's cleaner tests, sched's virtual Wasp+CA test
	"wasp.Cleaner.VirtualDrains": figure,      // Fig 15's cleaner row
	"wasp.WithLegacyInterp":      figure,      // the engine differentials
	"wasp.WithPooling":           figure,      // Fig 8's no-pooling row
}

// modulePath is go.mod's module line: imports under it are type-checked
// by surfaceLoader, everything else by the source importer.
const modulePath = "repro"

// surfaceLoader type-checks the module's non-test files package by
// package into one types.Info, so every package resolves to the same
// objects for the module's declarations. The standard library comes from
// the source importer, which needs neither export data nor a network.
type surfaceLoader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files []*ast.File
}

func (l *surfaceLoader) Import(p string) (*types.Package, error) {
	if p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
		return l.std.Import(p)
	}
	return l.load(strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/"))
}

// load type-checks the package in dir (relative to the module root) once.
func (l *surfaceLoader) load(dir string) (*types.Package, error) {
	if dir == "" {
		dir = "."
	}
	importPath := path.Join(modulePath, filepath.ToSlash(dir))
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = p
	l.files = append(l.files, files...)
	return p, nil
}

// TestProductionSurface keeps production files to what production runs:
// every exported func, method and type declared in a non-test file must
// be resolved to by some non-test file (cmd/, examples/ and benchmark/
// count as callers) outside its own declaration, or be in surfaceAllow
// with its reason. A stale allowlist entry (the name is used now, or no
// longer declared) fails too. Uses are resolved by go/types, so a name
// other identifiers share does not hide an unused export, and a type's
// own method receivers are not a use of it. A method that implements a
// method of an interface (one the module declares or names, error, or
// fmt.Stringer) is called through that interface, so it counts as used
// when its receiver type is. Constants and vars are left out: the ISA's
// registers and the tracer's mark IDs are closed enumerations.
func TestProductionSurface(t *testing.T) {
	fset := token.NewFileSet()
	l := &surfaceLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		pkgs: map[string]*types.Package{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := l.load(p); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every exported func, method and type, with the source range a use
	// must fall outside of; every type's range; and every receiver list,
	// where a type's name is not a use.
	type decl struct {
		key      string
		obj      types.Object
		pos, end token.Pos
	}
	var decls []decl
	typeRanges := map[types.Object][2]token.Pos{}
	inRecv := map[token.Pos]bool{}
	for _, f := range l.files {
		pkg := f.Name.Name
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if dd.Recv != nil {
					ast.Inspect(dd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							inRecv[id.Pos()] = true
						}
						return true
					})
				}
				if !dd.Name.IsExported() {
					continue
				}
				key := pkg + "." + dd.Name.Name
				if dd.Recv != nil {
					key = pkg + "." + recvName(dd.Recv.List[0].Type) + "." + dd.Name.Name
				}
				decls = append(decls, decl{key, l.info.Defs[dd.Name], dd.Pos(), dd.End()})
			case *ast.GenDecl:
				if dd.Tok != token.TYPE {
					continue
				}
				for _, s := range dd.Specs {
					ts := s.(*ast.TypeSpec)
					typeRanges[l.info.Defs[ts.Name]] = [2]token.Pos{ts.Pos(), ts.End()}
					if ts.Name.IsExported() {
						decls = append(decls, decl{pkg + "." + ts.Name.Name, l.info.Defs[ts.Name], ts.Pos(), ts.End()})
					}
				}
			}
		}
	}

	// uses maps each object to the positions that resolve to it; a
	// generic's instances count as the generic. Info.Uses holds every
	// selector's name too (x.M resolves M, promoted or not), so it
	// covers Info.Selections.
	uses := map[types.Object][]token.Pos{}
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := obj.(*types.TypeName); ok && inRecv[id.Pos()] {
			continue
		}
		uses[obj] = append(uses[obj], id.Pos())
	}
	used := func(obj types.Object, pos, end token.Pos) bool {
		for _, u := range uses[obj] {
			if u < pos || u >= end {
				return true
			}
		}
		return false
	}

	// The interfaces a method may be called through.
	fmtPkg, err := l.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaces := map[*types.TypeName]bool{
		types.Universe.Lookup("error").(*types.TypeName):    true,
		fmtPkg.Scope().Lookup("Stringer").(*types.TypeName): true,
	}
	for _, objs := range []map[*ast.Ident]types.Object{l.info.Defs, l.info.Uses} {
		for _, obj := range objs {
			if tn, ok := obj.(*types.TypeName); ok {
				if _, named := tn.Type().(*types.Named); named && types.IsInterface(tn.Type()) {
					ifaces[tn] = true
				}
			}
		}
	}

	// implements returns the receiver type of fn, a method, when fn
	// implements a method of one of ifaces.
	implements := func(fn *types.Func) (*types.TypeName, bool) {
		recv := fn.Signature().Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return nil, false
		}
		for iface := range ifaces {
			it := iface.Type().Underlying().(*types.Interface)
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return named.Obj(), true
				}
			}
		}
		return nil, false
	}

	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		key, isUsed := d.key, used(d.obj, d.pos, d.end)
		if fn, ok := d.obj.(*types.Func); ok && !isUsed && fn.Signature().Recv() != nil {
			if tn, ok := implements(fn); ok {
				// Called through the interface: the method takes its
				// receiver type's verdict.
				r := typeRanges[tn]
				key, isUsed = d.key[:strings.LastIndexByte(d.key, '.')], used(tn, r[0], r[1])
			}
		}
		_, allowed := surfaceAllow[key]
		switch {
		case !isUsed && !allowed:
			unused = append(unused, d.key+" ("+fset.Position(d.obj.Pos()).String()+")")
		case isUsed && allowed && key == d.key:
			t.Errorf("surfaceAllow[%q] is stale: a non-test file uses it now", d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported with no non-test caller: %s", u)
	}
	for key := range surfaceAllow {
		if !declared[key] {
			t.Errorf("surfaceAllow[%q] is stale: no non-test file declares it", key)
		}
	}
	t.Logf("%d packages; %d exported funcs, methods and types; %d allowlisted", len(l.pkgs), len(decls), len(surfaceAllow))
}

// recvName is the base type name of a method's receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
