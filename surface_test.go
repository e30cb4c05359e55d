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

// keepReason is why a declaration that no non-test code uses stays in a
// production file. The list is closed: anything else moves into the test
// that uses it, or goes.
type keepReason string

const (
	figure      keepReason = "a paper figure or an engine differential needs it"
	fixture     keepReason = "a fixture or probe the tests of several packages share"
	invariant   keepReason = "a runtime invariant or fault record the tests check"
	harnessTest keepReason = "the benchmark harness's own test calls it"
	typedArgs   keepReason = "the typed-argument call path of §7.2"
	enumeration keepReason = "one member of a closed set the ISA, the hypercall ABI or an iota block defines"
	fenced      keepReason = "named by benchmark/, which only a [benchmark] change may edit"
)

// surfaceAllow lists the declarations that no non-test code uses but that
// stay in production files, keyed "pkg.Name", "pkg.Type.Method" or
// "pkg.Type.Field". A main package's pkg is its directory under the module
// ("benchmark", "cmd/vcc"), since its name is shared.
var surfaceAllow = map[string]keepReason{
	"asm.Unit.Stmts":                 fixture,     // asm's fail-closed test, vcc's optimizer test
	"benchmark.clusterInstance.seed": fenced,      // benchmark/cluster_sim.go
	"benchmark.metricDef.better":     fenced,      // benchmark/metrics.go
	"core.Func.CallTyped":            typedArgs,   // typed_test.go
	"cpu.CPU.CodePages":              fixture,     // cpu's cache tests, wasp's boot-replay test
	"guest.Image.WithPad":            figure,      // Fig 12's image sizes; wasp's forest tests
	"guest.MinimalHalt":              fixture,     // figures, differentials, sched and wasp tests
	"guest.MinimalHaltProtected":     figure,      // the engine differential; wasp's platform tests
	"guest.RealModeHalt":             figure,      // Fig 2, Fig 8, Tab 2; sched and wasp tests
	"httpd.EchoImage":                figure,      // Fig 4 and the echo differential
	"httpd.EchoPolicy":               figure,      // Fig 4 and the echo differential
	"httpd.MarkMainEntry":            figure,      // Fig 4's milestones
	"httpd.MarkRecvDone":             figure,      // Fig 4's milestones
	"httpd.MarkSendDone":             figure,      // Fig 4's milestones
	"httpd.Response.Raw":             figure,      // the virtine-against-native response differential
	"hypercall.Args.A3":              enumeration, // r10 of the six-register hypercall ABI
	"hypercall.Args.A4":              enumeration, // r8 of the six-register hypercall ABI
	"hypercall.Args.A5":              enumeration, // r9 of the six-register hypercall ABI
	"hypercall.FS.Paths":             harnessTest, // benchmark/bench_test.go
	"hypercall.HandlerFunc":          fixture,     // hypercall, wasp and httpd tests
	"hypercall.Mark.ID":              figure,      // Fig 4's milestones
	"isa.ImmNone":                    enumeration, // the immediate-form iota block
	"isa.NumCRs":                     enumeration, // the control-register iota block's count
	"isa.R11":                        enumeration, // the ISA's sixteen registers
	"isa.R12":                        enumeration, // the ISA's sixteen registers
	"isa.R13":                        enumeration, // the ISA's sixteen registers
	"isa.R14":                        enumeration, // the ISA's sixteen registers
	"isa.R15":                        enumeration, // the ISA's sixteen registers
	"js.Fig14Point.Cycles":           figure,      // Fig 14's rows
	"obs.Deterministic":              fixture,     // obs, sched, wasp and serverless trace tests
	"obs.KindNone":                   enumeration, // the event-kind iota block's zero
	"obs.Tracer.Marshal":             harnessTest, // benchmark/bench_test.go, obs's determinism test
	"placement.ImageInfo.MemBytes":   fenced,      // benchmark/cluster_sim.go's literal
	"sched.AdmissionStats.InFlight":  invariant,   // ticket conservation in the admission tests
	"sched.AdmissionStats.Queued":    invariant,   // ticket conservation in the admission tests
	"sched.AdmissionStats.Rejected":  invariant,   // ticket conservation in the admission tests
	"sched.PanicError.Stack":         invariant,   // the panicking-task tests
	"stats.HarmonicMean":             figure,      // Fig 13's throughput column
	"stats.Jain":                     figure,      // the split-fleet and noisy-neighbor fairness pins
	"stats.Summarize":                figure,      // the figures' Tukey summaries
	"vmm.Baseline.Measure":           figure,      // Fig 2's and Fig 8's baselines
	"vmm.Context.CheckContent":       invariant,   // wasp's checkRuntime, vmm's capture tests
	"vmm.Layer.OwnedPages":           fixture,     // vmm's page-store tests, wasp's forest tests
	"vmm.PageStore.Inserted":         fixture,     // vmm's page-store tests, wasp's ForkLifecycle hashes/op
	"wasp.Cleaner.BusyCycles":        figure,      // Fig 15's cleaner row
	"wasp.Cleaner.Cycles":            fixture,     // wasp's cleaner tests, sched's virtual Wasp+CA test
	"wasp.Cleaner.VirtualDrains":     figure,      // Fig 15's cleaner row
	"wasp.WithLegacyInterp":          figure,      // the engine differentials
	"wasp.WithPooling":               figure,      // Fig 8's no-pooling row
}

// surfaceLoader type-checks a module's non-test files package by package
// into one types.Info, so every package resolves to the same objects for
// the module's declarations. The standard library comes from the source
// importer, which needs neither export data nor a network.
type surfaceLoader struct {
	root, mod string // the module's directory and go.mod module path
	fset      *token.FileSet
	std       types.Importer
	info      *types.Info
	pkgs      map[string]*types.Package
	files     []*ast.File
	keyOf     map[*ast.File]string // the key prefix of each file's package
}

func (l *surfaceLoader) Import(p string) (*types.Package, error) {
	if p != l.mod && !strings.HasPrefix(p, l.mod+"/") {
		return l.std.Import(p)
	}
	return l.load(strings.TrimPrefix(strings.TrimPrefix(p, l.mod), "/"))
}

// load type-checks the package in dir (relative to the module root) once.
func (l *surfaceLoader) load(dir string) (*types.Package, error) {
	if dir == "" {
		dir = "."
	}
	importPath := path.Join(l.mod, filepath.ToSlash(dir))
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.Join(l.root, dir), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.root, dir, name), nil, parser.SkipObjectResolution)
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
	key := p.Name()
	if key == "main" {
		key = strings.TrimPrefix(importPath, l.mod+"/")
	}
	for _, f := range files {
		l.keyOf[f] = key
	}
	return p, nil
}

// surfaceScan is what one scan of a module finds.
type surfaceScan struct {
	unused map[string]string // key → where it is declared
	stale  map[string]string // allowlist key → why the entry is stale
	decls  int               // declarations judged
}

// scanSurface type-checks every non-test package under root (skipping
// testdata and dot directories) and judges each func, method, type,
// package-level constant and var, and struct field declared in a non-test
// file, exported or not, against allow.
//
// A func, method, type, constant or var is used when some non-test file
// resolves an identifier to it outside its own declaration. Uses are
// resolved by go/types, so a name other identifiers share hides nothing,
// and a type's own method receivers are not a use of it. A method that
// implements a method of an interface (one the module declares or names,
// error, or fmt.Stringer) may be called through that interface, so it
// takes its receiver type's verdict.
//
// A struct field is used when non-test code reads it. A write is not a
// read: the selector on an assignment's left-hand side or of an inc/dec,
// the receiver of a sync/atomic Add, Store, Swap or CompareAndSwap whose
// result is dropped, and a composite literal's key; a positional literal
// names no field at all. A struct value compared with == or !=, passed to reflect.DeepEqual,
// used as a map key or as a comparable type argument reads every field,
// through nested structs and arrays (DeepEqual through pointers, slices
// and maps too). Embedded fields, tagged fields (an encoder reads them)
// and the fields of struct types no type declaration names are not
// judged; main and init are not judged.
//
// An allowlist entry is stale when its key is used now or no longer
// declared.
func scanSurface(root, mod string, allow map[string]keepReason) (*surfaceScan, error) {
	fset := token.NewFileSet()
	l := &surfaceLoader{
		root: root,
		mod:  mod,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Types:     map[ast.Expr]types.TypeAndValue{},
			Instances: map[*ast.Ident]types.Instance{},
		},
		pkgs:  map[string]*types.Package{},
		keyOf: map[*ast.File]string{},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
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
		if _, err := l.load(rel); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// One walk of every file collects the declarations with the source
	// range a use must fall outside of, every type's range, every receiver
	// list (where a type's name is not a use), the identifiers a write
	// names, and the types whose values are read whole.
	type decl struct {
		key      string
		obj      types.Object
		pos, end token.Pos
	}
	var decls []decl
	typeRanges := map[types.Object][2]token.Pos{}
	inRecv := map[token.Pos]bool{}
	writes := map[token.Pos]bool{}
	var whole []types.Type // values read whole: all fields
	var deep []types.Type  // values reflect.DeepEqual reads
	add := func(key string, id *ast.Ident, pos, end token.Pos) {
		if id.Name != "_" {
			decls = append(decls, decl{key, l.info.Defs[id], pos, end})
		}
	}
	// fields adds the judged fields of st, a struct type under key.
	var fields func(key string, st *ast.StructType)
	fields = func(key string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			if f.Tag != nil {
				continue
			}
			for _, id := range f.Names {
				add(key+"."+id.Name, id, id.Pos(), id.End())
				if inner, ok := f.Type.(*ast.StructType); ok {
					fields(key+"."+id.Name, inner)
				}
			}
		}
	}
	markWrite := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel.Pos()] = true
		}
	}
	for _, f := range l.files {
		pkg := l.keyOf[f]
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
					add(pkg+"."+recvName(dd.Recv.List[0].Type)+"."+dd.Name.Name, dd.Name, dd.Pos(), dd.End())
				} else if dd.Name.Name != "main" && dd.Name.Name != "init" {
					add(pkg+"."+dd.Name.Name, dd.Name, dd.Pos(), dd.End())
				}
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						typeRanges[l.info.Defs[s.Name]] = [2]token.Pos{s.Pos(), s.End()}
						add(pkg+"."+s.Name.Name, s.Name, s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(pkg+"."+id.Name, id, s.Pos(), s.End())
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					fields(pkg+"."+n.Name.Name, st)
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					markWrite(e)
				}
			case *ast.IncDecStmt:
				markWrite(n.X)
			case *ast.ExprStmt:
				// A sync/atomic value's Add, Store, Swap or
				// CompareAndSwap whose result is dropped writes it.
				if call, ok := n.X.(*ast.CallExpr); ok {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if fn, ok := l.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
							fn.Pkg().Path() == "sync/atomic" && atomicWrites[fn.Name()] {
							markWrite(sel.X)
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id.Pos()] = true
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					whole = append(whole, l.info.TypeOf(n.X), l.info.TypeOf(n.Y))
				}
			case *ast.MapType:
				whole = append(whole, l.info.TypeOf(n.Key))
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if fn, ok := l.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
						fn.Pkg().Path() == "reflect" && fn.Name() == "DeepEqual" {
						for _, a := range n.Args {
							deep = append(deep, l.info.TypeOf(a))
						}
					}
				}
			}
			return true
		})
	}
	// A comparable type argument is compared or hashed as a whole too.
	for id, inst := range l.info.Instances {
		var tparams *types.TypeParamList
		switch obj := l.info.Uses[id].(type) {
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok {
				tparams = named.TypeParams()
			}
		case *types.Func:
			tparams = obj.Origin().Signature().TypeParams()
		}
		for i := 0; i < tparams.Len() && i < inst.TypeArgs.Len(); i++ {
			if c, ok := tparams.At(i).Constraint().Underlying().(*types.Interface); ok && c.IsComparable() {
				whole = append(whole, inst.TypeArgs.At(i))
			}
		}
	}

	// readWhole holds the fields a whole-value read reaches; mark adds
	// those of a value of type t.
	readWhole := map[types.Object]bool{}
	seen := map[types.Type]bool{}
	var mark func(t types.Type, deep bool)
	mark = func(t types.Type, deep bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				readWhole[u.Field(i).Origin()] = true
				mark(u.Field(i).Type(), deep)
			}
		case *types.Array:
			mark(u.Elem(), deep)
		case *types.Pointer:
			if deep {
				mark(u.Elem(), deep)
			}
		case *types.Slice:
			if deep {
				mark(u.Elem(), deep)
			}
		case *types.Map:
			if deep {
				mark(u.Key(), deep)
				mark(u.Elem(), deep)
			}
		}
	}
	for _, t := range whole {
		mark(t, false)
	}
	clear(seen)
	for _, t := range deep {
		mark(t, true)
	}

	// uses maps each object to the positions that resolve to it, a field
	// only where it is read; a generic's instances count as the generic.
	// Info.Uses holds every selector's name too (x.M resolves M, promoted
	// or not), so it covers Info.Selections.
	uses := map[types.Object][]token.Pos{}
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			if o.IsField() && writes[id.Pos()] {
				continue
			}
			obj = o.Origin()
		case *types.TypeName:
			if inRecv[id.Pos()] {
				continue
			}
		}
		uses[obj] = append(uses[obj], id.Pos())
	}
	used := func(obj types.Object, pos, end token.Pos) bool {
		if readWhole[obj] {
			return true
		}
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
		return nil, err
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

	scan := &surfaceScan{unused: map[string]string{}, stale: map[string]string{}, decls: len(decls)}
	declared := map[string]bool{}
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
		_, allowed := allow[key]
		switch {
		case !isUsed && !allowed:
			scan.unused[d.key] = fset.Position(d.obj.Pos()).String()
		case isUsed && allowed && key == d.key:
			scan.stale[d.key] = "non-test code uses it now"
		}
	}
	for key := range allow {
		if !declared[key] {
			scan.stale[key] = "no non-test file declares it"
		}
	}
	return scan, nil
}

// TestProductionSurface keeps production files to what production runs:
// scanSurface judges the module (cmd/, examples/ and benchmark/ count as
// users), and every declaration nothing uses must leave production or be
// in surfaceAllow with its reason. A stale entry fails too.
func TestProductionSurface(t *testing.T) {
	scan, err := scanSurface(".", "repro", surfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(scan.unused) {
		t.Errorf("no non-test code uses %s (%s)", key, scan.unused[key])
	}
	for _, key := range sortedKeys(scan.stale) {
		t.Errorf("surfaceAllow[%q] is stale: %s", key, scan.stale[key])
	}
	t.Logf("%d funcs, methods, types, constants, vars and fields judged; %d allowlisted", scan.decls, len(surfaceAllow))
}

// TestSurfaceScanRules runs the scan on testdata/surface, which holds one
// case for each of its rules, and requires exactly the findings that
// fixture names.
func TestSurfaceScanRules(t *testing.T) {
	scan, err := scanSurface(filepath.Join("testdata", "surface"), "fixture", map[string]keepReason{
		"fixture.kindNone": enumeration, // kept: nothing names it; other's twin is used
		"fixture.kindA":    enumeration, // stale: main uses it
		"fixture.gone":     fixture,     // stale: not declared
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got map[string]string, want ...string) {
		if keys := sortedKeys(got); strings.Join(keys, " ") != strings.Join(want, " ") {
			t.Errorf("%s: got %v, want %v", what, keys, want)
		}
	}
	check("unused", scan.unused, "fixture.counters.hits", "fixture.kindB", "fixture.pair.second",
		"fixture.record.note", "fixture.record.touch", "other.helper")
	check("stale", scan.stale, "fixture.gone", "fixture.kindA")
}

// atomicWrites are the sync/atomic methods that write their receiver.
var atomicWrites = map[string]bool{"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true, "And": true, "Or": true}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
