package virtines_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	"core.Func.CallTyped":        typedArgs,   // typed_test.go
	"cpu.CPU.CodePages":          fixture,     // cpu's cache tests, wasp's boot-replay test
	"guest.Image.WithPad":        figure,      // Fig 12's image sizes; wasp's forest tests
	"guest.MinimalHalt":          fixture,     // figures, differentials, sched and wasp tests
	"guest.MinimalHaltProtected": figure,      // the engine differential; wasp's platform tests
	"guest.RealModeHalt":         figure,      // Fig 2, Fig 8, Tab 2; sched and wasp tests
	"httpd.EchoImage":            figure,      // Fig 4 and the echo differential
	"httpd.EchoPolicy":           figure,      // Fig 4 and the echo differential
	"hypercall.FS.Paths":         harnessTest, // benchmark/bench_test.go
	"obs.Deterministic":          fixture,     // obs, sched, wasp and serverless trace tests
	"obs.Tracer.Marshal":         harnessTest, // benchmark/bench_test.go, obs's determinism test
	"stats.HarmonicMean":         figure,      // Fig 13's throughput column
	"stats.Jain":                 figure,      // the split-fleet and noisy-neighbor fairness pins
	"vmm.Baseline.Measure":       figure,      // Fig 2's and Fig 8's baselines
	"vmm.Context.CheckContent":   invariant,   // wasp's checkRuntime, vmm's capture tests
	"vmm.PageStore.Inserted":     fixture,     // vmm's page-store tests, wasp's ForkLifecycle hashes/op
	"wasp.Cleaner.BusyCycles":    figure,      // Fig 15's cleaner row
	"wasp.Cleaner.VirtualDrains": figure,      // Fig 15's cleaner row
	"wasp.WithLegacyInterp":      figure,      // the engine differentials
	"wasp.WithPooling":           figure,      // Fig 8's no-pooling row
}

// TestProductionSurface keeps production files to what production runs:
// every exported func, method and type declared in a non-test file must
// be referenced by name from some non-test file (cmd/, examples/ and
// benchmark/ count as callers) outside its own declaration, or be in
// surfaceAllow with its reason. A stale allowlist entry (the name is
// used now, or no longer declared) fails too. Constants and vars are
// left out: the ISA's registers and the tracer's mark IDs are closed
// enumerations. The scan is by name, so a method is covered by any use
// of its name, an interface's included, and a type by its own methods'
// receivers.
func TestProductionSurface(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key string
		pos token.Pos
	}
	var decls []decl
	refs := map[string]int{} // identifier name -> uses outside declarations
	declPos := map[token.Pos]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if !dd.Name.IsExported() {
					continue
				}
				key := pkg + "." + dd.Name.Name
				if dd.Recv != nil && len(dd.Recv.List) == 1 {
					key = pkg + "." + recvName(dd.Recv.List[0].Type) + "." + dd.Name.Name
				}
				decls = append(decls, decl{key, dd.Name.Pos()})
				declPos[dd.Name.Pos()] = true
			case *ast.GenDecl:
				if dd.Tok != token.TYPE {
					continue
				}
				for _, s := range dd.Specs {
					ts := s.(*ast.TypeSpec)
					if ts.Name.IsExported() {
						decls = append(decls, decl{pkg + "." + ts.Name.Name, ts.Name.Pos()})
						declPos[ts.Name.Pos()] = true
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declPos[id.Pos()] {
				refs[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		_, allowed := surfaceAllow[d.key]
		switch {
		case refs[name] == 0 && !allowed:
			unused = append(unused, d.key+" ("+fset.Position(d.pos).String()+")")
		case refs[name] > 0 && allowed:
			t.Errorf("surfaceAllow[%q] is stale: a non-test file uses the name now", d.key)
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
	t.Logf("%d exported funcs, methods and types; %d allowlisted", len(decls), len(surfaceAllow))
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
