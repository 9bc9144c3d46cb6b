package main

import (
	"flag"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// optionStruct is one struct of options: its package's short name, its
// type name and the package directory.
type optionStruct struct{ short, typ, dir string }

// optionStructs are the option structs, by the path of the package that
// declares each; the facade re-exports core.Config as voronet.Config.
var optionStructs = map[string]optionStruct{
	"voronet/internal/node":   {"node", "Config", "internal/node"},
	"voronet/internal/core":   {"core", "Config", "internal/core"},
	"voronet":                 {"core", "Config", "internal/core"},
	"voronet/internal/client": {"client", "Options", "internal/client"},
	"voronet/internal/wal":    {"wal", "Options", "internal/wal"},
}

// configFields returns the exported fields of the struct type Config that
// the package in dir declares, in declaration order.
func configFields(t *testing.T, dir string) []string {
	t.Helper()
	return structFields(t, dir, "Config")
}

// structFields returns the exported fields of the struct type typ that
// the package in dir declares, in declaration order.
func structFields(t *testing.T, dir, typ string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typ {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.IsExported() {
							fields = append(fields, name.Name)
						}
					}
				}
			}
			return false
		})
	}
	if len(fields) == 0 {
		t.Fatalf("no %s struct with exported fields in %s", typ, dir)
	}
	return fields
}

// TestEveryOptionHasACaller keeps the rule that shrank node.Config from 14
// fields to 8: an option exists because some program gives it a value.
// Every exported field of node.Config, core.Config, client.Options and
// wal.Options must be set — as a composite-literal key, or by
// `v.Field = …` on a variable the same file made from such a literal — in
// a non-test .go file under cmd/, internal/ or benchmark/ outside the
// package that declares it: a literal counts only when it names the
// struct through an import, so the declaring package's own defaulting
// proves nothing.
func TestEveryOptionHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	// Each exemption with its reason.
	allowed := map[string]string{
		"core.Config.DMin": "TestRouteDigest's pinned dmin4x scenario, the only digest in which the cn scan " +
			"decides a hop, needs a dmin that NMax does not imply",
	}
	set := map[string]bool{}
	for _, top := range []string{"cmd", "internal", "benchmark"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			local := map[string]optionStruct{} // import name in this file → its option struct
			for _, imp := range file.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				if o, ok := optionStructs[ipath]; ok {
					name := ipath[strings.LastIndex(ipath, "/")+1:]
					if imp.Name != nil {
						name = imp.Name.Name
					}
					local[name] = o
				}
			}
			// configOf names the struct a `pkg.Config{…}` or
			// `pkg.Options{…}` literal builds, as "node.Config".
			configOf := func(e ast.Expr) (string, *ast.CompositeLit) {
				if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
					e = u.X
				}
				lit, ok := e.(*ast.CompositeLit)
				if !ok {
					return "", nil
				}
				sel, ok := lit.Type.(*ast.SelectorExpr)
				if !ok {
					return "", nil
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || local[pkg.Name].typ != sel.Sel.Name {
					return "", nil
				}
				return local[pkg.Name].short + "." + sel.Sel.Name, lit
			}
			vars := map[string]string{} // variable made from an option literal → its struct
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if short, lit := configOf(n); short != "" {
						for _, el := range lit.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									set[short+"."+key.Name] = true
								}
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) {
							if short, _ := configOf(n.Rhs[i]); short != "" {
								vars[id.Name] = short
							}
						}
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if v, ok := sel.X.(*ast.Ident); ok && vars[v.Name] != "" {
								set[vars[v.Name]+"."+sel.Sel.Name] = true
							}
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path, c := range optionStructs {
		if path == "voronet" {
			continue // the facade's Config is core's
		}
		for _, f := range structFields(t, filepath.Join(root, c.dir), c.typ) {
			name := c.short + "." + c.typ + "." + f
			switch {
			case set[name] && allowed[name] != "":
				t.Errorf("%s is on the allow-list but has a caller now; drop the entry", name)
			case !set[name] && allowed[name] == "":
				t.Errorf("%s: no non-test file under cmd/, internal/ or benchmark/ sets it outside %s — make it a constant, or give it a caller", name, c.dir)
			}
		}
	}
}

// TestEveryExportHasACaller extends that rule to every exported name of
// internal/ and of the root package: a top-level func, method, type, const
// or var stays exported only if a non-test .go file outside its package —
// under cmd/, internal/, examples/, benchmark/ or in the root package —
// uses it. The root package is the product surface, so the programs under
// examples/ count as callers. Calls are resolved by go/types, so a `.Len()`
// on some other type is not mistaken for one. Exempt without a listing: a
// method through which its type satisfies an interface, and a type, const
// or sentinel error that a kept name hands to its callers (a type in its
// signature or exported fields, a const of such a type, an error var its
// package returns). Every other exemption is listed with its reason.
func TestEveryExportHasACaller(t *testing.T) {
	allowed := map[string]string{
		// internal/sim's storeequiv_test.go drives one workload through the
		// simulator store and the live nodes and compares them key for key.
		"core.Store.InsertObject": "reference implementation: the store-equivalence test adds its objects through it",
		"core.Store.Delete":       "reference implementation: the store-equivalence test deletes keys through it",
	}

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)

	// Every package directory a caller may sit in, with its import path
	// (benchmark/ is module voronet/benchmark, so the rule is the same).
	dirs := map[string]string{root: "voronet"}
	for _, top := range []string{"cmd", "internal", "examples", "benchmark"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				rel, _ := filepath.Rel(root, filepath.Dir(path))
				dirs[filepath.Dir(path)] = "voronet/" + filepath.ToSlash(rel)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// key names an object as the allow-list and the report do.
	key := func(obj types.Object) string {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if recv := fn.Signature().Recv(); recv != nil {
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				if named, ok := rt.(*types.Named); ok {
					return fn.Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
				}
				return "" // an interface method
			}
		}
		return obj.Pkg().Name() + "." + obj.Name()
	}
	declaring := func(path string) bool {
		return path == "voronet" || strings.HasPrefix(path, "voronet/internal/")
	}

	// Type-check every package's non-test files and note, per object, who
	// uses it: another package (a caller) or only its own.
	called, usedInside := map[string]bool{}, map[string]bool{}
	reexports := map[string]string{} // facade name → the name it re-exports
	var declared []*types.Package
	for dir, path := range dirs {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range matches {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		// A facade declaration `X = pkg.Y` in the root package names Y for
		// the product; it is not a caller of Y.
		reexported := map[*ast.Ident]bool{}
		if path == "voronet" {
			for _, f := range files {
				for _, decl := range f.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range gd.Specs {
						var name *ast.Ident
						var rhs ast.Expr
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Assign.IsValid() {
								name, rhs = spec.Name, spec.Type
							}
						case *ast.ValueSpec:
							if len(spec.Names) == 1 && len(spec.Values) == 1 {
								name, rhs = spec.Names[0], spec.Values[0]
							}
						}
						if sel, ok := rhs.(*ast.SelectorExpr); ok && name != nil {
							reexported[sel.Sel] = true
							reexports["voronet."+name.Name] = key(info.Uses[sel.Sel])
						}
					}
				}
			}
		}
		for id, obj := range info.Uses {
			if obj.Pkg() == nil || !obj.Exported() || !declaring(obj.Pkg().Path()) || reexported[id] {
				continue
			}
			if k := key(obj); obj.Pkg().Path() != path {
				called[k] = true
			} else {
				usedInside[k] = true
			}
		}
		if declaring(path) {
			// The importer's copy, so that its types are the ones the
			// other packages were checked against.
			pkg, err := imp.ImportFrom(path, root, 0)
			if err != nil {
				t.Fatal(err)
			}
			declared = append(declared, pkg)
		}
	}

	// Every named interface any of these packages can see, and error.
	var ifaces []*types.Interface
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range declared {
		visit(p)
	}
	satisfies := func(named *types.Named, method string) bool {
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, method); obj == nil {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	// The exported names, each with the types its callers are handed.
	type export struct {
		obj   types.Object
		hands []*types.Named
	}
	exports := map[string]export{}
	var collect func(typ types.Type, out *[]*types.Named, depth int)
	collect = func(typ types.Type, out *[]*types.Named, depth int) {
		switch typ := typ.(type) {
		case *types.Named:
			if typ.Obj().Pkg() != nil && declaring(typ.Obj().Pkg().Path()) {
				*out = append(*out, typ.Origin())
			}
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				collect(typ.TypeArgs().At(i), out, depth)
			}
			if depth == 0 {
				collect(typ.Underlying(), out, 1)
			}
		case *types.Alias:
			collect(types.Unalias(typ), out, depth)
		case *types.Pointer:
			collect(typ.Elem(), out, depth)
		case *types.Slice:
			collect(typ.Elem(), out, depth)
		case *types.Array:
			collect(typ.Elem(), out, depth)
		case *types.Map:
			collect(typ.Key(), out, depth)
			collect(typ.Elem(), out, depth)
		case *types.Chan:
			collect(typ.Elem(), out, depth)
		case *types.Signature:
			for _, tup := range []*types.Tuple{typ.Params(), typ.Results()} {
				for i := 0; i < tup.Len(); i++ {
					collect(tup.At(i).Type(), out, depth)
				}
			}
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if f := typ.Field(i); f.Exported() || f.Embedded() {
					collect(f.Type(), out, depth)
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumMethods(); i++ {
				collect(typ.Method(i).Type(), out, depth)
			}
		}
	}
	var satisfying []string
	for _, p := range declared {
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			var e export
			e.obj = obj
			if tn, ok := obj.(*types.TypeName); ok {
				collect(tn.Type(), &e.hands, 0)
				if named, ok := tn.Type().(*types.Named); ok && !tn.IsAlias() {
					for i := 0; i < named.NumMethods(); i++ {
						m := named.Method(i)
						if !m.Exported() {
							continue
						}
						var me export
						me.obj = m
						collect(m.Type(), &me.hands, 1)
						exports[key(m)] = me
						if satisfies(named, m.Name()) {
							satisfying = append(satisfying, key(m))
						}
					}
				}
			} else {
				collect(obj.Type(), &e.hands, 1)
			}
			exports[key(obj)] = e
		}
	}

	// Keep what has a caller, what the allow-list names and what satisfies
	// an interface, then whatever a kept name hands out, to a fixed point.
	kept := map[string]bool{}
	var keep func(k string)
	keep = func(k string) {
		e, ok := exports[k]
		if !ok || kept[k] {
			return
		}
		kept[k] = true
		for _, n := range e.hands {
			keep(key(n.Obj()))
		}
		keep(reexports[k])
	}
	for k := range exports {
		if called[k] || allowed[k] != "" {
			keep(k)
		}
	}
	for _, k := range satisfying {
		keep(k)
	}
	// A sentinel error its package returns, and a const of a kept type,
	// are part of what callers are handed; the facade names for the
	// product whatever it re-exports that is kept.
	errType := types.Universe.Lookup("error").Type()
	for k, e := range exports {
		switch obj := e.obj.(type) {
		case *types.Const:
			if named, ok := obj.Type().(*types.Named); ok && kept[key(named.Obj())] {
				keep(k)
			}
		case *types.Var:
			if types.Identical(obj.Type(), errType) && usedInside[k] {
				keep(k)
			}
		}
	}
	for facade, target := range reexports {
		if kept[target] {
			keep(facade)
		}
	}

	var missing []string
	for k := range exports {
		switch {
		case called[k] && allowed[k] != "":
			t.Errorf("%s is on the allow-list but has a caller now; drop the entry", k)
		case !kept[k]:
			missing = append(missing, k)
		}
	}
	for k := range allowed {
		if _, ok := exports[k]; !ok {
			t.Errorf("%s is on the allow-list but not an exported name", k)
		}
	}
	slices.Sort(missing)
	t.Logf("%d exported names, %d without a caller", len(exports), len(missing))
	for _, k := range missing {
		where := "only tests use it: delete it"
		if usedInside[k] {
			where = "only its own package uses it: unexport it"
		}
		t.Errorf("%s: no non-test file outside its package uses it; %s", k, where)
	}
}

// TestCPUProfileSurvivesFailure: a mode that fails must still leave a
// complete profile behind — that is the run one wants to look at. The
// unknown scenario used to leave through os.Exit past the deferred stop.
func TestCPUProfileSurvivesFailure(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "f")
	if code := run([]string{"-chaos", "-scenario", "no-such", "-cpuprofile", prof}); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	// pprof writes the profile gzip-compressed when it is stopped.
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is %d bytes and not gzip-framed: stopped too late or never", len(b))
	}
}

// TestCommittedFiguresDivergeOnlyWhereKnown reads the committed
// BENCH_fig.txt and requires its DIVERGES verdicts to be exactly the ones
// listed here, each with an entry in EXPERIMENTS.md: a new divergence
// cannot be committed unnoticed, and one that was fixed must leave the
// list.
func TestCommittedFiguresDivergeOnlyWhereKnown(t *testing.T) {
	known := []string{"Fig7/alpha5"}
	text, err := os.ReadFile(filepath.Join("..", "..", "BENCH_fig.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^# (\S+) +DIVERGES\b`).FindAllStringSubmatch(string(text), -1) {
		got = append(got, m[1])
	}
	slices.Sort(got)
	if !slices.Equal(got, known) {
		t.Errorf("BENCH_fig.txt says DIVERGES for %v; the allow-list is %v", got, known)
	}
}

// TestDocsNameWhatExists keeps README.md, DESIGN.md and EXPERIMENTS.md
// from pointing at result files or Go source files that are not in the
// tree, at voronet-bench flags that are not defined, or (back-ticked) at
// tests, benchmarks and fuzz targets no *_test.go declares, at a
// `Config.X`, `node.Config.X` or `core.Config.X` that is not a field, or
// at a back-ticked CamelCase identifier of two or more humps (`DefaultDMin`,
// `Overlay.LongNeighbors`) that appears as a word in no .go file; the
// same for every test name in .github/workflows/ci.yml, where a `-run` pattern
// that matches nothing passes silently. Text under a "Retired …" heading
// is history and exempt.
func TestDocsNameWhatExists(t *testing.T) {
	root := filepath.Join("..", "..")
	// Identifiers the docs may name although no .go file spells them.
	foreign := map[string]string{
		"NumGC":          "a field of runtime.MemStats",
		"MemProfileRate": "a variable of package runtime",
	}
	// A doc may name a source file by any suffix of its path
	// (`node/store.go`), so index the tree's Go files by "/"+path.
	var goFiles, testFuncs []string
	goWords := map[string]bool{}
	word := regexp.MustCompile(`\w+`)
	testDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel(root, path)
			goFiles = append(goFiles, "/"+filepath.ToSlash(rel))
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, w := range word.FindAll(src, -1) {
				goWords[string(w)] = true
			}
			if strings.HasSuffix(path, "_test.go") {
				for _, m := range testDecl.FindAllSubmatch(src, -1) {
					testFuncs = append(testFuncs, string(m[1]))
				}
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// `go test -run X` selects by unanchored match, and the docs shorten
	// families the same way: a name stands if it prefixes a declared one.
	declared := func(name string) bool {
		return slices.ContainsFunc(testFuncs, func(f string) bool { return strings.HasPrefix(f, name) })
	}
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(ci), "\n") {
		for _, name := range testName.FindAllString(line, -1) {
			if !declared(name) {
				t.Errorf("ci.yml:%d: names %s, which no *_test.go declares", i+1, name)
			}
		}
	}
	tickedTest := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Z0-9]\\w*)")
	goFile := regexp.MustCompile("`([\\w./-]+\\.go)`")
	resultFile := regexp.MustCompile(`\bBENCH_\w+\.(?:json|txt)\b|\bbenchmark/results/[\w.-]+\.json\b`)
	// A bare `Config.X` may mean either struct.
	option := regexp.MustCompile("`(?:(node|core|voronet)\\.)?Config\\.([A-Z]\\w*)")
	optionFields := map[string][]string{
		"node": configFields(t, filepath.Join(root, "internal", "node")),
		"core": configFields(t, filepath.Join(root, "internal", "core")),
	}
	optionFields["voronet"] = optionFields["core"]
	optionFields[""] = slices.Concat(optionFields["node"], optionFields["core"])
	flagWord := regexp.MustCompile(`(?:^|\s)-{1,2}([a-z][\w-]*)`)
	// Two humps or more: a capital, then lower case, then another capital
	// (`NumGC`, `DefaultDMin`), possibly after a `Type.` qualifier.
	camel := regexp.MustCompile("`(?:\\w+\\.)?([A-Z][a-z0-9]+[A-Z]\\w*)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		retired, retiredLevel, inFence, inSh := false, 0, false, false
		for i, line := range strings.Split(string(text), "\n") {
			at := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			if strings.HasPrefix(line, "```") {
				inFence = !inFence
				inSh = inFence && strings.TrimSpace(line[3:]) == "sh"
				continue
			}
			if level := len(line) - len(strings.TrimLeft(line, "#")); !inFence && level > 0 && strings.HasPrefix(line[level:], " ") {
				// A heading ends a retired section unless it is nested in it.
				if strings.Contains(line, "Retired") {
					retired, retiredLevel = true, level
				} else if level <= retiredLevel {
					retired = false
				}
			}
			if retired {
				continue
			}
			for _, f := range resultFile.FindAllString(line, -1) {
				if _, err := os.Stat(filepath.Join(root, f)); err != nil {
					at("names %s, which is not in the tree", f)
				}
			}
			for _, m := range goFile.FindAllStringSubmatch(line, -1) {
				named := func(f string) bool { return strings.HasSuffix(f, "/"+m[1]) }
				if !slices.ContainsFunc(goFiles, named) {
					at("names %s, which is not in the tree", m[1])
				}
			}
			for _, m := range tickedTest.FindAllStringSubmatch(line, -1) {
				if !declared(m[1]) {
					at("names %s, which no *_test.go declares", m[1])
				}
			}
			for _, m := range camel.FindAllStringSubmatch(line, -1) {
				if !goWords[m[1]] && foreign[m[1]] == "" {
					at("names %s, which no .go file spells", m[1])
				}
			}
			for _, m := range option.FindAllStringSubmatch(line, -1) {
				if !slices.Contains(optionFields[m[1]], m[2]) {
					at("names %s, which is not a field of that Config", strings.TrimPrefix(m[0], "`"))
				}
			}
			if cmd := strings.Index(line, "voronet-bench "); inSh && cmd >= 0 {
				// Up to a pipe, a redirect or a comment: what follows is
				// another program's command line.
				args := line[cmd:]
				if end := strings.IndexAny(args, "|>#&;"); end >= 0 {
					args = args[:end]
				}
				for _, m := range flagWord.FindAllStringSubmatch(args, -1) {
					if flag.Lookup(m[1]) == nil {
						at("voronet-bench has no flag -%s", m[1])
					}
				}
			}
		}
	}
}
