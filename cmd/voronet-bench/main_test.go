package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The two option structs, by the path of the package that declares each.
const (
	nodePkg = "voronet/internal/node"
	corePkg = "voronet/internal/core"
)

// configFields returns the exported fields of the struct type Config that
// the package in dir declares, in declaration order.
func configFields(t *testing.T, dir string) []string {
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
			if !ok || ts.Name.Name != "Config" {
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
		t.Fatalf("no Config struct with exported fields in %s", dir)
	}
	return fields
}

// TestEveryOptionHasACaller keeps the rule that shrank node.Config from 14
// fields to 9: an option exists because some program gives it a value.
// Every exported field of node.Config and core.Config must be set — as a
// composite-literal key, or by `v.Field = …` on a variable the same file
// made from such a literal — in a non-test .go file under cmd/, internal/
// or benchmark/ outside the package that declares it: a literal counts
// only when it names the struct through an import, so the declaring
// package's own defaulting proves nothing.
func TestEveryOptionHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	// Each exemption with its reason.
	allowed := map[string]string{
		"core.Config.DMin": "snapshot restore (core/persist.go) and TestRouteDigest's pinned dmin4x scenario, " +
			"the only digest in which the cn scan decides a hop, need a dmin that NMax does not imply",
	}
	// The facade re-exports core.Config as voronet.Config.
	declares := map[string]string{nodePkg: "node", corePkg: "core", "voronet": "core"}
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
			local := map[string]string{} // import name in this file → "node" | "core"
			for _, imp := range file.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				if short, ok := declares[ipath]; ok {
					name := ipath[strings.LastIndex(ipath, "/")+1:]
					if imp.Name != nil {
						name = imp.Name.Name
					}
					local[name] = short
				}
			}
			// configOf names the struct a `pkg.Config{…}` literal builds.
			configOf := func(e ast.Expr) (string, *ast.CompositeLit) {
				if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
					e = u.X
				}
				lit, ok := e.(*ast.CompositeLit)
				if !ok {
					return "", nil
				}
				sel, ok := lit.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Config" {
					return "", nil
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					return "", nil
				}
				return local[pkg.Name], lit
			}
			vars := map[string]string{} // variable made from a Config literal → its struct
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if short, lit := configOf(n); short != "" {
						for _, el := range lit.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									set[short+".Config."+key.Name] = true
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
								set[vars[v.Name]+".Config."+sel.Sel.Name] = true
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
	for _, c := range []struct{ short, dir string }{{"node", "internal/node"}, {"core", "internal/core"}} {
		for _, f := range configFields(t, filepath.Join(root, c.dir)) {
			name := c.short + ".Config." + f
			switch {
			case set[name] && allowed[name] != "":
				t.Errorf("%s is on the allow-list but has a caller now; drop the entry", name)
			case !set[name] && allowed[name] == "":
				t.Errorf("%s: no non-test file under cmd/, internal/ or benchmark/ sets it outside %s — make it a constant, or give it a caller", name, c.dir)
			}
		}
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
// tests, benchmarks and fuzz targets no *_test.go declares, or at a
// `Config.X`, `node.Config.X` or `core.Config.X` that is not a field; the
// same for every test name in .github/workflows/ci.yml, where a `-run` pattern
// that matches nothing passes silently. Text under a "Retired …" heading
// is history and exempt.
func TestDocsNameWhatExists(t *testing.T) {
	root := filepath.Join("..", "..")
	// A doc may name a source file by any suffix of its path
	// (`node/store.go`), so index the tree's Go files by "/"+path.
	var goFiles, testFuncs []string
	testDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel(root, path)
			goFiles = append(goFiles, "/"+filepath.ToSlash(rel))
			if strings.HasSuffix(path, "_test.go") {
				src, err := os.ReadFile(path)
				if err != nil {
					return err
				}
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
