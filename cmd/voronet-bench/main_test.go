package main

import (
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

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
// tests, benchmarks and fuzz targets no *_test.go declares; the same for
// every such name in .github/workflows/ci.yml, where a `-run` pattern
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
