package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func toyConfig(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	return runConfig{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		sc: toyScale, outDir: t.TempDir(), tmpDir: t.TempDir(),
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload, both passes, at toy scale: the run verifies itself, and
// reports every metric BENCHMARK.json promises for that pass.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		wl := w.name
		for _, trace := range []bool{false, true} {
			name := wl + "/untraced"
			specs := endToEnd
			if trace {
				name, specs = wl+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(toyConfig(t, wl, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.FailFrac != 0 {
					t.Errorf("fail_frac = %v (%d of %d), audit notes %v", res.FailFrac, res.Failed, res.Attempted, res.Audit.Notes)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("run reports %d metrics, the pass has %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := res.Metrics[s.Name]
					switch {
					case !metricName.MatchString(s.Name):
						t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", s.Name)
					case !ok:
						t.Errorf("metric %s missing from the run", s.Name)
					case math.IsNaN(v) || math.IsInf(v, 0):
						t.Errorf("metric %s = %v", s.Name, v)
					case !trace && v <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, v)
					}
				}
				if trace && w.tcp {
					if res.TraceSummary == nil || res.TraceSummary.Ops == 0 {
						t.Errorf("traced pass rebuilt no operation from its spans: %+v", res.TraceSummary)
					}
					if _, err := os.Stat(res.TraceFile); err != nil {
						t.Errorf("span dump: %v", err)
					}
				}
				if res.Goroutines[1] > res.Goroutines[0]+goroutineSlack {
					t.Errorf("goroutines: %d before the workload, %d after", res.Goroutines[0], res.Goroutines[1])
				}
				var line struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]struct {
						Value *float64
						Unit  *string
					}
				}
				dec := json.NewDecoder(bytes.NewReader([]byte(resultLine(res))))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if line.Correct == nil || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || len(line.Metrics) != len(specs) {
					t.Errorf("result line incomplete: %s", resultLine(res))
				}
			})
		}
	}
}

// BENCHMARK.json is the benchmark's published contract; spec.go is what
// the code measures and -compare enforces. They must say the same thing.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the code's %v", kind, g.Name, w.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

// A value that is not what its writer stored must fail the run.
func TestCorruptValueFailsRun(t *testing.T) {
	cfg := toyConfig(t, wlTCPGet, false)
	cfg.afterSetup = func(env environment) {
		e := env.(*tcpEnv)
		if err := e.nodes[1].PutSync(e.ks.keys[3], []byte("not what the generator wrote")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("run with a corrupted value passed verification: %d failed of %d", res.Failed, res.Attempted)
	}
}

// A node whose log is gone cannot replay what it acknowledged: the WAL
// audit must fail the run.
func TestDeletedWALDirFailsRun(t *testing.T) {
	cfg := toyConfig(t, wlTCPDurable, false)
	cfg.beforeAudit = func(env environment) {
		e := env.(*tcpEnv)
		if err := os.RemoveAll(e.walDir(2)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Audit.Failed == 0 {
		t.Errorf("run with a deleted WAL directory passed verification: audit %+v", res.Audit)
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	ops, _ := specFor("ops_per_s")
	p50, _ := specFor("p50_us")
	mk := func(opsWorse, p50Worse float64, correct bool) *report {
		m := map[string]float64{}
		for _, s := range endToEnd {
			m[s.Name] = 100
		}
		m["ops_per_s"], m["p50_us"] = 1000*(1-opsWorse), 100*(1+p50Worse)
		return &report{Schema: reportSchema, Runs: []*runResult{{Workload: wlTCPGet, Correct: correct, Metrics: m}}}
	}
	base := mk(0, 0, true)
	var out bytes.Buffer
	if !compare(&out, base, mk(0.7*ops.Bound, 0.7*p50.Bound, true)) {
		t.Errorf("0.7 of the bound worse was called a regression:\n%s", out.String())
	}
	if compare(&out, base, mk(1.3*ops.Bound, 0, true)) {
		t.Error("ops_per_s lower by 1.3 of its bound passed")
	}
	if compare(&out, base, mk(0, 1.3*p50.Bound, true)) {
		t.Error("p50_us higher by 1.3 of its bound passed")
	}
	if !compare(&out, base, mk(-1, -0.5, true)) {
		t.Error("an improvement was called a regression")
	}
	if compare(&out, base, mk(0, 0, false)) {
		t.Error("a run with failed operations passed")
	}
}
