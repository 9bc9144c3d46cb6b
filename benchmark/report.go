package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// stamp says what produced a report, so two reports can be compared
// knowingly.
type stamp struct {
	GitSHA     string  `json:"git_sha"`
	Go         string  `json:"go"`
	OSArch     string  `json:"os_arch"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Time       string  `json:"time"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Network    string  `json:"network"`
	WALFlush   string  `json:"wal_flush"`
}

// report is one invocation's output: a run-set.
type report struct {
	Schema string       `json:"schema"`
	Stamp  stamp        `json:"stamp"`
	Runs   []*runResult `json:"runs"`
}

const reportSchema = "voronet-benchmark/1"

func newStamp(seed int64, seconds float64) stamp {
	sha := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return stamp{
		GitSHA: sha, Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Time: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds,
		Scale:    fmt.Sprintf("%d tcp peers, %d sim objects", fullScale.tcpNodes, fullScale.simObjects),
		Network:  "loopback (127.0.0.1), one process",
		WALFlush: "batch, every peer fsynced once a second (wal.SyncBatch; tcp-put-durable only)",
	}
}

func specFor(name string) (metricSpec, bool) {
	for _, s := range endToEnd {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range perLayer {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

// printRun writes one run for a human: every metric by name and unit,
// sample counts beside the percentiles, the phases, the verdict.
func printRun(w io.Writer, r *runResult) {
	pass := "untraced"
	specs := endToEnd
	if r.Trace {
		pass, specs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s pass  %.1f s measured, %.1f s wall\n", r.Workload, r.Seed, pass, r.Seconds, r.WallSeconds)
	for _, s := range specs {
		v, ok := r.Metrics[s.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-28s %14.4f %-6s", s.Name, v, s.Unit)
		if n, ok := r.Samples[s.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-28s %14.6f %-6s  (%d failed of %d attempted)\n", "fail_frac", r.FailFrac, "ratio", r.Failed, r.Attempted)
	fmt.Fprintf(w, "  %.2f hops per GET\n", r.HopsPerOp)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-14s %7.2f s  %7d issued  %d failed", p.Name, p.Seconds, p.Attempted, p.Failed)
		if p.Offered > 0 {
			fmt.Fprintf(w, "  offered %.0f/s", p.Offered)
		}
		fmt.Fprintln(w)
	}
	if len(r.SetupSeconds) > 0 {
		fmt.Fprintf(w, "  set-ups %v s\n", r.SetupSeconds)
	}
	if t := r.TraceSummary; t != nil {
		fmt.Fprintf(w, "  trace: %d ops, %d spans, %.2f handlers and %.2f legs per op, %d unmatched sends -> %s\n",
			t.Ops, t.Spans, t.Handlers, t.Legs, t.Unmatched, r.TraceFile)
	}
	if r.Audit.CopiesMax > 0 {
		fmt.Fprintf(w, "  live copies per audited key: %d to %d\n", r.Audit.CopiesMin, r.Audit.CopiesMax)
	}
	for _, n := range r.Audit.Observations {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, n := range r.Audit.Notes {
		fmt.Fprintf(w, "  AUDIT: %s\n", n)
	}
	if r.Goroutines[1] > r.Goroutines[0]+goroutineSlack {
		fmt.Fprintf(w, "  LEAK: %d goroutines before, %d after\n", r.Goroutines[0], r.Goroutines[1])
	}
}

// resultLine is the run contract's last line of standard output.
func resultLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range r.Metrics {
		s, _ := specFor(name)
		out.Metrics[name] = mv{v, s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(b)
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// medians reduces a run-set to one value per (workload, end-to-end
// metric): the median over its untraced runs.
func (rep *report) medians() map[string]map[string]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range rep.Runs {
		if r.Trace {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], v)
		}
	}
	out := map[string]map[string]float64{}
	for wl, ms := range vals {
		out[wl] = map[string]float64{}
		for name, vs := range ms {
			out[wl][name] = medianFloat(vs)
		}
	}
	return out
}

// compare applies each end-to-end metric's bound to run-set b against
// baseline a, workload by workload, and reports whether b stays inside
// every one. A failed operation anywhere in b is a regression outright.
func compare(w io.Writer, a, b *report) bool {
	ok := true
	ma, mb := a.medians(), b.medians()
	fmt.Fprintf(w, "baseline %s (seed %d, %s)\n   other %s (seed %d, %s)\n",
		a.Stamp.GitSHA, a.Stamp.Seed, a.Stamp.Time, b.Stamp.GitSHA, b.Stamp.Seed, b.Stamp.Time)
	var wls []string
	for wl := range ma {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		if mb[wl] == nil {
			fmt.Fprintf(w, "%s: missing from the second report\n", wl)
			ok = false
			continue
		}
		fmt.Fprintf(w, "%s\n", wl)
		for _, s := range endToEnd {
			va, vb := ma[wl][s.Name], mb[wl][s.Name]
			worse := (vb - va) / va
			if s.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if va == 0 || worse > s.Bound {
				verdict, ok = "REGRESSION", false
			}
			fmt.Fprintf(w, "  %-16s %14.4f -> %14.4f %-5s  %+6.1f%% worse (bound %.0f%%)  %s\n",
				s.Name, va, vb, s.Unit, 100*worse, 100*s.Bound, verdict)
		}
	}
	for _, r := range b.Runs {
		if !r.Correct {
			fmt.Fprintf(w, "%s (trace %v): fail_frac %.6f, must be 0\n", r.Workload, r.Trace, r.FailFrac)
			ok = false
		}
	}
	return ok
}
