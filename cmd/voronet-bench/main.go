// voronet-bench regenerates the figures of the VoroNet paper's evaluation
// (§5) and prints their data as TSV, plus a one-line verdict per figure
// comparing the measured shape with the paper's claims. It also runs the
// ablation studies, the per-operation maintenance costs and the chaos
// scenario battery. Speed and latency are not measured here: that is
// `bash benchmark/run.sh` (see EXPERIMENTS.md "How to measure").
//
// Usage:
//
//	voronet-bench -fig 5|6|7|8|all [-n 300000] [-checkpoint 10000] [-samples 2000] [-kmax 10]
//	voronet-bench -ablate               (A1-A4 ablation studies)
//	voronet-bench -maintenance          (join/leave management costs)
//	voronet-bench -chaos [-scenario NAME] [-chaos-seed N]    (JSON lines)
//
// Fig 7 fits the Fig 6 series; -fig all at the defaults is paper scale:
// 300 000 objects (the paper also takes 100 000 route samples per
// checkpoint; means converge far earlier, so -samples defaults to 2000).
// Routing measurements exclude close neighbours from the greedy candidate
// set by default (-cn=false), which is the measurement the paper's Fig 6
// curves are consistent with — see EXPERIMENTS.md; pass -cn to include
// them. Every output carries the commit, toolchain and host that produced
// it: a "# stamp:" line on the TSV modes, a "stamp" object on -chaos lines.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"voronet/internal/harness"
	"voronet/internal/kleinberg"
	"voronet/internal/sim"
)

var (
	fig        = flag.String("fig", "all", "figure to regenerate: 5, 6, 7, 8 or all")
	n          = flag.Int("n", 300000, "overlay size")
	checkpoint = flag.Int("checkpoint", 10000, "growth step between measurements (figs 6-8)")
	samples    = flag.Int("samples", 2000, "route samples per checkpoint")
	kmax       = flag.Int("kmax", 10, "maximum long-link count (fig 8)")
	seed       = flag.Int64("seed", 20070326, "base RNG seed")
	useCN      = flag.Bool("cn", false, "include close neighbours as routing shortcuts")
	ablate     = flag.Bool("ablate", false, "run the ablation studies (A1-A4)")
	maint      = flag.Bool("maintenance", false, "measure per-operation management costs across sizes")
	chaosMode  = flag.Bool("chaos", false, "run the chaos scenario battery, one JSON line per scenario on stdout")
	chaosName  = flag.String("scenario", "", "run only the named chaos scenario (-chaos)")
	chaosSeed  = flag.Int64("chaos-seed", 0, "offset added to every scenario seed (-chaos)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
)

// errUsage marks an error of the command line (unknown figure or
// scenario): exit status 2, where a failed run is 1.
var errUsage = errors.New("usage")

func main() { os.Exit(run(os.Args[1:])) }

// run is main without the os.Exit, so that the CPU profile is stopped and
// closed on every way out, a failing mode included.
func run(args []string) int {
	flag.CommandLine.Parse(args) // ExitOnError: a bad flag exits 2 here, before a profile is open
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
	}
	if *chaosMode {
		return fail(runChaos())
	}
	start := time.Now()
	var err error
	b, _ := json.Marshal(newStamp()) // strings and ints: cannot fail
	fmt.Printf("# stamp: %s\n", b)
	switch {
	case *ablate:
		err = runAblations()
	case *maint:
		err = runMaintenance()
	default:
		figs := map[string][]func() error{
			"5": {fig5}, "6": {fig6}, "7": {fig7}, "8": {fig8},
			"all": {fig5, fig6, fig7, fig8},
		}[*fig]
		if figs == nil {
			err = fmt.Errorf("%w: unknown figure %q", errUsage, *fig)
		}
		for _, f := range figs {
			if err == nil {
				err = f()
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	fmt.Printf("\n# total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// fail reports err on stderr and returns the exit status for it; a nil
// err is status 0.
func fail(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "voronet-bench:", err)
	if errors.Is(err, errUsage) {
		return 2
	}
	return 1
}

// stamp says what produced an output, so two outputs can be compared
// knowingly (the recipe of benchmark/report.go's newStamp).
type stamp struct {
	GitSHA     string `json:"git_sha"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Time       string `json:"time"`
}

func newStamp() stamp {
	sha := "unknown" // not run from a git checkout
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return stamp{
		GitSHA: sha, Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func fig5() error {
	fmt.Println("### Figure 5: distribution of |vn(o)| (out-degree)")
	for _, dist := range sim.Fig5Distributions {
		h, err := sim.DegreeExperiment{N: *n, Distribution: dist, Seed: *seed}.Run()
		if err != nil {
			return err
		}
		fmt.Printf("\n# %s, N=%d\n", dist, *n)
		fmt.Print(h.String())
		mode, _ := h.Mode()
		fmt.Printf("# mode=%d mean=%.3f mass[3,9]=%.3f\n", mode, h.Mean(), h.MassIn(3, 9))
		verdict("Fig5/"+dist, mode >= 5 && mode <= 7 && h.MassIn(3, 9) > 0.9,
			"degree distribution centred on 6, independent of the distribution")
	}
	return nil
}

func routeSeries() (map[string][]sim.RoutePoint, error) {
	out := map[string][]sim.RoutePoint{}
	for _, dist := range sim.Fig6Distributions {
		pts, err := sim.RouteExperiment{
			MaxN: *n, Checkpoint: *checkpoint, Samples: *samples,
			Distribution: dist, DisableCloseNeighbours: !*useCN, Seed: *seed,
		}.Run()
		if err != nil {
			return nil, err
		}
		out[dist] = pts
	}
	return out, nil
}

func fig6() error {
	fmt.Println("### Figure 6: mean route length vs overlay size")
	series, err := routeSeries()
	if err != nil {
		return err
	}
	for _, dist := range sim.Fig6Distributions {
		fmt.Println()
		if err := sim.WriteSeries(os.Stdout, dist, series[dist]); err != nil {
			return err
		}
	}
	last := func(d string) float64 { return series[d][len(series[d])-1].MeanHops }
	u := last("uniform")
	ok := true
	for _, d := range sim.Fig6Distributions {
		if last(d) > 2.5*u || u > 2.5*last(d) {
			ok = false
		}
	}
	verdict("Fig6", ok, "poly-logarithmic growth, insensitive to the distribution")
	return nil
}

func fig7() error {
	fmt.Println("### Figure 7: log(H) vs log(log(N)) slope (expected ~2)")
	series, err := routeSeries()
	if err != nil {
		return err
	}
	for _, dist := range sim.Fig6Distributions {
		fit := sim.FitPolylog(series[dist])
		fmt.Printf("%s\tslope=%.3f\tintercept=%.3f\tR2=%.4f\n", dist, fit.Slope, fit.Intercept, fit.R2)
		verdict("Fig7/"+dist, fit.Slope > 1.0 && fit.Slope < 3.0,
			"routing cost is poly-logarithmic with exponent near 2")
	}
	return nil
}

func fig8() error {
	fmt.Println("### Figure 8: influence of the number of long-range links")
	// The paper's figure has two panels: uniform and sparse α=5.
	for _, dist := range sim.Fig5Distributions {
		finals := make([]float64, 0, *kmax)
		for k := 1; k <= *kmax; k++ {
			pts, err := sim.RouteExperiment{
				MaxN: *n, Checkpoint: *checkpoint, Samples: *samples,
				Distribution: dist, LongLinks: k,
				DisableCloseNeighbours: !*useCN, Seed: *seed,
			}.Run()
			if err != nil {
				return err
			}
			fmt.Println()
			if err := sim.WriteSeries(os.Stdout, fmt.Sprintf("%s k=%d", dist, k), pts); err != nil {
				return err
			}
			finals = append(finals, pts[len(pts)-1].MeanHops)
		}
		improving := finals[len(finals)-1] < finals[0]
		verdict("Fig8/"+dist, improving, "more long links consistently improve routing")
		if len(finals) >= 6 {
			gainEarly := finals[0] - finals[5]
			gainLate := finals[5] - finals[len(finals)-1]
			verdict("Fig8/"+dist+"/knee", gainEarly > gainLate,
				"impact most significant up to ~6 long links")
		}
	}
	return nil
}

func runAblations() error {
	fmt.Println("### Ablations (DESIGN.md A1-A4)")
	// run prints one experiment's final mean hop count and returns it;
	// after a failure it does nothing, and err is checked once per study.
	var err error
	run := func(label string, e sim.RouteExperiment) float64 {
		var pts []sim.RoutePoint
		if err == nil {
			pts, err = e.Run()
		}
		if err != nil {
			return 0
		}
		h := pts[len(pts)-1].MeanHops
		fmt.Printf("%-28s N=%-8d hops=%.2f\n", label, pts[len(pts)-1].N, h)
		return h
	}
	skewed := sim.RouteExperiment{MaxN: *n, Samples: *samples, Seed: *seed, Distribution: "alpha5"}
	uniform := skewed
	uniform.Distribution, uniform.DisableCloseNeighbours = "uniform", true

	// A1: close neighbours on skewed data.
	withCN := run("A1 alpha5 with cn", skewed)
	skewed.DisableCloseNeighbours = true
	noCN := run("A1 alpha5 without cn", skewed)
	if err != nil {
		return err
	}
	verdict("A1", withCN <= noCN, "cn shortcuts never hurt; they collapse intra-cluster routes")

	// A2: long links.
	withLL := run("A2 uniform with LR", uniform)
	noLR := uniform
	noLR.DisableLongLinks = true
	noLL := run("A2 uniform without LR", noLR)
	if err != nil {
		return err
	}
	verdict("A2", withLL < noLL/2, "long links are what makes routing poly-logarithmic")

	// A3: exponent sweep. s=0.01 stands in for the area-uniform s=0
	// regime (the Config zero value selects the paper default s=2).
	fmt.Println("A3 long-link exponent sweep:")
	hs := map[float64]float64{}
	for _, s := range []float64{0.01, 1, 2, 3} {
		c := uniform
		c.LongLinkExponent = s
		hs[s] = run(fmt.Sprintf("   s=%g", s), c)
	}
	if err != nil {
		return err
	}
	verdict("A3", hs[2] < hs[3], "s=2 beats short-link regimes (s>=3); at finite sizes s<2 can tie")

	// A4: Kleinberg grid baseline.
	rng := rand.New(rand.NewSource(*seed))
	side := min(int(math.Ceil(math.Sqrt(float64(*n)))), 550)
	g := kleinberg.New(side, 1, 2, rng)
	m, err := g.MeanRouteLength(*samples, rng)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s N=%-8d hops=%.2f\n", "A4 kleinberg grid s=2", g.Nodes(), m)
	verdict("A4", m > 1, "the grid baseline VoroNet generalises routes in O(log^2 n)")
	return nil
}

// runChaos drives the chaos scenario battery (internal/harness) and
// prints one stamped, machine-readable JSON line per scenario;
// BENCH_chaos.json is one run of the whole battery:
//
//	voronet-bench -chaos > BENCH_chaos.json
//	voronet-bench -chaos -scenario partition-heal -chaos-seed 7
//
// A scenario that fails an invariant is an error, after every scenario
// has run and printed its line.
func runChaos() error {
	scenarios := harness.Scenarios()
	if *chaosName != "" {
		s := harness.ByName(*chaosName)
		if s == nil {
			return fmt.Errorf("%w: unknown scenario %q", errUsage, *chaosName)
		}
		scenarios = []harness.Scenario{*s}
	}
	enc, st := json.NewEncoder(os.Stdout), newStamp()
	failed := 0
	for _, s := range scenarios {
		s.Seed += *chaosSeed
		start := time.Now()
		res, err := s.Run()
		if err != nil {
			return err
		}
		wall := time.Since(start)
		line := map[string]any{
			"bench":      "chaos",
			"stamp":      st,
			"scenario":   s.Name,
			"seed":       s.Seed,
			"passed":     res.Passed,
			"ops":        res.Ops,
			"ops_lost":   res.OpsLost,
			"delivered":  res.Delivered,
			"dropped":    res.Dropped,
			"virtual_t":  res.VirtualTime,
			"checks":     len(res.Checks),
			"wall_ms":    wall.Milliseconds(),
			"transcript": len(res.Transcript),
			"sends":      res.Sends,
		}
		if n := len(res.Checks); n > 0 {
			final := res.Checks[n-1]
			line["nodes"] = final.Nodes
			line["route_ok"] = final.RouteOK
			line["route_tried"] = final.RouteTried
			line["mean_route_hops"] = round3(final.MeanHops)
			line["store_keys"] = final.StoreKeys
			line["store_errors"] = final.StoreErrors
		}
		if res.SyncFullBytes > 0 {
			// Durable scenarios probe the anti-entropy byte cost both
			// ways: digest-first vs the full-push baseline.
			line["sync_digest_bytes"] = res.SyncDigestBytes
			line["sync_full_bytes"] = res.SyncFullBytes
			line["sync_ratio"] = round3(float64(res.SyncDigestBytes) / float64(res.SyncFullBytes))
		}
		line["metrics"] = res.Metrics
		if !res.Passed {
			failed++
			line["failures"] = res.Failures
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d chaos scenario(s) failed", failed)
	}
	return nil
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

func runMaintenance() error {
	fmt.Println("### Overlay management costs per operation (§4.2, §4.4)")
	sizes := []int{}
	for s := 1000; s <= *n; s *= 4 {
		sizes = append(sizes, s)
	}
	for _, variant := range []struct {
		label    string
		interior bool
	}{{"paper-literal targets (LRt may leave the square)", false},
		{"interior-conditioned targets (extension)", true}} {
		fmt.Printf("\n# %s\n", variant.label)
		fmt.Println("# N\tjoinRoute\tjoinMaint\tleaveMaint\tfictive/join")
		pts, err := sim.MaintenanceExperiment{
			Sizes: sizes, Ops: 200, Distribution: "uniform",
			InteriorTargets: variant.interior, Seed: *seed,
		}.Run()
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("%d\t%.1f\t%.1f\t%.1f\t%.2f\n",
				p.N, p.JoinRouteSteps, p.JoinMaintenance, p.LeaveMaintenance, p.FictivePerJoin)
		}
		first, last := pts[0], pts[len(pts)-1]
		name := "Maint/" + map[bool]string{false: "literal", true: "interior"}[variant.interior]
		verdict(name, last.LeaveMaintenance < 2.5*first.LeaveMaintenance,
			"per-leave maintenance stays O(1)")
		verdict(name+"/join", last.JoinMaintenance < 2.5*first.JoinMaintenance,
			"per-join maintenance stays O(1); what grows is the hull ring of an exterior probe")
	}
	return nil
}

func verdict(name string, ok bool, claim string) {
	status := "MATCHES"
	if !ok {
		status = "DIVERGES"
	}
	fmt.Printf("# %-18s %s — %s\n", name, status, claim)
}
