// voronet-bench regenerates the figures of the VoroNet paper's evaluation
// (§5) and prints their data as TSV, plus a one-line verdict per figure
// comparing the measured shape with the paper's claims.
//
// Usage:
//
//	voronet-bench -fig 5 [-n 300000]
//	voronet-bench -fig 6 [-n 300000] [-checkpoint 10000] [-samples 2000]
//	voronet-bench -fig 7 ...            (fits the Fig 6 series)
//	voronet-bench -fig 8 [-kmax 10] ...
//	voronet-bench -fig all              (everything, paper-scale defaults)
//	voronet-bench -ablate               (A1-A4 ablation studies)
//	voronet-bench -chaos                (chaos scenario battery, JSON lines)
//
// The paper's runs use 300 000 objects and 100 000 route samples per
// checkpoint; means converge far earlier, so -samples defaults to 2000.
// Routing measurements exclude close neighbours from the greedy candidate
// set by default (-cn=false), which is the measurement the paper's Fig 6
// curves are consistent with — see EXPERIMENTS.md; pass -cn to include
// them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"runtime/pprof"

	"voronet"
	"voronet/internal/harness"
	"voronet/internal/kleinberg"
	"voronet/internal/metrics"
	"voronet/internal/sim"
	"voronet/internal/stats"
	"voronet/internal/workload"
)

var (
	fig          = flag.String("fig", "all", "figure to regenerate: 5, 6, 7, 8 or all")
	n            = flag.Int("n", 300000, "overlay size")
	checkpoint   = flag.Int("checkpoint", 10000, "growth step between measurements (figs 6-8)")
	samples      = flag.Int("samples", 2000, "route samples per checkpoint")
	kmax         = flag.Int("kmax", 10, "maximum long-link count (fig 8)")
	seed         = flag.Int64("seed", 20070326, "base RNG seed")
	useCN        = flag.Bool("cn", false, "include close neighbours as routing shortcuts")
	ablate       = flag.Bool("ablate", false, "run the ablation studies (A1-A4)")
	maint        = flag.Bool("maintenance", false, "measure per-operation management costs across sizes")
	storeBench   = flag.Bool("store", false, "measure object-store Put/Get throughput, one JSON line on stdout")
	buildWorkers = flag.Int("build-workers", 0, "construct the overlay with parallel bulk loading at this many workers (-store; 0 = serial incremental inserts)")
	storeOps     = flag.Int("store-ops", 20000, "operations per store phase (-store)")
	storeRep     = flag.Int("store-rep", 0, "store replication factor R (-store; 0 = default)")
	workers      = flag.Int("workers", 1, "concurrent store workers (-store)")
	storeGetFrac = flag.Float64("store-get-frac", 0.5, "GET fraction of the mixed phase (-store)")
	storeZipf    = flag.Float64("store-zipf", 0, "key skew: 0 = distinct uniform keys, >0 = Zipf(α) popularity over -store-keys hot keys (-store)")
	storeKeys    = flag.Int("store-keys", 1024, "distinct keys under -store-zipf")
	storeFictive = flag.Bool("store-fictive", false, "resolve owners via the paper's fictive insert/remove dance (serial paper-fidelity mode)")
	storeCache   = flag.Int("store-cache", 0, "hot-region owner cache entries on the store (-store; 0 disables)")
	chaosMode    = flag.Bool("chaos", false, "run the chaos scenario battery, one JSON line per scenario on stdout")
	chaosName    = flag.String("scenario", "", "run only the named chaos scenario (-chaos)")
	chaosSeed    = flag.Int64("chaos-seed", 0, "offset added to every scenario seed (-chaos)")
	storeMetrics = flag.Bool("store-metrics", true, "attach a metrics registry to the store (-store); =false measures the instrumentation-off baseline")
	cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
)

func main() {
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	start := time.Now()
	switch {
	case *netBench:
		runNetBench()
		return
	case *chaosMode:
		runChaos()
		return
	case *storeBench:
		runStoreBench()
		return
	case *ablate:
		runAblations()
	case *maint:
		runMaintenance()
	default:
		switch *fig {
		case "5":
			fig5()
		case "6":
			fig6()
		case "7":
			fig7()
		case "8":
			fig8()
		case "all":
			fig5()
			fig6()
			fig7()
			fig8()
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
			os.Exit(2)
		}
	}
	fmt.Printf("\n# total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func fig5() {
	fmt.Println("### Figure 5: distribution of |vn(o)| (out-degree)")
	for _, dist := range sim.Fig5Distributions {
		h, err := sim.DegreeExperiment{N: *n, Distribution: dist, Seed: *seed}.Run()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n# %s, N=%d\n", dist, *n)
		fmt.Print(h.String())
		mode, _ := h.Mode()
		fmt.Printf("# mode=%d mean=%.3f mass[3,9]=%.3f\n", mode, h.Mean(), h.MassIn(3, 9))
		verdict("Fig5/"+dist, mode >= 5 && mode <= 7 && h.MassIn(3, 9) > 0.9,
			"degree distribution centred on 6, independent of the distribution")
	}
}

func routeSeries() map[string][]sim.RoutePoint {
	out := map[string][]sim.RoutePoint{}
	for _, dist := range sim.Fig6Distributions {
		pts, err := sim.RouteExperiment{
			MaxN: *n, Checkpoint: *checkpoint, Samples: *samples,
			Distribution: dist, DisableCloseNeighbours: !*useCN, Seed: *seed,
		}.Run()
		if err != nil {
			fatal(err)
		}
		out[dist] = pts
	}
	return out
}

func fig6() {
	fmt.Println("### Figure 6: mean route length vs overlay size")
	series := routeSeries()
	for _, dist := range sim.Fig6Distributions {
		fmt.Println()
		if err := sim.WriteSeries(os.Stdout, dist, series[dist]); err != nil {
			fatal(err)
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
}

func fig7() {
	fmt.Println("### Figure 7: log(H) vs log(log(N)) slope (expected ~2)")
	series := routeSeries()
	for _, dist := range sim.Fig6Distributions {
		fit := sim.FitPolylog(series[dist])
		fmt.Printf("%s\tslope=%.3f\tintercept=%.3f\tR2=%.4f\n", dist, fit.Slope, fit.Intercept, fit.R2)
		verdict("Fig7/"+dist, fit.Slope > 1.0 && fit.Slope < 3.0,
			"routing cost is poly-logarithmic with exponent near 2")
	}
}

func fig8() {
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
				fatal(err)
			}
			fmt.Println()
			if err := sim.WriteSeries(os.Stdout, fmt.Sprintf("%s k=%d", dist, k), pts); err != nil {
				fatal(err)
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
}

func runAblations() {
	fmt.Println("### Ablations (DESIGN.md A1-A4)")
	run := func(label string, e sim.RouteExperiment) float64 {
		pts, err := e.Run()
		if err != nil {
			fatal(err)
		}
		h := pts[len(pts)-1].MeanHops
		fmt.Printf("%-28s N=%-8d hops=%.2f\n", label, pts[len(pts)-1].N, h)
		return h
	}
	base := sim.RouteExperiment{MaxN: *n, Samples: *samples, Seed: *seed}

	// A1: close neighbours on skewed data.
	a := base
	a.Distribution = "alpha5"
	withCN := run("A1 alpha5 with cn", a)
	a.DisableCloseNeighbours = true
	noCN := run("A1 alpha5 without cn", a)
	verdict("A1", withCN <= noCN, "cn shortcuts never hurt; they collapse intra-cluster routes")

	// A2: long links.
	b := base
	b.Distribution = "uniform"
	b.DisableCloseNeighbours = true
	withLL := run("A2 uniform with LR", b)
	b.DisableLongLinks = true
	noLL := run("A2 uniform without LR", b)
	verdict("A2", withLL < noLL/2, "long links are what makes routing poly-logarithmic")

	// A3: exponent sweep. s=0.01 stands in for the area-uniform s=0
	// regime (the Config zero value selects the paper default s=2).
	fmt.Println("A3 long-link exponent sweep:")
	hs := map[float64]float64{}
	for _, s := range []float64{0.01, 1, 2, 3} {
		c := base
		c.Distribution = "uniform"
		c.DisableCloseNeighbours = true
		c.LongLinkExponent = s
		hs[s] = run(fmt.Sprintf("   s=%g", s), c)
	}
	verdict("A3", hs[2] < hs[3], "s=2 beats short-link regimes (s>=3); at finite sizes s<2 can tie")

	// A4: Kleinberg grid baseline.
	rng := rand.New(rand.NewSource(*seed))
	side := 1
	for side*side < *n {
		side++
	}
	if side > 550 {
		side = 550
	}
	g := kleinberg.New(side, 1, 2, rng)
	m, err := g.MeanRouteLength(*samples, rng)
	if err != nil {
		fatal(err)
	}
	var agg stats.Running
	agg.Add(m)
	fmt.Printf("%-28s N=%-8d hops=%.2f\n", "A4 kleinberg grid s=2", g.Nodes(), m)
	verdict("A4", m > 1, "the grid baseline VoroNet generalises routes in O(log^2 n)")
}

// storePhaseStats summarises one benchmark phase: throughput, mean hops
// and client-observed latency percentiles.
type storePhaseStats struct {
	opsPerSec float64
	meanHops  float64
	p50us     float64
	p95us     float64
	p99us     float64
}

// benchWorkers resolves the -workers flag: like Store.Do and
// MeasureRoutes, 0 (or negative) selects GOMAXPROCS.
func benchWorkers() int {
	if *workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return *workers
}

// runStorePhase executes ops across the configured workers, timing each
// operation. Each worker routes from its own origin object through its own
// pooled Router (the Store handles per-goroutine state internally).
func runStorePhase(st *voronet.Store, origins []voronet.ObjectID, ops []voronet.StoreOp) storePhaseStats {
	if len(ops) == 0 {
		return storePhaseStats{}
	}
	lat := make([]time.Duration, len(ops))
	hops := make([]int, len(ops))
	w := benchWorkers()
	if w > len(ops) {
		w = len(ops)
	}
	chunk := (len(ops) + w - 1) / w
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < w; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if hi > len(ops) {
			hi = len(ops)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			from := origins[worker%len(origins)]
			for j := lo; j < hi; j++ {
				op := ops[j]
				t0 := time.Now()
				var h int
				var err error
				switch op.Kind {
				case voronet.OpPut:
					_, h, err = st.Put(from, op.Key, op.Value)
				case voronet.OpGet:
					_, h, err = st.Get(from, op.Key)
				case voronet.OpDelete:
					h, err = st.Delete(from, op.Key)
				}
				lat[j] = time.Since(t0)
				hops[j] = h
				if err != nil && !errors.Is(err, voronet.ErrKeyNotFound) {
					fatal(err)
				}
			}
		}(i, lo, hi)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	totalHops := 0
	for _, h := range hops {
		totalHops += h
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i].Nanoseconds()) / 1e3
	}
	return storePhaseStats{
		opsPerSec: float64(len(ops)) / wall,
		meanHops:  float64(totalHops) / float64(len(ops)),
		p50us:     pct(0.50),
		p95us:     pct(0.95),
		p99us:     pct(0.99),
	}
}

// runStoreBench measures object-store Put/Get throughput on the simulator
// mirror and prints one JSON line, machine-readable so successive PRs can
// track a BENCH_store.json trajectory:
//
//	voronet-bench -store -n 50000 -store-ops 20000 >> BENCH_store.json
//	voronet-bench -store -n 50000 -workers 8 -store-zipf 1.1 >> BENCH_store.json
//
// Three phases run: a pure PUT load, a pure GET load over the same keys,
// and a mixed phase at -store-get-frac. Keys are distinct uniform points
// by default; -store-zipf draws them with Zipf popularity from a fixed hot
// set, the classic cache-hostile skew. -store-fictive switches owner
// resolution to the paper's fictive insert/remove dance (Algorithm 4
// literally), which is the serial paper-fidelity cost model the
// pre-concurrency baselines in BENCH_store.json were measured under.
func runStoreBench() {
	rng := rand.New(rand.NewSource(*seed))
	src := workload.ByName("uniform", rng)
	ov := voronet.New(voronet.Config{NMax: *n, Seed: *seed + 1, FictiveQueries: *storeFictive})
	buildStart := time.Now()
	if *buildWorkers > 0 {
		// Parallel bulk construction (internal/core/bulkload.go): same
		// final overlay for any worker count, so the build_objs_per_sec
		// trajectory is comparable across machines and worker settings.
		pts := make([]voronet.Point, *n)
		for i := range pts {
			pts[i] = src.Next()
		}
		if _, err := ov.BulkLoad(pts, *buildWorkers); err != nil {
			fatal(err)
		}
	} else {
		for ov.Len() < *n {
			if _, err := ov.Insert(src.Next()); err != nil && !errors.Is(err, voronet.ErrDuplicate) {
				fatal(err)
			}
		}
	}
	buildSecs := time.Since(buildStart).Seconds()

	st := voronet.NewStore(ov, *storeRep)
	if *storeCache > 0 {
		// The simulator mirror of the distributed route cache: Zipf
		// workloads (-store-zipf) are where it earns its keep.
		st.SetRouteCache(*storeCache)
	}
	// The registry is optional so the same binary measures both sides of
	// the instrumentation overhead budget (-store-metrics=false is the
	// baseline the <5% criterion in DESIGN.md compares against).
	var reg *metrics.Registry
	if *storeMetrics {
		reg = metrics.NewRegistry()
		st.SetMetrics(reg)
	}
	origins := make([]voronet.ObjectID, benchWorkers())
	for i := range origins {
		id, err := ov.RandomObject(rng)
		if err != nil {
			fatal(err)
		}
		origins[i] = id
	}
	payload := []byte("voronet-store-benchmark-payload-0123456789")

	// The key stream: distinct uniform points, or Zipf-popular draws from
	// a fixed hot set. Pre-generated so the timed loops measure the store,
	// not the RNG, and so worker splits are reproducible.
	var keySource func() voronet.Point
	if *storeZipf > 0 {
		z := workload.NewZipfKeys(*storeZipf, *storeKeys, rng)
		keySource = z.Next
	} else {
		keySource = src.Next
	}
	putOps := make([]voronet.StoreOp, *storeOps)
	for i := range putOps {
		putOps[i] = voronet.StoreOp{Kind: voronet.OpPut, Key: keySource(), Value: payload}
	}
	getOps := make([]voronet.StoreOp, *storeOps)
	for i := range getOps {
		// Uniform draws re-read the written keys; Zipf draws the hot set.
		if *storeZipf > 0 {
			getOps[i] = voronet.StoreOp{Kind: voronet.OpGet, Key: keySource()}
		} else {
			getOps[i] = voronet.StoreOp{Kind: voronet.OpGet, Key: putOps[i].Key}
		}
	}
	mixedOps := make([]voronet.StoreOp, *storeOps)
	for i := range mixedOps {
		if rng.Float64() < *storeGetFrac {
			mixedOps[i] = voronet.StoreOp{Kind: voronet.OpGet, Key: putOps[rng.Intn(len(putOps))].Key}
		} else {
			mixedOps[i] = voronet.StoreOp{Kind: voronet.OpPut, Key: keySource(), Value: payload}
		}
	}

	put := runStorePhase(st, origins, putOps)
	get := runStorePhase(st, origins, getOps)
	mixed := runStorePhase(st, origins, mixedOps)

	line := map[string]any{
		"bench":              "store",
		"n":                  ov.Len(),
		"replication":        st.Replication(),
		"ops":                *storeOps,
		"value_bytes":        len(payload),
		"seed":               *seed,
		"workers":            benchWorkers(),
		"zipf":               *storeZipf,
		"get_frac":           round3(*storeGetFrac),
		"fictive":            *storeFictive,
		"build_secs":         round3(buildSecs),
		"build_workers":      *buildWorkers,
		"build_objs_per_sec": round3(float64(ov.Len()) / buildSecs),
		"put_ops_per_sec":    round3(put.opsPerSec),
		"put_mean_hops":      round3(put.meanHops),
		"put_p50_us":         round3(put.p50us),
		"put_p95_us":         round3(put.p95us),
		"put_p99_us":         round3(put.p99us),
		"get_ops_per_sec":    round3(get.opsPerSec),
		"get_mean_hops":      round3(get.meanHops),
		"get_p50_us":         round3(get.p50us),
		"get_p95_us":         round3(get.p95us),
		"get_p99_us":         round3(get.p99us),
		"mixed_ops_per_sec":  round3(mixed.opsPerSec),
		"mixed_p50_us":       round3(mixed.p50us),
		"mixed_p95_us":       round3(mixed.p95us),
		"mixed_p99_us":       round3(mixed.p99us),
		"metrics_enabled":    *storeMetrics,
		"store_cache":        *storeCache,
		"unix_millis":        time.Now().UnixMilli(),
	}
	if *storeCache > 0 {
		cs := st.RouteCacheStats()
		line["cache_hits"] = cs.Hits
		line["cache_misses"] = cs.Misses
		line["cache_jumps"] = cs.Jumps
		line["cache_entries"] = cs.Entries
	}
	if reg != nil {
		line["metrics"] = reg.Snapshot()
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(line); err != nil {
		fatal(err)
	}
}

// runChaos drives the chaos scenario battery (internal/harness) and
// prints one machine-readable JSON line per scenario so successive PRs
// can track a BENCH_chaos.json trajectory:
//
//	voronet-bench -chaos > BENCH_chaos.json
//	voronet-bench -chaos -scenario partition-heal -chaos-seed 7
//
// The process exits non-zero if any scenario fails an invariant.
func runChaos() {
	scenarios := harness.Scenarios()
	if *chaosName != "" {
		s := harness.ByName(*chaosName)
		if s == nil {
			fmt.Fprintf(os.Stderr, "voronet-bench: unknown scenario %q\n", *chaosName)
			os.Exit(2)
		}
		scenarios = []harness.Scenario{*s}
	}
	enc := json.NewEncoder(os.Stdout)
	failed := 0
	for _, s := range scenarios {
		s.Seed += *chaosSeed
		start := time.Now()
		res, err := s.Run()
		if err != nil {
			fatal(err)
		}
		wall := time.Since(start)
		line := map[string]any{
			"bench":      "chaos",
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
		line["sends"] = res.Sends
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
			fatal(err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "voronet-bench: %d chaos scenario(s) failed\n", failed)
		os.Exit(1)
	}
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

func runMaintenance() {
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
			fatal(err)
		}
		for _, p := range pts {
			fmt.Printf("%d\t%.1f\t%.1f\t%.1f\t%.2f\n",
				p.N, p.JoinRouteSteps, p.JoinMaintenance, p.LeaveMaintenance, p.FictivePerJoin)
		}
		first, last := pts[0], pts[len(pts)-1]
		verdict("Maint/"+map[bool]string{false: "literal", true: "interior"}[variant.interior],
			last.LeaveMaintenance < 2.5*first.LeaveMaintenance,
			"per-leave maintenance stays O(1)")
	}
}

func verdict(name string, ok bool, claim string) {
	status := "MATCHES"
	if !ok {
		status = "DIVERGES"
	}
	fmt.Printf("# %-18s %s — %s\n", name, status, claim)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voronet-bench:", err)
	os.Exit(1)
}
