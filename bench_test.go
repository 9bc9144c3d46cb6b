package voronet_test

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (§5), plus the ablation benches listed in DESIGN.md. Each benchmark runs
// a scaled-down instance of exactly the code path that regenerates the
// full figure (cmd/voronet-bench runs the full-size versions and
// EXPERIMENTS.md records the results). The reported custom metrics — mean
// hops, degree mode, fitted slope — are the paper's quantities.
//
// Run with:
//
//	go test -bench=. -benchmem .

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"voronet"
	"voronet/internal/kleinberg"
	"voronet/internal/sim"
	"voronet/internal/stats"
	"voronet/internal/workload"
)

// benchN is the overlay size used by the figure benchmarks; the paper uses
// 300 000, which the cmd/voronet-bench harness reproduces.
const benchN = 20000

// BenchmarkFig5DegreeDistribution regenerates Fig 5: the out-degree
// (|vn(o)|) histogram under the uniform and highly skewed distributions.
func BenchmarkFig5DegreeDistribution(b *testing.B) {
	b.ReportAllocs()
	for _, dist := range sim.Fig5Distributions {
		b.Run(dist, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := sim.DegreeExperiment{N: benchN, Distribution: dist, Seed: 42}.Run()
				if err != nil {
					b.Fatal(err)
				}
				mode, _ := h.Mode()
				b.ReportMetric(float64(mode), "degree-mode")
				b.ReportMetric(h.Mean(), "degree-mean")
				b.ReportMetric(h.MassIn(3, 9), "mass3to9")
			}
		})
	}
}

// BenchmarkFig6RouteLength regenerates one point of each Fig 6 curve: mean
// greedy route length per distribution. Close neighbours are excluded from
// the candidate set, matching the measurement the paper's curves are
// consistent with (see EXPERIMENTS.md).
func BenchmarkFig6RouteLength(b *testing.B) {
	b.ReportAllocs()
	for _, dist := range sim.Fig6Distributions {
		b.Run(dist, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := sim.RouteExperiment{
					MaxN: benchN, Samples: 500, Distribution: dist,
					DisableCloseNeighbours: true, Seed: 7,
				}.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[len(pts)-1].MeanHops, "hops")
			}
		})
	}
}

// BenchmarkFig7PolylogFit regenerates Fig 7: the slope of log(H) against
// log(log(N)), expected ≈ 2.
func BenchmarkFig7PolylogFit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := sim.RouteExperiment{
			MaxN: benchN, Checkpoint: benchN / 8, Samples: 500,
			Distribution: "uniform", DisableCloseNeighbours: true, Seed: 11,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		fit := sim.FitPolylog(pts)
		b.ReportMetric(fit.Slope, "slope")
		b.ReportMetric(fit.R2, "r2")
	}
}

// BenchmarkFig8LongLinkCount regenerates Fig 8: mean route length as a
// function of the number of long-range links per object.
func BenchmarkFig8LongLinkCount(b *testing.B) {
	b.ReportAllocs()
	for _, k := range []int{1, 2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := sim.RouteExperiment{
					MaxN: benchN, Samples: 500, Distribution: "uniform",
					LongLinks: k, DisableCloseNeighbours: true, Seed: 13,
				}.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[len(pts)-1].MeanHops, "hops")
			}
		})
	}
}

// BenchmarkAblationNoCloseNeighbours (A1) compares routing with and
// without cn(o) as shortcut candidates on skewed data.
func BenchmarkAblationNoCloseNeighbours(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"with-cn", false}, {"no-cn", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := sim.RouteExperiment{
					MaxN: benchN / 2, Samples: 500, Distribution: "alpha5",
					DisableCloseNeighbours: mode.disable, Seed: 17,
				}.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[len(pts)-1].MeanHops, "hops")
			}
		})
	}
}

// BenchmarkAblationNoLongLinks (A2): pure Delaunay greedy routing is
// polynomial (Θ(√N) hops), the reason long links exist.
func BenchmarkAblationNoLongLinks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := sim.RouteExperiment{
			MaxN: benchN / 2, Samples: 300, Distribution: "uniform",
			DisableLongLinks: true, Seed: 19,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].MeanHops, "hops")
	}
}

// BenchmarkAblationExponent (A3) sweeps the long-link length exponent s;
// Kleinberg's theorem places the asymptotic optimum at s = 2.
func BenchmarkAblationExponent(b *testing.B) {
	b.ReportAllocs()
	// 0.01 stands in for the area-uniform s=0 regime: the Config zero
	// value selects the paper default s=2.
	for _, s := range []float64{0.01, 1, 2, 3} {
		b.Run(fmt.Sprintf("s=%g", s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := sim.RouteExperiment{
					MaxN: benchN / 2, Samples: 500, Distribution: "uniform",
					LongLinkExponent: s, DisableCloseNeighbours: true, Seed: 23,
				}.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[len(pts)-1].MeanHops, "hops")
			}
		})
	}
}

// BenchmarkKleinbergBaseline (A4) routes on Kleinberg's grid of comparable
// size, the model VoroNet generalises (§2.1).
func BenchmarkKleinbergBaseline(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(29))
	side := 100 // 10 000 nodes
	g := kleinberg.New(side, 1, 2, rng)
	b.ResetTimer()
	var agg stats.Running
	for i := 0; i < b.N; i++ {
		h, err := g.MeanRouteLength(200, rng)
		if err != nil {
			b.Fatal(err)
		}
		agg.Add(h)
	}
	b.ReportMetric(agg.Mean(), "hops")
}

// The micro-benchmarks below seed the overlay's RNG (long-link targets)
// one above the position stream's, as internal/sim does: equal seeds make
// the target draws repeat the positions' random sequence, and routes at
// benchN come out twice as long (49 hops against 23).

// BenchmarkInsert measures raw object insertion (tessellation update, cn
// index, long-link resolution): one overlay grown to b.N objects, so
// -benchtime 100000x builds a 100 000-object overlay.
func BenchmarkInsert(b *testing.B) {
	b.ReportAllocs()
	ov := voronet.New(voronet.Config{NMax: 1 << 20, Seed: 32})
	rng := rand.New(rand.NewSource(31))
	src := &workload.Uniform{Rand: rng}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ov.Insert(src.Next()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "objs/s")
}

// BenchmarkBulkLoad builds the overlay BenchmarkInsert grows — same seeds,
// same b.N points — in one Overlay.BulkLoad at GOMAXPROCS workers (set it
// with -cpu). The ratio of the two objs/s at equal -benchtime Nx is the
// bulk-build speed-up.
func BenchmarkBulkLoad(b *testing.B) {
	b.ReportAllocs()
	ov := voronet.New(voronet.Config{NMax: 1 << 20, Seed: 32})
	rng := rand.New(rand.NewSource(31))
	src := &workload.Uniform{Rand: rng}
	pts := make([]voronet.Point, b.N)
	for i := range pts {
		pts[i] = src.Next()
	}
	b.ResetTimer()
	if _, err := ov.BulkLoad(pts, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "objs/s")
}

// BenchmarkJoin measures the full protocol join (Algorithm 1: routing,
// the charge of its fictive objects, long-link search).
func BenchmarkJoin(b *testing.B) {
	b.ReportAllocs()
	ov := voronet.New(voronet.Config{NMax: 1 << 20, Seed: 38})
	rng := rand.New(rand.NewSource(37))
	src := &workload.Uniform{Rand: rng}
	var last voronet.ObjectID = voronet.NoObject
	for i := 0; i < 2000; i++ {
		if id, err := ov.Insert(src.Next()); err == nil {
			last = id
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := ov.Join(src.Next(), last)
		if err != nil {
			b.Fatal(err)
		}
		last = id
	}
}

// BenchmarkChurnAt100k is BenchmarkJoin where the BLRn lists are long: a
// 100 000-object overlay provisioned for exactly that many (so a fifth of
// the long-link targets leave the unit square and pile up on the hull
// objects), then Store.JoinObject and Store.RemoveObject in alternation,
// as the benchmark's sim-churn writer does. ns/op is the mean over joins
// and removes; exterior-ms/op is the mean of the joins whose own drawn
// target left the square: the ones whose fictive Target would become a
// hull vertex, which prices a cavity over the hull instead of a small one
// (fictive objects are charged, never inserted).
func BenchmarkChurnAt100k(b *testing.B) {
	b.ReportAllocs()
	ov := voronet.New(voronet.Config{NMax: 100000, Seed: 52})
	rng := rand.New(rand.NewSource(51))
	src := &workload.Uniform{Rand: rng}
	pts := make([]voronet.Point, 100000)
	for i := range pts {
		pts[i] = src.Next()
	}
	ids, err := ov.BulkLoad(pts, 0)
	if err != nil {
		b.Fatal(err)
	}
	st := voronet.NewStore(ov, 0)
	// A standing pool, so a remove takes an object that joined a while ago.
	var joined []voronet.ObjectID
	for len(joined) < 64 {
		id, err := st.JoinObject(src.Next(), ids[rng.Intn(len(ids))])
		if err != nil {
			b.Fatal(err)
		}
		joined = append(joined, id)
	}
	var exterior time.Duration
	nExterior := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 1 {
			k := rng.Intn(len(joined))
			if err := st.RemoveObject(joined[k]); err != nil {
				b.Fatal(err)
			}
			joined[k] = joined[len(joined)-1]
			joined = joined[:len(joined)-1]
			continue
		}
		t0 := time.Now()
		id, err := st.JoinObject(src.Next(), ids[rng.Intn(len(ids))])
		if err != nil {
			b.Fatal(err)
		}
		d := time.Since(t0)
		joined = append(joined, id)
		if tgts, _ := ov.LongTargets(id); !tgts[0].InUnitSquare() {
			exterior += d
			nExterior++
		}
	}
	if nExterior > 0 {
		b.ReportMetric(exterior.Seconds()*1e3/float64(nExterior), "exterior-ms/op")
	}
}

// BenchmarkRouteAfterChurn prices a routed hop on a 100 000-object overlay
// built by BulkLoad, fresh and after 10 % churn: 10 000 removes, each
// followed by a Join that reuses freed vertex slots, so the vertex-indexed
// arrays no longer follow the Hilbert order. Both cases route the same
// query stream through one Router; ns/hop is the number to compare.
func BenchmarkRouteAfterChurn(b *testing.B) {
	const n = 100000
	ov := voronet.New(voronet.Config{NMax: n, Seed: 58})
	rng := rand.New(rand.NewSource(57))
	src := &workload.Uniform{Rand: rng}
	pts := make([]voronet.Point, n)
	for i := range pts {
		pts[i] = src.Next()
	}
	ids, err := ov.BulkLoad(pts, 0)
	if err != nil {
		b.Fatal(err)
	}
	route := func(b *testing.B) {
		rt := ov.NewRouter()
		q := rand.New(rand.NewSource(59))
		hops := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := rt.RouteToPoint(ids[q.Intn(n)], voronet.Pt(q.Float64(), q.Float64()))
			if err != nil {
				b.Fatal(err)
			}
			hops += res.Hops
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
		b.ReportMetric(float64(hops)/float64(b.N), "hops")
	}
	b.Run("fresh", route)
	for i := 0; i < n/10; i++ {
		k := rng.Intn(n)
		if err := ov.Remove(ids[k]); err != nil {
			b.Fatal(err)
		}
		via := ids[(k+1+rng.Intn(n-1))%n]
		if ids[k], err = ov.Join(src.Next(), via); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("churned", route)
}

// BenchmarkRouteToObject measures one greedy route on a 20k overlay, and
// the mean hops per route.
func BenchmarkRouteToObject(b *testing.B) {
	b.ReportAllocs()
	ov := voronet.New(voronet.Config{NMax: benchN, Seed: 42})
	rng := rand.New(rand.NewSource(41))
	src := &workload.Uniform{Rand: rng}
	for ov.Len() < benchN {
		ov.Insert(src.Next())
	}
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		a, _ := ov.RandomObject(rng)
		c, _ := ov.RandomObject(rng)
		h, err := ov.RouteToObject(a, c)
		if err != nil {
			b.Fatal(err)
		}
		hops += h
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops")
}

// BenchmarkStorePut measures an object-store PUT end to end on the
// simulator mirror: Algorithm 4 routing to the key's region owner plus
// storage and replication to the owner's neighbourhood.
func BenchmarkStorePut(b *testing.B) {
	b.ReportAllocs()
	ov := voronet.New(voronet.Config{NMax: benchN, Seed: 48})
	rng := rand.New(rand.NewSource(47))
	src := &workload.Uniform{Rand: rng}
	for ov.Len() < benchN/2 {
		ov.Insert(src.Next())
	}
	st := voronet.NewStore(ov, voronet.DefaultReplication)
	from, _ := ov.RandomObject(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Put(from, src.Next(), []byte("benchmark-payload")); err != nil {
			b.Fatal(err)
		}
	}
}

// storeGetSetup builds what every BenchmarkStoreGet case reads: a store on
// a benchN-object overlay holding 2000 uniform keys and a 1024-key hot
// set, plus a Zipf(1.1) popularity stream over the hot set.
func storeGetSetup(b *testing.B) (st *voronet.Store, from voronet.ObjectID, uniform, zipf []voronet.Point) {
	ov := voronet.New(voronet.Config{NMax: benchN, Seed: 54})
	rng := rand.New(rand.NewSource(53))
	src := &workload.Uniform{Rand: rng}
	for ov.Len() < benchN {
		ov.Insert(src.Next())
	}
	st = voronet.NewStore(ov, voronet.DefaultReplication)
	from, _ = ov.RandomObject(rng)
	uniform = make([]voronet.Point, 2000)
	for i := range uniform {
		uniform[i] = src.Next()
	}
	hot := workload.NewZipfKeys(1.1, 1024, rng)
	zipf = make([]voronet.Point, 1<<14)
	for i := range zipf {
		zipf[i] = hot.Next()
	}
	stored := map[voronet.Point]bool{}
	for _, k := range append(uniform, zipf...) {
		if stored[k] {
			continue
		}
		stored[k] = true
		if _, _, err := st.Put(from, k, []byte("benchmark-payload")); err != nil {
			b.Fatal(err)
		}
	}
	return st, from, uniform, zipf
}

// BenchmarkStoreGet measures an object-store GET end to end on a mirror
// pre-loaded with keys, and the mean routed hops per GET: over uniform
// keys and over Zipf-popular keys.
func BenchmarkStoreGet(b *testing.B) {
	get := func(st *voronet.Store, from voronet.ObjectID, keys []voronet.Point) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			hops := 0
			for i := 0; i < b.N; i++ {
				_, h, err := st.Get(from, keys[i%len(keys)])
				if err != nil {
					b.Fatal(err)
				}
				hops += h
			}
			b.ReportMetric(float64(hops)/float64(b.N), "hops")
		}
	}
	st, from, uniform, zipf := storeGetSetup(b)
	b.Run("uniform", get(st, from, uniform))
	b.Run("zipf1.1", get(st, from, zipf))
}

// BenchmarkHandleQuery measures Algorithm 4 end to end (routing plus the
// read-only owner resolution).
func BenchmarkHandleQuery(b *testing.B) {
	b.ReportAllocs()
	ov := voronet.New(voronet.Config{NMax: benchN, Seed: 44})
	rng := rand.New(rand.NewSource(43))
	src := &workload.Uniform{Rand: rng}
	for ov.Len() < benchN/2 {
		ov.Insert(src.Next())
	}
	var from voronet.ObjectID
	from, _ = ov.RandomObject(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ov.HandleQuery(from, voronet.Pt(rng.Float64(), rng.Float64())); err != nil {
			b.Fatal(err)
		}
	}
}
