package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/metrics"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/voronoi"
	"voronet/internal/wal"
)

// Probes are timed calls into one layer's public functions, on inputs
// drawn from the workload that is running: its keys, its value size, the
// frames its clients and nodes exchanged. They give a layer's unit cost;
// how often the workload pays it is what the counters and spans say.

// perCall is the mean ns of n back-to-back calls — for operations too
// short to time one by one.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// medianCallUS times n calls one by one and returns the median in µs —
// for operations long enough that the clock read is noise.
func medianCallUS(n int, fn func(i int)) float64 {
	lat := make([]int64, n)
	for i := range lat {
		t0 := time.Now()
		fn(i)
		lat[i] = int64(time.Since(t0))
	}
	slices.Sort(lat)
	return quantileUS(lat, 0.5)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

func metricsProbe(n int, m map[string]float64) {
	reg := metrics.NewRegistry()
	c := reg.Counter("probe_total")
	h := reg.Histogram("probe_seconds", metrics.LatencyBuckets())
	m["metrics.counter_ns"] = perCall(n*20, func(int) { c.Inc() })
	m["metrics.observe_ns"] = perCall(n*20, func(i int) { h.Observe(float64(i%997) * 1e-6) })
}

// storeProbe times store.Local on the workload's keys and value size.
func storeProbe(n int, ks *keySet, writes bool, m map[string]float64) {
	l := store.NewLocal()
	val := ks.preloadValue(0)
	for _, k := range ks.keys {
		l.Put(k, val)
	}
	nk := len(ks.keys)
	m["store.get_ns"] = perCall(n, func(i int) {
		if _, ok := l.Get(ks.keys[i%nk]); ok {
			sink++
		}
	})
	if !writes {
		return
	}
	m["store.put_ns"] = perCall(n, func(i int) { l.Put(ks.keys[i%nk], val) })
	replica := store.NewLocal()
	m["store.apply_ns"] = perCall(n, func(i int) {
		replica.Apply(proto.StoreRecord{Key: ks.keys[i%nk], Value: val, Version: uint64(i/nk + 1)})
	})
}

// protoProbe times the codec on the frames the decorator saw on the wire.
func protoProbe(n int, frames [][]byte, m map[string]float64) error {
	if len(frames) == 0 {
		return errors.New("proto probe: the traced phase captured no frames")
	}
	envs := make([]*proto.Envelope, len(frames))
	var bytes float64
	for i, f := range frames {
		env, err := proto.Decode(f)
		if err != nil {
			return fmt.Errorf("proto probe: captured frame %d: %w", i, err)
		}
		envs[i] = env
		bytes += float64(len(f))
	}
	m["proto.bytes_per_envelope"] = bytes / float64(len(frames))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m["proto.decode_ns"] = perCall(n, func(i int) {
		if env, err := proto.Decode(frames[i%len(frames)]); err == nil {
			sink += int(env.Type)
		}
	})
	runtime.ReadMemStats(&ms1)
	m["proto.allocs_per_decode"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	buf := make([]byte, 0, 4096)
	m["proto.encode_ns"] = perCall(n, func(i int) {
		buf = proto.AppendEncode(buf[:0], envs[i%len(envs)])
	})
	return nil
}

// echoProbe is a bare ping-pong between two fresh endpoints: the
// transport's round trip with no node, codec or client in the way.
func echoProbe(n, size int) (float64, error) {
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	back := make(chan error, 1)
	b.SetHandler(func(from string, payload []byte) {
		if err := b.Send(from, payload); err != nil {
			back <- err
		}
	})
	a.SetHandler(func(string, []byte) { back <- nil })
	payload := make([]byte, size)
	var failed error
	ping := func(int) {
		err := a.Send(b.Addr(), payload)
		if err == nil {
			err = <-back
		}
		if err != nil {
			failed = err
		}
	}
	for i := 0; i < 20; i++ { // dial both directions before timing
		ping(i)
	}
	rtt := medianCallUS(n, ping)
	return rtt, failed
}

// walProbe appends n records of the workload's value size to a fresh log
// under the given policy.
func walProbe(n int, tmp string, policy wal.SyncPolicy, ks *keySet) (float64, error) {
	dir, err := os.MkdirTemp(tmp, "walprobe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: policy}, func(proto.StoreRecord) {})
	if err != nil {
		return 0, err
	}
	val := ks.preloadValue(0)
	var appendErr error
	us := medianCallUS(n, func(i int) {
		rec := proto.StoreRecord{Key: ks.keys[i%len(ks.keys)], Value: val, Version: uint64(i + 1)}
		if err := l.Append(rec); err != nil {
			appendErr = err
		}
	})
	if err := l.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	return us, appendErr
}

func tcpProbes(cfg runConfig, e *tcpEnv, rec *traceRecorder, m map[string]float64) error {
	n := cfg.sc.probeN
	rec.sampleMu.Lock()
	frames := rec.samples
	rec.sampleMu.Unlock()
	if err := protoProbe(n, frames, m); err != nil {
		return err
	}
	var err error
	if m["transport.echo_rtt_us"], err = echoProbe(n/10, 64); err != nil {
		return fmt.Errorf("echo probe: %w", err)
	}
	if m["transport.echo_rtt_us.64k"], err = echoProbe(n/50, 64<<10); err != nil {
		return fmt.Errorf("echo probe 64k: %w", err)
	}
	storeProbe(n, e.ks, e.durable, m)
	metricsProbe(n, m)
	if !e.durable {
		return nil
	}
	if m["wal.append_us.always"], err = walProbe(n/50, cfg.tmpDir, wal.SyncAlways, e.ks); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if m["wal.append_us.never"], err = walProbe(n/5, cfg.tmpDir, wal.SyncNever, e.ks); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	return nil
}

// simProbes prices the layers under the simulator. core is probed through
// the overlay the workload ran on; delaunay, voronoi and geom through a
// stand-alone triangulation of the same points, because the overlay keeps
// its own private.
func simProbes(cfg runConfig, e *simEnv, m map[string]float64) error {
	n := cfg.sc.probeN
	rng := rand.New(rand.NewSource(cfg.seed + 9000))
	keys := e.ks.keys
	nk := len(keys)
	runtime.GC() // start the short probes at the beginning of a collector cycle, not the end of one
	storeProbe(n, e.ks, true, m)
	metricsProbe(n, m)

	// core: the same (origin, key) pairs routed bare and through the store.
	r := e.ov.NewRouter()
	pairs := n / 4
	hops := 0
	var routeErr error
	routeNS := perCall(pairs, func(i int) {
		res, err := r.RouteToPoint(e.origins[i%generators][i%simOrigins], keys[i%nk])
		if err != nil {
			routeErr = err
		}
		hops += res.Hops
	})
	if routeErr != nil {
		return fmt.Errorf("core probe: route: %w", routeErr)
	}
	getNS := perCall(pairs, func(i int) {
		if _, _, err := e.st.Get(e.origins[i%generators][i%simOrigins], keys[i%nk]); err != nil {
			routeErr = err
		}
	})
	if routeErr != nil {
		return fmt.Errorf("core probe: get: %w", routeErr)
	}
	m["core.route_ns_per_hop"] = ratio(routeNS*float64(pairs), float64(hops))
	m["core.get_us"] = getNS / 1e3
	m["core.store_overhead_ns"] = getNS - routeNS
	m["core.owner_ns"] = perCall(pairs, func(i int) {
		if id, err := r.Owner(keys[i%nk], e.origins[i%generators][i%simOrigins]); err == nil {
			sink += int(id)
		}
	})
	if !e.churn {
		m["core.put_us"] = perCall(pairs/4, func(i int) {
			g := i % generators
			k, counter := e.ks.beginPut(g, rng, e.scratch[g])
			_, _, err := e.st.Put(e.origin(g), keys[k], e.scratch[g])
			e.ks.endPut(k, counter, err == nil)
		}) / 1e3
	}

	// delaunay: bulk build, then walks that start one edge from the answer,
	// as the overlay's do at the end of a greedy route.
	tr := delaunay.New()
	t0 := time.Now()
	tr.InsertBulkParallel(e.points, generators)
	m["delaunay.bulk_objs_per_s"] = ratio(float64(len(e.points)), time.Since(t0).Seconds())
	runtime.GC()
	hints := make([]delaunay.VertexID, min(n, nk))
	var nbuf, vbuf []delaunay.VertexID
	for i := range hints {
		var v delaunay.VertexID
		v, vbuf = tr.NearestSiteRO(keys[i], delaunay.NoVertex, vbuf)
		hints[i] = v
		nbuf = tr.Neighbors(v, nbuf[:0])
		for _, u := range nbuf {
			if delaunay.IsFinite(u) {
				hints[i] = u
				break
			}
		}
	}
	nh := len(hints)
	m["delaunay.nearest_ns"] = perCall(n, func(i int) {
		var v delaunay.VertexID
		v, vbuf = tr.NearestSiteRO(keys[i%nh], hints[i%nh], vbuf)
		sink += int(v)
	})
	m["delaunay.locate_ns"] = perCall(n, func(i int) {
		sink += int(tr.LocateRO(keys[i%nh], hints[i%nh]).Face)
	})

	// voronoi: Algorithm 5's stop test at the hint object for the key.
	d := voronoi.New(tr)
	m["voronoi.dist_region_ns"] = perCall(n, func(i int) {
		_, dist := d.DistanceToRegion(hints[i%nh], keys[i%nh])
		if dist > 0 {
			sink++
		}
	})
	m["voronoi.beyond_ns"] = perCall(n, func(i int) {
		k := keys[i%nh]
		if d.DistanceToRegionBeyond(hints[i%nh], k, geom.Dist(k, tr.Point(hints[i%nh]))/3) {
			sink++
		}
	})

	// geom: the predicates on the tessellation's own triangles, the fourth
	// point being a vertex of the next triangle — the near-degenerate
	// inputs surgery feeds them.
	var tris [][3]geom.Point
	tr.ForEachFiniteFace(func(a, b, c delaunay.VertexID) bool {
		tris = append(tris, [3]geom.Point{tr.Point(a), tr.Point(b), tr.Point(c)})
		return len(tris) < 4096
	})
	nt := len(tris)
	m["geom.orient2d_ns"] = perCall(n*10, func(i int) {
		t := &tris[i%nt]
		sink += geom.Orient2D(t[0], t[1], t[2])
	})
	m["geom.incircle_ns"] = perCall(n*10, func(i int) {
		t := &tris[i%nt]
		sink += geom.InCircle(t[0], t[1], t[2], tris[(i+1)%nt][i%3])
	})

	if e.churn {
		// delaunay surgery: insert a fresh uniform point from a hint one walk
		// step away, then take it out again.
		var insErr error
		var added delaunay.VertexID
		pts := make([]geom.Point, n/10)
		ph := make([]delaunay.VertexID, len(pts))
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64(), rng.Float64())
			ph[i], vbuf = tr.NearestSiteRO(pts[i], delaunay.NoVertex, vbuf)
		}
		ins := make([]int64, len(pts))
		rem := make([]int64, len(pts))
		for i := range pts {
			t0 := time.Now()
			v, err := tr.Insert(pts[i], ph[i])
			ins[i] = int64(time.Since(t0))
			if err != nil {
				insErr = err
				continue
			}
			added = v
			t0 = time.Now()
			if err := tr.Remove(added); err != nil {
				insErr = err
			}
			rem[i] = int64(time.Since(t0))
		}
		if insErr != nil {
			return fmt.Errorf("delaunay probe: %w", insErr)
		}
		slices.Sort(ins)
		slices.Sort(rem)
		m["delaunay.insert_us"] = quantileUS(ins, 0.5)
		m["delaunay.remove_us"] = quantileUS(rem, 0.5)
	}
	return nil
}
