package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voronet/internal/client"
	"voronet/internal/geom"
	"voronet/internal/metrics"
	"voronet/internal/node"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/workload"
)

// The -net mode measures the live message-passing node runtime end to
// end: a multi-peer loopback TCP topology (and, for contrast, the
// simnet under its serial and parallel drains) driving routed point
// queries and store GETs from concurrent clients, then the same overlay
// with and without the route cache under a Zipf-skewed GET stream, then
// the pipelined client against dial-per-operation. One JSON line per
// run goes to stdout:
//
//	voronet-bench -net > BENCH_net.json
//	voronet-bench -net -net-nodes 16 -net-clients 64 -net-ops 8000
//
// The workload is pinned — same topology seed, same targets, same
// origins in every run. Any phase that reports a timed-out operation
// makes the command exit non-zero after the lines are printed.
var (
	netBench   = flag.Bool("net", false, "run the live-runtime network benchmark, JSON lines on stdout")
	netNodes   = flag.Int("net-nodes", 12, "overlay size (-net)")
	netOps     = flag.Int("net-ops", 4000, "routed queries per phase (-net)")
	netClients = flag.Int("net-clients", 32, "concurrent client goroutines (-net)")
	netKeys    = flag.Int("net-keys", 64, "stored keys for the GET phase (-net)")
	netWorkers = flag.Int("net-workers", 8, "dispatch workers per TCP endpoint, and of the parallel simnet drain (-net)")
	netSimnet  = flag.Bool("net-simnet", true, "also measure the simnet serial vs parallel drain (-net)")
	netMixVal  = flag.Int("net-mix-value-bytes", 128<<10, "background PUT value size of the mixed phase (-net)")
	netReps    = flag.Int("net-reps", 1, "repetitions per run, best per phase kept (-net; noise control on busy hosts)")

	// The lookup phase: the same overlay run once without and once with
	// the hot-region route cache, under a Zipf-skewed GET stream. The two
	// runs share every draw, so their hop books are directly comparable.
	netCache   = flag.Int("net-route-cache", 256, "route-cache entries in the cached lookup run (-net)")
	netZipf    = flag.Float64("net-zipf", 1.1, "Zipf exponent of the lookup phase's key popularity (-net)")
	netPipeOps = flag.Int("net-pipe-ops", 400, "operations of the pipelined-vs-oneshot client phase (-net; oneshot dials per op, keep this modest)")
)

// netWorkload pins the randomness shared by every run: node positions,
// query targets, per-op origins and stored keys.
type netWorkload struct {
	positions []geom.Point
	targets   []geom.Point
	origins   []int
	keys      []geom.Point
	getOrder  []int

	// The lookup phase's Zipf-skewed stream: zipfKeys holds the key set
	// most-popular-first, zipfSeq the pre-drawn per-op keys — pinned here
	// so the baseline and cached runs replay the same stream.
	zipfKeys []geom.Point
	zipfSeq  []geom.Point
}

func buildNetWorkload() *netWorkload {
	rng := rand.New(rand.NewSource(*seed))
	w := &netWorkload{}
	for i := 0; i < *netNodes; i++ {
		w.positions = append(w.positions, geom.Pt(rng.Float64(), rng.Float64()))
	}
	for i := 0; i < *netOps; i++ {
		w.targets = append(w.targets, geom.Pt(rng.Float64(), rng.Float64()))
		w.origins = append(w.origins, rng.Intn(*netNodes))
	}
	for i := 0; i < *netKeys; i++ {
		w.keys = append(w.keys, geom.Pt(rng.Float64(), rng.Float64()))
	}
	for i := 0; i < *netOps; i++ {
		w.getOrder = append(w.getOrder, rng.Intn(*netKeys))
	}
	z := workload.NewZipfKeys(*netZipf, *netKeys, rng)
	w.zipfKeys = z.Keys()
	for i := 0; i < *netOps; i++ {
		w.zipfSeq = append(w.zipfSeq, z.Next())
	}
	return w
}

func netNodeConfig(i int) node.Config {
	return node.Config{
		DMin: 0.05, LongLinks: 2, Seed: int64(i),
		// Generous deadlines: a timed-out op would skew the hop totals the
		// runs are compared on.
		StoreTimeout: 60 * time.Second, QueryTimeout: 60 * time.Second,
	}
}

// netPhaseStats summarises one measured phase.
type netPhaseStats struct {
	wall      float64
	completed int
	timeouts  int
	sumHops   int
	bgOps     int // background PUTs completed during a mixed phase
	latencies []time.Duration
}

func (s *netPhaseStats) pct(q float64) float64 {
	if len(s.latencies) == 0 {
		return 0
	}
	i := int(q * float64(len(s.latencies)-1))
	return float64(s.latencies[i].Nanoseconds()) / 1e3
}

// runNetClients fans ops out over the client goroutines: op i runs
// one blocking operation via `do`, which returns the hop count (or
// node.HopsTimedOut).
func runNetClients(ops int, do func(i int) int) *netPhaseStats {
	st := &netPhaseStats{latencies: make([]time.Duration, ops)}
	hops := make([]int, ops)
	clients := *netClients
	if clients > ops {
		clients = ops
	}
	chunk := (ops + clients - 1) / clients
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > ops {
			hi = ops
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				hops[i] = do(i)
				st.latencies[i] = time.Since(t0)
			}
		}(lo, hi)
	}
	wg.Wait()
	st.wall = time.Since(start).Seconds()
	for _, h := range hops {
		if h == node.HopsTimedOut {
			st.timeouts++
			continue
		}
		st.completed++
		st.sumHops += h
	}
	sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
	return st
}

// netOverlay is one loopback TCP overlay of -net-nodes peers, joined
// one at a time through the first.
type netOverlay struct {
	nodes []*node.Node
	eps   []*transport.TCPEndpoint
}

// buildNetOverlay stands the overlay up with the given route-cache size
// and stores one record under each of keys, spread over the peers.
func buildNetOverlay(w *netWorkload, cacheSize int, keys []geom.Point) *netOverlay {
	o := &netOverlay{}
	for i := 0; i < *netNodes; i++ {
		ep, err := transport.ListenTCPOptions("127.0.0.1:0", transport.TCPOptions{DispatchWorkers: *netWorkers})
		if err != nil {
			fatal(err)
		}
		o.eps = append(o.eps, ep)
		cfg := netNodeConfig(i)
		cfg.RouteCacheSize = cacheSize
		nd := node.New(ep, w.positions[i], cfg)
		if i == 0 {
			if err := nd.Bootstrap(); err != nil {
				fatal(err)
			}
		} else {
			if err := nd.Join(o.nodes[0].Info().Addr); err != nil {
				fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for !nd.Joined() {
				if time.Now().After(deadline) {
					fatal(fmt.Errorf("net bench: node %d failed to join", i))
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		o.nodes = append(o.nodes, nd)
	}
	time.Sleep(200 * time.Millisecond) // let maintenance gossip settle
	for i, k := range keys {
		if err := o.nodes[i%len(o.nodes)].PutSync(k, []byte(fmt.Sprintf("net-%04d", i))); err != nil {
			fatal(fmt.Errorf("net bench: seed put %d: %w", i, err))
		}
	}
	return o
}

func (o *netOverlay) close() {
	for _, ep := range o.eps {
		ep.Close()
	}
}

// snapshot merges every node's and endpoint's registry — frame counts,
// per-kind message totals, dispatch-wait and latency histograms for the
// overlay's whole life.
func (o *netOverlay) snapshot() (snap metrics.Snapshot) {
	for i := range o.nodes {
		snap.Merge(o.nodes[i].Metrics().Snapshot())
		snap.Merge(o.eps[i].Metrics().Snapshot())
	}
	return snap
}

// blockingGet runs one GET through get — a node's or a client's — and
// waits for the reply; a failed dispatch comes back as the reply's Err.
func blockingGet(get func(geom.Point, func(store.Reply)) error, key geom.Point) store.Reply {
	done := make(chan store.Reply, 1)
	if err := get(key, func(r store.Reply) { done <- r }); err != nil {
		return store.Reply{Err: err}
	}
	return <-done
}

// replyHops is what a phase books for a reply: its hop count, or
// node.HopsTimedOut when the operation failed.
func replyHops(r store.Reply) int {
	if r.Err != nil {
		return node.HopsTimedOut
	}
	return r.Hops
}

// runNetTCP measures the query, GET and mixed phases on a fresh overlay.
func runNetTCP(w *netWorkload) (query, get, mixed *netPhaseStats, snap metrics.Snapshot) {
	o := buildNetOverlay(w, 0, w.keys)
	defer o.close()
	nodes := o.nodes

	queryOp := func(i int) int {
		done := make(chan int, 1)
		if err := nodes[w.origins[i]].Query(w.targets[i], func(_ proto.NodeInfo, hops int) {
			done <- hops
		}); err != nil {
			return node.HopsTimedOut
		}
		return <-done
	}
	query = runNetClients(*netOps, queryOp)
	get = runNetClients(*netOps, func(i int) int {
		return replyHops(blockingGet(nodes[w.origins[i]].Get, w.keys[w.getOrder[i]]))
	})

	// Mixed phase: the query stream again, this time while background
	// writers continuously push large-value PUTs (each one a big frame to
	// decode plus R replica frames to fan out): a node busy with one big
	// frame must not stall other peers' routing through it.
	stop := make(chan struct{})
	var bgPuts atomic.Int64
	var bgWG sync.WaitGroup
	bigVal := make([]byte, *netMixVal)
	for b := 0; b < 4; b++ {
		bgWG.Add(1)
		go func(b int) {
			defer bgWG.Done()
			rng := rand.New(rand.NewSource(int64(500 + b)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := geom.Pt(rng.Float64(), rng.Float64())
				if err := nodes[b%len(nodes)].PutSync(k, bigVal); err == nil {
					bgPuts.Add(1)
				}
			}
		}(b)
	}
	mixed = runNetClients(*netOps, queryOp)
	close(stop)
	bgWG.Wait()
	mixed.bgOps = int(bgPuts.Load())
	return query, get, mixed, o.snapshot()
}

// runNetSimnet measures the same workload over the in-memory bus: ops are
// enqueued, then a single Drain (serial or parallel) delivers the whole
// batch — the measured figure is drain throughput, the simulator's
// equivalent of dispatch throughput.
func runNetSimnet(mode string, w *netWorkload) (query *netPhaseStats, snap metrics.Snapshot) {
	bus := transport.NewBus()
	nodes := make([]*node.Node, 0, *netNodes)
	for i := 0; i < *netNodes; i++ {
		ep, err := bus.Attach(fmt.Sprintf("n%03d", i))
		if err != nil {
			fatal(err)
		}
		nd := node.New(ep, w.positions[i], netNodeConfig(i))
		if i == 0 {
			if err := nd.Bootstrap(); err != nil {
				fatal(err)
			}
		} else {
			if err := nd.Join(nodes[0].Info().Addr); err != nil {
				fatal(err)
			}
			bus.Drain()
			if !nd.Joined() {
				fatal(fmt.Errorf("net bench: simnet node %d failed to join", i))
			}
		}
		nodes = append(nodes, nd)
	}
	if mode == "parallel" {
		bus.SetParallelDelivery(*netWorkers)
	}

	st := &netPhaseStats{}
	// Pre-fill with the timeout sentinel: an answer lost in the drain must
	// count as unanswered, not as a 0-hop success inflating the figures.
	hops := make([]int, *netOps)
	for i := range hops {
		hops[i] = node.HopsTimedOut
	}
	var mu sync.Mutex
	start := time.Now()
	// Enqueue in windows of the client count and drain each window, so at
	// most `window` queries are in flight at once — the simnet analogue of
	// the TCP phases' bounded client pool. Enqueueing all ops before one
	// drain used to leave every query "in flight" for essentially the
	// whole drain, inflating the node_query_seconds sum to ops × drain
	// time (thousands of histogram-seconds from a sub-second run); with
	// the window, the sum reconciles with wall × inflight. Drain
	// throughput is unaffected: each drain delivers a full batch.
	window := *netClients
	if window <= 0 {
		window = 1
	}
	for lo := 0; lo < *netOps; lo += window {
		hi := lo + window
		if hi > *netOps {
			hi = *netOps
		}
		for i := lo; i < hi; i++ {
			i := i
			if err := nodes[w.origins[i]].Query(w.targets[i], func(_ proto.NodeInfo, h int) {
				mu.Lock()
				hops[i] = h
				mu.Unlock()
			}); err != nil {
				fatal(err)
			}
		}
		bus.Drain()
	}
	st.wall = time.Since(start).Seconds()
	for _, h := range hops {
		if h == node.HopsTimedOut {
			st.timeouts++
			continue
		}
		st.completed++
		st.sumHops += h
	}
	snap = bus.MetricsSnapshot()
	for _, nd := range nodes {
		snap.Merge(nd.Metrics().Snapshot())
	}
	return st, snap
}

// runNetLookup measures the route cache end to end: a loopback TCP
// overlay whose nodes run with the given route-cache size, driven by the
// pinned Zipf-skewed GET stream. The baseline (cache=0) and cached runs
// replay identical draws, so p99 and hops are directly comparable;
// correctness is checked op by op (every GET must find its seeded key).
func runNetLookup(cacheSize int, w *netWorkload) (get *netPhaseStats, snap metrics.Snapshot) {
	o := buildNetOverlay(w, cacheSize, w.zipfKeys)
	defer o.close()
	var wrong atomic.Int64
	get = runNetClients(len(w.zipfSeq), func(i int) int {
		r := blockingGet(o.nodes[w.origins[i]].Get, w.zipfSeq[i])
		if r.Err == nil && !r.Found {
			wrong.Add(1)
		}
		return replyHops(r)
	})
	if wrong.Load() > 0 {
		fatal(fmt.Errorf("net bench: %d Zipf GETs missed a seeded key (cache=%d)", wrong.Load(), cacheSize))
	}
	return get, o.snapshot()
}

// runNetClientBench compares the pipelined client library against the
// dial-per-operation pattern it replaces: the same GET stream against the
// same overlay, once through one multiplexed client.Client shared by all
// goroutines, once with a fresh client (fresh listener, fresh connection)
// per operation.
func runNetClientBench(w *netWorkload) (pipe, oneshot *netPhaseStats) {
	o := buildNetOverlay(w, 0, w.keys)
	defer o.close()
	ops := *netPipeOps
	if ops > len(w.getOrder) {
		ops = len(w.getOrder)
	}
	gateway := o.nodes[0].Info().Addr

	cl, err := client.Dial(gateway, client.Options{Timeout: 60 * time.Second})
	if err != nil {
		fatal(err)
	}
	pipe = runNetClients(ops, func(i int) int {
		return replyHops(blockingGet(cl.Get, w.keys[w.getOrder[i]]))
	})
	cl.Close()

	oneshot = runNetClients(ops, func(i int) int {
		c, err := client.Dial(gateway, client.Options{Timeout: 60 * time.Second})
		if err != nil {
			return node.HopsTimedOut
		}
		defer c.Close()
		return replyHops(blockingGet(c.Get, w.keys[w.getOrder[i]]))
	})
	return pipe, oneshot
}

// runNetBench runs every phase and prints one JSON line each, plus a
// summary line for the lookup and client phases.
func runNetBench() {
	w := buildNetWorkload()
	enc := json.NewEncoder(os.Stdout)
	emit := func(line map[string]any) {
		if err := enc.Encode(line); err != nil {
			fatal(err)
		}
	}
	// timeouts totals the timed-out operations of every phase: the
	// deadlines are a minute long, so a single one means a reply was lost
	// and the figures around it measure the deadline, not the system.
	timeouts := 0
	better := func(a, b *netPhaseStats) *netPhaseStats {
		if a == nil || float64(b.completed)/b.wall > float64(a.completed)/a.wall {
			return b
		}
		return a
	}
	var q, g, m *netPhaseStats
	var snap metrics.Snapshot
	for rep := 0; rep < max(*netReps, 1); rep++ {
		rq, rg, rm, rs := runNetTCP(w)
		q, g, m = better(q, rq), better(g, rg), better(m, rm)
		snap = rs // keep the last rep's books; phases keep their best
	}
	timeouts += q.timeouts + g.timeouts + m.timeouts
	emit(map[string]any{
		"bench":               "net",
		"transport":           "tcp",
		"nodes":               *netNodes,
		"clients":             *netClients,
		"ops":                 *netOps,
		"seed":                *seed,
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"query_qps":           round3(float64(q.completed) / q.wall),
		"routed_msgs_per_sec": round3(float64(q.sumHops+q.completed) / q.wall),
		"query_mean_hops":     round3(float64(q.sumHops) / float64(max(q.completed, 1))),
		"query_sum_hops":      q.sumHops,
		"query_timeouts":      q.timeouts,
		"query_p50_us":        round3(q.pct(0.50)),
		"query_p95_us":        round3(q.pct(0.95)),
		"query_p99_us":        round3(q.pct(0.99)),
		"get_ops_per_sec":     round3(float64(g.completed) / g.wall),
		"get_sum_hops":        g.sumHops,
		"get_timeouts":        g.timeouts,
		"get_p50_us":          round3(g.pct(0.50)),
		"get_p95_us":          round3(g.pct(0.95)),
		"get_p99_us":          round3(g.pct(0.99)),
		"mixed_query_qps":     round3(float64(m.completed) / m.wall),
		"mixed_bg_put_bytes":  *netMixVal,
		"mixed_bg_puts":       m.bgOps,
		"mixed_timeouts":      m.timeouts,
		"mixed_p50_us":        round3(m.pct(0.50)),
		"mixed_p95_us":        round3(m.pct(0.95)),
		"mixed_p99_us":        round3(m.pct(0.99)),
		"metrics":             snap,
		"unix_millis":         time.Now().UnixMilli(),
	})
	if *netSimnet {
		for _, mode := range []string{"serial", "parallel"} {
			q, snap := runNetSimnet(mode, w)
			timeouts += q.timeouts
			emit(map[string]any{
				"bench":               "net",
				"transport":           "simnet",
				"dispatch":            mode,
				"nodes":               *netNodes,
				"ops":                 *netOps,
				"seed":                *seed,
				"gomaxprocs":          runtime.GOMAXPROCS(0),
				"drain_qps":           round3(float64(q.completed) / q.wall),
				"routed_msgs_per_sec": round3(float64(q.sumHops+q.completed) / q.wall),
				"query_mean_hops":     round3(float64(q.sumHops) / float64(max(q.completed, 1))),
				"query_sum_hops":      q.sumHops,
				"query_timeouts":      q.timeouts,
				// Reconciliation: with at most inflight_window queries in
				// flight, query_seconds_sum is bounded by wall × window.
				"inflight_window":   *netClients,
				"wall_seconds":      round3(q.wall),
				"query_seconds_sum": round3(snap.Histograms["node_query_seconds"].Sum),
				"metrics":           snap,
				"unix_millis":       time.Now().UnixMilli(),
			})
		}
	}

	// Lookup phase: plain greedy routing vs the -net-route-cache hot-region
	// cache over an identical Zipf-skewed GET stream. Same best-of-netReps
	// noise control as the TCP phases: latency percentiles on a busy host
	// swing more than the deterministic hop books do.
	hitRate := func(snap metrics.Snapshot) float64 {
		hits, misses := snap.Counters["node_cache_hits_total"], snap.Counters["node_cache_misses_total"]
		return round3(float64(hits) / float64(max(hits+misses, 1)))
	}
	lookup := func(label string, cacheSize int) (*netPhaseStats, metrics.Snapshot) {
		var st *netPhaseStats
		var snap metrics.Snapshot
		for rep := 0; rep < max(*netReps, 1); rep++ {
			rs, rsnap := runNetLookup(cacheSize, w)
			if st == nil || better(st, rs) == rs {
				st, snap = rs, rsnap
			}
		}
		timeouts += st.timeouts
		emit(map[string]any{
			"bench":               "net",
			"phase":               "lookup",
			"config":              label,
			"route_cache":         cacheSize,
			"zipf_s":              *netZipf,
			"nodes":               *netNodes,
			"clients":             *netClients,
			"ops":                 *netOps,
			"seed":                *seed,
			"get_ops_per_sec":     round3(float64(st.completed) / st.wall),
			"get_sum_hops":        st.sumHops,
			"get_mean_hops":       round3(float64(st.sumHops) / float64(max(st.completed, 1))),
			"get_timeouts":        st.timeouts,
			"get_p50_us":          round3(st.pct(0.50)),
			"get_p95_us":          round3(st.pct(0.95)),
			"get_p99_us":          round3(st.pct(0.99)),
			"cache_hits":          snap.Counters["node_cache_hits_total"],
			"cache_misses":        snap.Counters["node_cache_misses_total"],
			"cache_hit_rate":      hitRate(snap),
			"cache_invalidations": snap.Counters["node_cache_invalidations_total"],
			"unix_millis":         time.Now().UnixMilli(),
		})
		return st, snap
	}
	baseGet, _ := lookup("baseline", 0)
	cachedGet, cachedSnap := lookup("route-cache", *netCache)
	emit(map[string]any{
		"bench":                     "net",
		"phase":                     "lookup",
		"summary":                   true,
		"route_cache":               *netCache,
		"zipf_s":                    *netZipf,
		"p99_ratio_cache_vs_base":   round3(cachedGet.pct(0.99) / baseGet.pct(0.99)),
		"ops_ratio_cache_vs_base":   round3((float64(cachedGet.completed) / cachedGet.wall) / (float64(baseGet.completed) / baseGet.wall)),
		"get_mean_hops_baseline":    round3(float64(baseGet.sumHops) / float64(max(baseGet.completed, 1))),
		"get_mean_hops_route_cache": round3(float64(cachedGet.sumHops) / float64(max(cachedGet.completed, 1))),
		"cache_hit_rate":            hitRate(cachedSnap),
	})

	// Pipelined client vs dial-per-operation, same overlay and key stream.
	pipe, oneshot := runNetClientBench(w)
	timeouts += pipe.timeouts + oneshot.timeouts
	for _, c := range []struct {
		mode string
		st   *netPhaseStats
	}{{"pipelined", pipe}, {"oneshot", oneshot}} {
		emit(map[string]any{
			"bench":           "net",
			"phase":           "client",
			"mode":            c.mode,
			"nodes":           *netNodes,
			"clients":         *netClients,
			"ops":             c.st.completed + c.st.timeouts,
			"seed":            *seed,
			"get_ops_per_sec": round3(float64(c.st.completed) / c.st.wall),
			"get_timeouts":    c.st.timeouts,
			"get_p50_us":      round3(c.st.pct(0.50)),
			"get_p95_us":      round3(c.st.pct(0.95)),
			"get_p99_us":      round3(c.st.pct(0.99)),
			"unix_millis":     time.Now().UnixMilli(),
		})
	}
	emit(map[string]any{
		"bench":   "net",
		"phase":   "client",
		"summary": true,
		"pipelined_throughput_ratio": round3((float64(pipe.completed) / pipe.wall) /
			(float64(oneshot.completed) / oneshot.wall)),
	})

	if timeouts > 0 {
		fatal(fmt.Errorf("net bench: %d operations timed out; the lines above measure the deadline, not the system", timeouts))
	}
}
