package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"voronet"
	"voronet/internal/client"
	"voronet/internal/geom"
	"voronet/internal/metrics"
	"voronet/internal/node"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/wal"
)

// opTimeout bounds one client operation; an operation that hits it is a
// failure, not a slow sample.
const opTimeout = 10 * time.Second

// tcpEnv is an overlay of in-process peers, each on its own loopback TCP
// endpoint, plus tcpClients pipelined clients, client c attached to node c
// as its gateway. The two generators share them, each sending its
// successive operations through successive clients. It is what tcp-get and
// tcp-put-durable measure.
type tcpEnv struct {
	durable bool
	putFrac float64
	ks      *keySet

	eps     []*transport.TCPEndpoint // node endpoints, unwrapped: counters and Close
	nodes   []*node.Node
	clients []*client.Client
	turn    [generators]int          // which client a generator uses next
	cliEPs  []*transport.TCPEndpoint // traced pass only: the clients' own endpoints
	cliIdx  []int32                  // traced pass only: client endpoint index in the recorder
	walRoot string
	flush   chan struct{}  // durable only: closed to stop the WAL flusher
	flushed sync.WaitGroup // the flusher has returned
	rec     *traceRecorder // nil in the untraced pass

	joinNS  []int64
	scratch [generators][]byte

	hops   hopBook
	resent atomic.Int64 // operations whose first dispatch failed in Send and were dispatched again
	stale  atomic.Int64 // GETs a lagging replica answered with the version before the acknowledged one

	rootMu sync.Mutex
	roots  []opSpan

	whyMu sync.Mutex
	why   map[string]int // failed operations by cause
}

// buildTCP stands the overlay up and preloads it: listen, sequential
// joins through a random member, dial the clients, PUT every key once.
// The returned duration is setup_s.
func buildTCP(name string, sc scale, seed int64, tmp string, rec *traceRecorder) (*tcpEnv, time.Duration, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	e := &tcpEnv{durable: name == wlTCPDurable, rec: rec}
	size := smallValue
	if e.durable {
		size, e.putFrac = largeValue, 0.5
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return nil, 0, err
		}
		e.walRoot = dir
	}
	fail := func(err error) (*tcpEnv, time.Duration, error) {
		e.close()
		return nil, 0, err
	}
	positions := stratifiedPositions(rng, sc.tcpNodes)
	e.ks = newKeySet(rng, sc.tcpKeys, size)

	for i := 0; i < sc.tcpNodes; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("listen node %d: %w", i, err))
		}
		e.eps = append(e.eps, ep)
		var tep transport.Endpoint = ep
		if rec != nil {
			tep = rec.wrap(ep)
		}
		// What voronet-node runs with when given no flags but -wal-dir and,
		// on the durable workload, -wal-fsync batch (see flushWAL).
		cfg := node.Config{DMin: voronet.DefaultDMin(100000), LongLinks: 1, Seed: seed*7919 + int64(i)}
		var nd *node.Node
		if e.durable {
			cfg.WALDir = e.walDir(i)
			cfg.WALSync = wal.SyncBatch
			if nd, _, err = node.NewDurable(tep, positions[i], cfg); err != nil {
				return fail(fmt.Errorf("open durable node %d: %w", i, err))
			}
		} else {
			nd = node.New(tep, positions[i], cfg)
		}
		if i == 0 {
			if err := nd.Bootstrap(); err != nil {
				return fail(err)
			}
		} else if err := e.join(nd, e.nodes[rng.Intn(i)].Info().Addr); err != nil {
			return fail(fmt.Errorf("node %d: %w", i, err))
		}
		e.nodes = append(e.nodes, nd)
	}
	time.Sleep(100 * time.Millisecond) // neighbour-list gossip of the last joins settles
	if e.durable {
		e.flush = make(chan struct{})
		e.flushed.Add(1)
		go e.flushWAL()
	}

	for c := 0; c < tcpClients; c++ {
		gw := e.nodes[c%len(e.nodes)].Info().Addr
		if rec == nil {
			cl, err := client.Dial(gw, client.Options{Timeout: opTimeout})
			if err != nil {
				return fail(fmt.Errorf("dial client %d: %w", c, err))
			}
			e.clients = append(e.clients, cl)
			continue
		}
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("listen client %d: %w", c, err))
		}
		e.cliEPs = append(e.cliEPs, ep)
		wrapped := rec.wrap(ep)
		e.cliIdx = append(e.cliIdx, wrapped.idx)
		e.clients = append(e.clients, client.New(wrapped, gw, opTimeout))
	}
	for g := range e.scratch {
		e.scratch[g] = make([]byte, size)
	}
	if err := e.preload(); err != nil {
		return fail(err)
	}
	return e, time.Since(start), nil
}

// walFlushEvery is voronet-node's -wal-flush default: under -wal-fsync
// batch every peer fsyncs its log this often.
const walFlushEvery = time.Second

// flushWAL is the 256 peers' flush tickers in one goroutine: it walks the
// peers at an even pace, so that each one's log is fsynced once per
// walFlushEvery, as a voronet-node started with -wal-fsync batch does, and
// the fsyncs are spread over the second as those of 256 separate processes
// would be. An append is acknowledged once it is written to the log file;
// the fsync follows within a second, off the operation's path.
//
// The workload does not run -wal-fsync always because this sandbox's
// virtual disk is shared and its fsync latency moves by tens of percent
// within minutes (README.md, "Steadiness"): with an fsync in front of
// every acknowledgement every end-to-end figure of the workload followed
// the disk, and none held its bound. The cost of an fsync is still
// reported, ungated, as wal.fsync_us and wal.append_us.always.
func (e *tcpEnv) flushWAL() {
	defer e.flushed.Done()
	tick := time.NewTicker(walFlushEvery / time.Duration(len(e.nodes)))
	defer tick.Stop()
	for i := 0; ; i = (i + 1) % len(e.nodes) {
		select {
		case <-e.flush:
			return
		case <-tick.C:
			e.nodes[i].WALSync()
		}
	}
}

// stopFlush stops the flusher and waits for it.
func (e *tcpEnv) stopFlush() {
	if e.flush != nil {
		close(e.flush)
		e.flushed.Wait()
		e.flush = nil
	}
}

// tcpClients is how many clients, and so gateways, the generators spread
// their operations over. Through a single gateway, hops per operation
// follow that one node's long link and swing by ±13 % from seed to seed
// on 256 peers; the mean over eight gateways is steady enough to compare.
const tcpClients = 8

// stratifiedPositions draws n uniform positions, one in each cell of a
// √n×√n grid, in random cell order: uniform like a plain draw, without
// its empty patches and clumps, which at 256 points move the route
// lengths from seed to seed as well.
func stratifiedPositions(rng *rand.Rand, n int) []geom.Point {
	side := 1
	for side*side < n {
		side++
	}
	cells := rng.Perm(side * side)
	out := make([]geom.Point, n)
	for i := range out {
		cx, cy := cells[i]%side, cells[i]/side
		out[i] = geom.Pt((float64(cx)+rng.Float64())/float64(side), (float64(cy)+rng.Float64())/float64(side))
	}
	return out
}

// client returns the client generator g sends its next operation through.
func (e *tcpEnv) client(g int) (*client.Client, int) {
	e.turn[g]++
	c := (e.turn[g] + g*len(e.clients)/generators) % len(e.clients)
	return e.clients[c], c
}

func (e *tcpEnv) walDir(i int) string { return filepath.Join(e.walRoot, fmt.Sprintf("n%03d", i)) }

// join admits nd through via and waits for the grant, re-sending once a
// second as voronet-node does.
func (e *tcpEnv) join(nd *node.Node, via string) error {
	t0 := time.Now()
	if err := nd.Join(via); err != nil {
		return err
	}
	deadline, resend := t0.Add(20*time.Second), t0.Add(time.Second)
	for !nd.Joined() {
		now := time.Now()
		if now.After(deadline) {
			return errors.New("join timed out")
		}
		if now.After(resend) {
			_ = nd.Join(via) // admission is idempotent; a failed re-send is retried next second
			resend = now.Add(time.Second)
		}
		time.Sleep(50 * time.Microsecond)
	}
	e.joinNS = append(e.joinNS, int64(time.Since(t0)))
	return nil
}

// sweep runs op once for every key, each generator covering its own keys
// with its window full, and returns how many failed. op reports its
// outcome through done, exactly once, unless it returns an error.
func (e *tcpEnv) sweep(op func(c *client.Client, k int, done func(ok bool)) error) int {
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slots := make(chan struct{}, window)
			done := func(ok bool) {
				if !ok {
					failed.Add(1)
				}
				<-slots
			}
			for k := g; k < len(e.ks.keys); k += generators {
				slots <- struct{}{}
				c, _ := e.client(g)
				if err := e.dispatch(func() error { return op(c, k, done) }); err != nil {
					done(false)
				}
			}
			for i := 0; i < window; i++ {
				slots <- struct{}{}
			}
		}(g)
	}
	wg.Wait()
	return int(failed.Load())
}

// preload PUTs every key's counter-0 value.
func (e *tcpEnv) preload() error {
	n := e.sweep(func(c *client.Client, k int, done func(bool)) error {
		return c.Put(e.ks.keys[k], e.ks.preloadValue(k), func(r store.Reply) { done(r.Err == nil && r.Found) })
	})
	if n > 0 {
		return fmt.Errorf("preload: %d of %d PUTs failed", n, len(e.ks.keys))
	}
	return nil
}

func (e *tcpEnv) hopsPerOp() float64 { return e.hops.mean() }

func (e *tcpEnv) shape() loadShape {
	all := []int{0, 1}
	return loadShape{c1: []int{0}, closed: all, open: all, window: window}
}

// issue sends generator g's next operation through its client.
func (e *tcpEnv) issue(g int, rng *rand.Rand, done func(opKind, bool)) {
	c, ci := e.client(g)
	root := e.rootStart()
	if e.putFrac > 0 && rng.Float64() < e.putFrac {
		k, counter := e.ks.beginPut(g, rng, e.scratch[g])
		err := e.dispatch(func() error {
			return c.Put(e.ks.keys[k], e.scratch[g], func(r store.Reply) {
				ok := r.Err == nil && r.Found
				if !ok {
					e.failed("put", r)
				}
				e.ks.endPut(k, counter, ok)
				e.rootEnd(ci, opPut, root)
				done(opPut, ok)
			})
		})
		if err != nil {
			e.failed("put", store.Reply{Err: err})
			e.ks.endPut(k, counter, false)
			done(opPut, false)
		}
		return
	}
	k := rng.Intn(len(e.ks.keys))
	lo := e.ks.acked[k].Load()
	err := e.dispatch(func() error {
		return c.Get(e.ks.keys[k], func(r store.Reply) {
			// r.Value is only valid inside this callback.
			ok, stale := false, false
			if r.Err == nil && r.Found {
				ok, stale = e.ks.checkGet(k, r.Value, lo, 1)
			}
			if stale {
				e.stale.Add(1)
			}
			if ok {
				e.hops.add(r.Hops)
			} else {
				e.failed("get", r)
			}
			e.rootEnd(ci, opGet, root)
			done(opGet, ok)
		})
	})
	if err != nil {
		e.failed("get", store.Reply{Err: err})
		done(opGet, false)
	}
}

// dispatch hands an operation to its client, a second time if the first
// attempt fails in Send. A client's cached connection to its gateway is
// dropped whenever that gateway first dials the client back with an
// answer (the transport's restart hint), and a Send racing with the drop
// fails; internal/node retries such a send once, internal/client does
// not, so the load generator does what an application on top of it would.
// The callback fires only for a dispatch that returned nil, so the retry
// cannot complete an operation twice. Retries are counted into
// client.retries.
func (e *tcpEnv) dispatch(op func() error) error {
	err := op()
	if err != nil {
		e.resent.Add(1)
		err = op()
	}
	return err
}

// failed books one failed operation under its cause.
func (e *tcpEnv) failed(op string, r store.Reply) {
	cause := "wrong or stale value"
	switch {
	case r.Err != nil:
		cause = r.Err.Error()
	case !r.Found:
		cause = "not found"
	}
	e.whyMu.Lock()
	if e.why == nil {
		e.why = map[string]int{}
	}
	e.why[op+": "+cause]++
	e.whyMu.Unlock()
}

// rootStart / rootEnd record the client.op root span while tracing is on.
func (e *tcpEnv) rootStart() int64 {
	if e.rec == nil || !e.rec.on.Load() {
		return -1
	}
	return e.rec.since(time.Now())
}

func (e *tcpEnv) rootEnd(client int, kind opKind, start int64) {
	if start < 0 {
		return
	}
	end := e.rec.since(time.Now())
	e.rootMu.Lock()
	e.roots = append(e.roots, opSpan{Client: e.cliIdx[client], Kind: kind, Start: start, End: end})
	e.rootMu.Unlock()
}

func (e *tcpEnv) takeRoots() []opSpan {
	e.rootMu.Lock()
	defer e.rootMu.Unlock()
	r := e.roots
	e.roots = nil
	return r
}

// books merges every node's and endpoint's registry (the clients' own
// endpoints included, when the benchmark owns them).
func (e *tcpEnv) books() metrics.Snapshot {
	var s metrics.Snapshot
	for i := range e.nodes {
		s.Merge(e.nodes[i].Metrics().Snapshot())
		s.Merge(e.eps[i].Metrics().Snapshot())
	}
	for _, ep := range e.cliEPs {
		s.Merge(ep.Metrics().Snapshot())
	}
	return s
}

func (e *tcpEnv) retries() uint64 {
	var n uint64
	for _, c := range e.clients {
		n += c.Retried()
	}
	n += uint64(e.resent.Load())
	return n
}

// walBytes is the size of every segment file under the WAL root.
func (e *tcpEnv) walBytes() int64 {
	var n int64
	_ = filepath.Walk(e.walRoot, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // a file that vanished mid-walk is just not counted
	})
	return n
}

// audit checks what the run left behind. Every key is read back through a
// client and verified; on the durable workload the overlay is then closed
// without Leave — a crash — and every node's log replayed: each node's
// log must hold as many records as the node counted appending, and every
// acknowledged PUT's last version must be in at least one log.
func (e *tcpEnv) audit() auditResult {
	var res auditResult
	e.whyMu.Lock()
	for cause, n := range e.why {
		res.Notes = append(res.Notes, fmt.Sprintf("during the phases, %d × %s", n, cause))
	}
	e.whyMu.Unlock()
	if n := e.stale.Load(); n > 0 {
		res.Observations = append(res.Observations, fmt.Sprintf(
			"%d GETs were answered with the version before the last acknowledged one (a replica on the path, ahead of the owner's push)", n))
	}
	time.Sleep(50 * time.Millisecond) // quiescence: the last replica pushes land
	res.Failed = e.sweep(func(c *client.Client, k int, done func(bool)) error {
		lo := e.ks.acked[k].Load()
		return c.Get(e.ks.keys[k], func(r store.Reply) {
			ok, _ := e.ks.checkGet(k, r.Value, lo, 0)
			done(r.Err == nil && r.Found && ok)
		})
	})
	res.Checked = len(e.ks.keys)
	if res.Failed > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d keys unreadable or wrong in the final read-back", res.Failed))
	}
	if !e.durable {
		return res
	}

	appended := make([]uint64, len(e.nodes))
	for i, nd := range e.nodes {
		appended[i] = nd.Metrics().Snapshot().Counters["wal_appends_total"]
	}
	e.closeEndpoints() // no Leave, no Shutdown: the logs are all that survives

	last := make(map[geom.Point]uint32) // highest counter seen per key across all logs
	t0 := time.Now()
	replayed := 0
	for i := range e.nodes {
		stats, err := wal.Replay(e.walDir(i), func(rec proto.StoreRecord) {
			if rec.Deleted {
				return
			}
			if _, c, ok := parseValue(rec.Value, rec.Key, e.ks.size); ok && c >= last[rec.Key] {
				last[rec.Key] = c
			}
		})
		replayed += stats.Records
		if err != nil || uint64(stats.Records) != appended[i] || stats.CorruptFrames > 0 {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("node %d: log replays %d records (corrupt %d, err %v), node appended %d",
				i, stats.Records, stats.CorruptFrames, err, appended[i]))
		}
		res.Checked++
	}
	res.ReplaySeconds = time.Since(t0).Seconds()
	res.Replayed = replayed
	for k := range e.ks.keys {
		res.Checked++
		want := e.ks.acked[k].Load()
		if got, ok := last[e.ks.keys[k]]; !ok || got < want {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("key %d: acked version %d, logs hold %d (present %v)", k, want, got, ok))
		}
	}
	return res
}

func (e *tcpEnv) closeEndpoints() {
	e.stopFlush()
	for _, c := range e.clients {
		c.Close() // endpoint teardown; nothing to flush
	}
	for _, ep := range e.cliEPs {
		ep.Close()
	}
	for _, ep := range e.eps {
		ep.Close()
	}
	e.eps, e.cliEPs, e.clients = nil, nil, nil
}

// close tears the overlay down and removes the WAL directory. The nodes'
// log files have no close short of Leave; dropping the nodes lets the
// runtime's file finalizers release them.
func (e *tcpEnv) close() {
	e.closeEndpoints()
	e.nodes = nil
	if e.walRoot != "" {
		os.RemoveAll(e.walRoot)
	}
}
