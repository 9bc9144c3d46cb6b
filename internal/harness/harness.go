// Package harness is the deterministic chaos harness for the distributed
// VoroNet node: a declarative scenario engine that drives real node.Node
// instances over the transport.Bus simnet through joins, graceful leaves,
// abrupt crashes, named partitions, lossy links, stragglers and keyed
// workloads, and checks network-wide invariants at every Check step —
// global Delaunay validity of the union of local views, long-link /
// back-pointer symmetry, replica-set placement of every acknowledged key,
// and greedy-routing reachability.
//
// Every run is reproducible: the scenario seed drives all random choices
// (positions, sponsors, victims, keys, fault draws via the seeded bus),
// the node and store layers emit messages in sorted deterministic order,
// and the run records a replayable transcript whose bytes are identical
// across runs of the same scenario and seed. The transcript includes the
// bus's Delivered/Dropped counters and virtual clock, so it is a complete
// causally-ordered account of the run — when a scenario fails in CI, the
// transcript is the artefact to diff.
package harness

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"voronet/internal/geom"
	"voronet/internal/metrics"
	"voronet/internal/node"
	"voronet/internal/proto"
	"voronet/internal/stats"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/workload"
)

// Scenario is a declarative chaos script: a seeded overlay configuration
// plus an ordered list of steps.
type Scenario struct {
	Name string
	// Seed drives every random choice in the run (and the bus's fault
	// draws). Same scenario + same seed ⇒ byte-identical transcript.
	Seed int64
	// DMin, LongLinks, Replication parameterise the nodes (defaults:
	// 0.02, 1, store.DefaultReplication).
	DMin        float64
	LongLinks   int
	Replication int
	// Positions names the workload source for node positions (default
	// "uniform").
	Positions string
	// Durable gives every node a write-ahead log in a private temp
	// directory (removed when the run ends): nodes are built with
	// node.NewDurable, crashes stop untracking keys (the records survive
	// on disk), and the Restart step can bring crashed members back at
	// their old addresses with their stores recovered. WAL paths are
	// host-specific and never appear in the transcript.
	Durable bool
	Steps   []Step
}

// Step is one scenario action. Implementations live in steps.go.
type Step interface {
	run(r *Run) error
}

// Result is the outcome of a scenario run.
type Result struct {
	// Transcript is the replayable causally-ordered run log.
	Transcript []byte
	// Passed is true when every Check met its expectations and every
	// structural step (joins, workload sanity) succeeded.
	Passed bool
	// Failures lists every violated expectation.
	Failures []string
	// Checks holds the report of each Check step in order.
	Checks []CheckReport
	// Workload counters across all Workload steps.
	Ops, OpsLost, OpsFailed int
	// SyncDigestBytes / SyncFullBytes accumulate the SyncBytes probes:
	// what the anti-entropy sweeps measured there would have cost on the
	// wire in digest mode versus full-push mode.
	SyncDigestBytes, SyncFullBytes uint64
	// Sends, Delivered, Dropped and VirtualTime snapshot the bus at the
	// end. The run fails unless Sends == Delivered + Dropped (the
	// message-conservation invariant; a settled run has nothing pending).
	Sends, Delivered, Dropped uint64
	VirtualTime               uint64
	// Metrics is the run-wide metric snapshot: every node's registry
	// merged with the bus counters. voronet-bench -chaos embeds it in
	// BENCH_chaos.json.
	Metrics metrics.Snapshot
}

// member is one node slot in a run; slots are never reused, so a node's
// index is stable for the whole scenario.
type member struct {
	nd    *node.Node
	ep    transport.Endpoint
	addr  string
	idx   int
	alive bool
	// crashed marks a member killed by Crash (as opposed to a graceful
	// Leave): in a Durable scenario its WAL survives and Restart may
	// revive it at the same address.
	crashed bool
}

// expectation tracks what the harness believes about one stored key.
type expectation struct {
	val []byte
	// sure is false when a later put on the key was lost in flight: the
	// op may or may not have been applied, so the value is indeterminate
	// (but some record must still exist).
	sure bool
}

// Run is the executing state of a scenario.
type Run struct {
	scn Scenario
	bus *transport.Bus
	rng *rand.Rand
	src workload.Source
	tr  *transcript

	members []*member
	// walRoot is the run's private WAL directory (Durable scenarios
	// only); each member logs under walRoot/<addr>. Removed when the run
	// ends, and never written to the transcript.
	walRoot string
	// retired holds the metric registries of node instances replaced by
	// Restart: the bus counted their traffic, so reconciliation (and the
	// merged snapshot) must keep counting them too.
	retired []*metrics.Registry
	// zipf is the lazily created hot-key source shared by all zipf
	// Workload steps of the run (same key set throughout).
	zipf *workload.ZipfKeys

	// opSeq numbers workload operations across the whole run (values are
	// derived from it, so every put writes something fresh).
	opSeq int
	// dropFaults and partitioned track the active fault state; lossy
	// stays set from the first loss fault until a Settle runs with no
	// fault active (reads are only strongly checked outside the lossy
	// regime — under loss, replicas are eventually consistent).
	// activeParts holds the installed partition specs so joins during a
	// partition re-assign the groups over the grown membership.
	dropFaults  bool
	partitioned bool
	lossy       bool
	activeParts []partition

	expected map[geom.Point]*expectation
	res      *Result
}

// Run executes the scenario and returns its result. Execution errors
// (structural misuse, not invariant violations) surface as error.
func (s Scenario) Run() (*Result, error) {
	if s.DMin <= 0 {
		s.DMin = 0.02
	}
	if s.LongLinks <= 0 {
		s.LongLinks = 1
	}
	if s.Replication <= 0 {
		s.Replication = store.DefaultReplication
	}
	if s.Positions == "" {
		s.Positions = "uniform"
	}
	rng := rand.New(rand.NewSource(s.Seed))
	src := workload.ByName(s.Positions, rng)
	if src == nil {
		return nil, fmt.Errorf("harness: unknown position source %q", s.Positions)
	}
	r := &Run{
		scn:      s,
		bus:      transport.NewSeededBus(s.Seed),
		rng:      rng,
		src:      src,
		tr:       newTranscript(),
		expected: make(map[geom.Point]*expectation),
		res:      &Result{},
	}
	if s.Durable {
		// The WAL root is host state, not scenario state: its path must
		// never leak into the transcript (byte-identical replays).
		dir, err := os.MkdirTemp("", "voronet-chaos-wal-")
		if err != nil {
			return nil, fmt.Errorf("harness: wal root: %w", err)
		}
		defer os.RemoveAll(dir)
		r.walRoot = dir
	}
	r.tr.logf("scenario %s seed=%d dmin=%.4f longlinks=%d replication=%d positions=%s durable=%v",
		s.Name, s.Seed, s.DMin, s.LongLinks, s.Replication, s.Positions, s.Durable)
	for i, st := range s.Steps {
		if err := st.run(r); err != nil {
			return nil, fmt.Errorf("harness: scenario %s step %d: %w", s.Name, i+1, err)
		}
	}
	r.reconcileMetrics()
	r.res.Passed = len(r.res.Failures) == 0
	r.res.Sends = r.bus.SendCount()
	r.res.Delivered = r.bus.DeliveredCount()
	r.res.Dropped = r.bus.DroppedCount()
	r.res.VirtualTime = r.bus.Now()
	r.tr.logf("end passed=%v failures=%d %s", r.res.Passed, len(r.res.Failures), r.busLine())
	r.res.Transcript = r.tr.bytes()
	return r.res, nil
}

// reconcileMetrics checks the end-of-run message-conservation
// invariants against the metric registries and builds the run-wide
// merged snapshot. Two books are kept independently — the bus counts
// what the network did, each node's registry counts what it asked for —
// and a run is only healthy when they agree:
//
//	bus sends == bus delivered + bus dropped + bus pending
//	Σ node sent_total − Σ send_self_total − Σ send_errors_total == bus sends
//
// (self-sends are delivered in-process without touching the transport;
// errored sends were refused by the bus and never entered its books).
func (r *Run) reconcileMetrics() {
	sends := r.bus.SendCount()
	delivered := r.bus.DeliveredCount()
	dropped := r.bus.DroppedCount()
	pending := uint64(r.bus.Pending())
	if sends != delivered+dropped+pending {
		r.fail("bus conservation: sends=%d != delivered=%d + dropped=%d + pending=%d",
			sends, delivered, dropped, pending)
	}
	merged := r.bus.MetricsSnapshot()
	var sent, self, errs uint64
	regs := make([]*metrics.Registry, 0, len(r.members)+len(r.retired))
	regs = append(regs, r.retired...)
	for _, m := range r.members {
		regs = append(regs, m.nd.Metrics())
	}
	for _, reg := range regs {
		snap := reg.Snapshot()
		sent += snap.Counters["node_sent_total"]
		self += snap.Counters["node_send_self_total"]
		errs += snap.Counters["node_send_errors_total"]
		merged.Merge(snap)
	}
	if sent-self-errs != sends {
		r.fail("node/bus reconciliation: Σsent=%d − Σself=%d − Σerrors=%d = %d != bus sends=%d",
			sent, self, errs, sent-self-errs, sends)
	}
	r.res.Metrics = merged
	r.tr.logf("metrics sends=%d delivered=%d dropped=%d pending=%d node_sent=%d self=%d errors=%d",
		sends, delivered, dropped, pending, sent, self, errs)
}

// live returns the live members in index order.
func (r *Run) live() []*member {
	out := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		if m.alive {
			out = append(out, m)
		}
	}
	return out
}

// liveNodes returns the live node handles in index order.
func (r *Run) liveNodes() []*node.Node {
	var out []*node.Node
	for _, m := range r.live() {
		out = append(out, m.nd)
	}
	return out
}

// busLine renders the bus counters for transcript lines.
func (r *Run) busLine() string {
	return fmt.Sprintf("delivered=%d dropped=%d vt=%d",
		r.bus.DeliveredCount(), r.bus.DroppedCount(), r.bus.Now())
}

// fail records one expectation violation (the run keeps going: a scenario
// reports every violation it finds, not just the first).
func (r *Run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.res.Failures = append(r.res.Failures, msg)
	r.tr.logf("FAIL %s", msg)
}

// nodeConfig builds the Config for the member at index idx — shared by
// addNode and Restart so a revived node runs exactly the configuration
// its predecessor did.
func (r *Run) nodeConfig(idx int, addr string) node.Config {
	cfg := node.Config{
		DMin:        r.scn.DMin,
		LongLinks:   r.scn.LongLinks,
		Seed:        r.scn.Seed + int64(idx),
		Replication: r.scn.Replication,
		// Replies either arrive during the drain or are lost to a fault;
		// an effectively infinite timeout keeps wall-clock timers (which
		// would be nondeterministic) out of the run entirely.
		RequestTimeout: 365 * 24 * time.Hour,
	}
	if r.scn.Durable {
		cfg.WALDir = filepath.Join(r.walRoot, addr)
	}
	return cfg
}

// addNode attaches and joins one node; via is the sponsor address ("" for
// bootstrap). Join completion is verified after the caller drains.
func (r *Run) addNode() (*member, error) {
	idx := len(r.members)
	addr := fmt.Sprintf("n%03d", idx)
	ep, err := r.bus.Attach(addr)
	if err != nil {
		return nil, err
	}
	pos := r.src.Next()
	cfg := r.nodeConfig(idx, addr)
	var nd *node.Node
	if r.scn.Durable {
		nd, _, err = node.NewDurable(ep, pos, cfg)
		if err != nil {
			return nil, fmt.Errorf("durable node %s: %w", addr, err)
		}
	} else {
		nd = node.New(ep, pos, cfg)
	}
	m := &member{nd: nd, ep: ep, addr: addr, idx: idx, alive: true}
	r.members = append(r.members, m)
	return m, nil
}

// sortedExpectedKeys returns the tracked keys in deterministic order.
func (r *Run) sortedExpectedKeys() []geom.Point {
	keys := make([]geom.Point, 0, len(r.expected))
	for k := range r.expected {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].X != keys[j].X {
			return keys[i].X < keys[j].X
		}
		return keys[i].Y < keys[j].Y
	})
	return keys
}

// holdersOf returns the addresses of live members holding a record for
// key, in index order.
func (r *Run) holdersOf(key geom.Point) []string {
	var out []string
	for _, m := range r.live() {
		if _, ok := m.nd.StoreLookup(key); ok {
			out = append(out, m.addr)
		}
	}
	return out
}

// hopsSummary renders mean and p99 over a hop sample.
func hopsSummary(hops []float64) string {
	if len(hops) == 0 {
		return "meanhops=0.000 p99hops=0.0"
	}
	var run stats.Running
	for _, h := range hops {
		run.Add(h)
	}
	cp := append([]float64(nil), hops...)
	return fmt.Sprintf("meanhops=%.3f p99hops=%.1f", run.Mean(), stats.Percentile(cp, 99))
}

// infoOf is a convenience for transcript lines.
func infoOf(m *member) proto.NodeInfo { return m.nd.Info() }
