// Package node implements the distributed, message-passing VoroNet peer:
// each node holds only its own view — its position, its Voronoi neighbours
// vn with their neighbour lists (the "neighbours' neighbours" knowledge of
// §4.1), its close neighbours cn, its long links and its BLRn set — and
// maintains that view purely by exchanging internal/proto messages over an
// internal/transport endpoint. No node ever sees a global structure.
//
// Local tessellation surgery follows the paper's division of labour: the
// object owning the affected region recomputes the partial tessellation
// and the neighbourhood is told to update (§3.3). Concretely, every
// affected node rebuilds its own Voronoi neighbour list from its candidate
// pool (itself, its neighbours, their neighbours, plus the arriving or
// departing object) with a small local Delaunay computation; the pool
// provably contains the true new neighbour set under the paper's 2-hop
// knowledge assumption, and the node tests validate the resulting views
// against the reference substrate (internal/core) site-for-site.
//
// One deliberate divergence from Algorithms 1–5: routed operations travel
// greedily all the way to the region owner instead of stopping at the
// ⅓-distance condition and inserting fictive objects. The fictive-object
// machinery exists to prove termination bounds for point targets; greedy
// forwarding over Voronoi neighbours already terminates at the owner
// (every non-owner has a neighbour strictly closer to the target), and the
// owner inserts locally. The simulator (internal/core) implements the
// literal fictive-object protocol and accounts its costs.
package node

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sync/atomic"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/kleinberg"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/wal"
)

// Config parameterises a node.
type Config struct {
	// DMin is the close-neighbour radius (all nodes must agree on it;
	// derive it from NMax with core.DefaultDMin).
	DMin float64
	// LongLinks is the number of long-range links to establish.
	LongLinks int
	// Seed seeds the node's private RNG (long-link targets).
	Seed int64
	// Replication is the object-store replication factor R: a stored
	// record is pushed to the R Voronoi neighbours of the owner closest
	// to the key (default store.DefaultReplication).
	Replication int
	// RequestTimeout bounds every routed request this node originates
	// (default 5s): a store operation or query left without an answer
	// (the owner crashed, the answer was lost) fires its callback once
	// with store.ErrTimeout.
	RequestTimeout time.Duration
	// RouteCacheSize enables the hot-region owner cache with that many
	// entries: origins remember which node answered for a target cell
	// and feed it into the next greedy scan as an extra candidate (see
	// cache.go for the coherence rules). 0 (the default) disables the
	// cache.
	RouteCacheSize int
	// WALDir, when non-empty and the node is built with NewDurable,
	// holds the write-ahead log: every acked PUT/DELETE (and every
	// replica apply) is logged there before the ack, and a restarted
	// node replays it into its store (see durable.go).
	WALDir string
	// WALSync selects the WAL fsync cadence (default wal.SyncAlways:
	// an acked write is on disk before the ack leaves the node).
	// Segments rotate at 4 MiB.
	WALSync wal.SyncPolicy
	// MaxInflight bounds admitted work: at the origin, no more than
	// this many routed requests originated here — store ops and queries
	// alike — may be pending; at the owner, no more than this many store
	// ops execute concurrently. Work beyond the budget, and every request
	// a draining (mid-Shutdown) node originates, is shed fast with
	// store.ErrOverloaded (counted in store_shed_total) instead of
	// queueing toward a timeout. 0 (the default) disables the budget.
	MaxInflight int
}

// Errors returned by node operations.
var (
	ErrNotJoined     = errors.New("node: not joined")
	ErrAlreadyJoined = errors.New("node: already joined")
)

// Node is one VoroNet peer.
//
// Locking discipline (see DESIGN.md): mu is a single-writer /
// many-readers lock over the view state (vn, twoHop, cn, long links,
// back, tombs). Read-only message paths — the greedy next-hop scan, query
// and store-GET serving, the public snapshot accessors — take the read
// lock, snapshot what they need, release it and only then touch the
// transport. View surgery (join admission, leave, departure repair,
// neighbour recomputation, BLRn rebalance) takes the write lock. No lock
// is ever held across a transport send (TestNoLockHeldAcrossSends). The
// request table (inflight) locks itself and never nests with mu.
type Node struct {
	mu   sync.RWMutex
	ep   transport.Endpoint
	self proto.NodeInfo
	cfg  Config
	rng  *rand.Rand

	joined bool
	vn     map[string]proto.NodeInfo   // Voronoi neighbours
	twoHop map[string][]proto.NodeInfo // their neighbour lists
	cn     map[string]proto.NodeInfo   // close neighbours

	longTargets []geom.Point
	longNbrs    []proto.NodeInfo
	back        []proto.BackEntry

	// tombs records departed addresses so that stale gossip cannot
	// resurrect them (see handle): presence means dead, the value is the
	// incarnation number the address died at (0 on overlays without
	// generations). A NodeInfo carrying a higher generation is a durably
	// restarted successor and passes every tombstone filter (see
	// deadLocked). tombOrder bounds what we re-advertise.
	tombs     map[string]uint64
	tombOrder []string

	// lastVN snapshots the Voronoi neighbour list at departure: a store
	// handoff bounced back after Leave is re-delegated through it rather
	// than stranded (see handleReplicaSync).
	lastVN []proto.NodeInfo

	// Object store: the records this node holds (as owner or replica) and
	// the one correlation table for the routed requests it originates —
	// PUT/GET/DELETE and queries.
	kv       *store.Local
	inflight *store.Inflight

	// cache is the hot-region owner cache (nil unless
	// Config.RouteCacheSize > 0). It is a leaf lock: safe to consult
	// under n.mu and from callback paths.
	cache *routeCache

	// Durability (see durable.go): wal is set once by NewDurable before
	// the message handler is installed and never reassigned, so the nil
	// fast path needs no lock; all operations on a live log serialise
	// on walMu. walGC holds the tombstones seen at the previous
	// compaction (two-phase GC), also under walMu.
	wal   *wal.Log
	walMu sync.Mutex
	walGC map[geom.Point]uint64

	// Admission control (see Config.MaxInflight): draining is set by
	// Shutdown so new origin ops are refused during the handoff;
	// storeBusy counts store ops executing at this node as owner.
	draining  atomic.Bool
	storeBusy atomic.Int64

	// nm caches the node's metric instruments (see metrics.go); the
	// registry is exposed via Metrics().
	nm nodeMetrics
}

// New creates a node at pos attached to ep. The node is not part of any
// overlay until Bootstrap or Join is called.
func New(ep transport.Endpoint, pos geom.Point, cfg Config) *Node {
	n := newNode(ep, pos, cfg)
	ep.SetHandler(n.handle)
	return n
}

// newNode builds the node without installing the message handler, so
// NewDurable can replay the WAL into the store before any message can
// race with the recovery.
func newNode(ep transport.Endpoint, pos geom.Point, cfg Config) *Node {
	if cfg.LongLinks <= 0 {
		cfg.LongLinks = 1
	}
	if cfg.DMin <= 0 {
		cfg.DMin = 1e-3
	}
	if cfg.Replication <= 0 {
		cfg.Replication = store.DefaultReplication
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	n := &Node{
		ep:       ep,
		self:     proto.NodeInfo{Addr: ep.Addr(), Pos: pos},
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ int64(len(ep.Addr())))),
		vn:       make(map[string]proto.NodeInfo),
		twoHop:   make(map[string][]proto.NodeInfo),
		cn:       make(map[string]proto.NodeInfo),
		tombs:    make(map[string]uint64),
		kv:       store.NewLocal(),
		inflight: store.NewInflight(cfg.MaxInflight),
		nm:       newNodeMetrics(),
	}
	if cfg.RouteCacheSize > 0 {
		n.cache = newRouteCache(cfg.RouteCacheSize, cfg.DMin)
	}
	return n
}

// Info returns the node's identity.
func (n *Node) Info() proto.NodeInfo { return n.self }

// Joined reports whether the node is part of an overlay.
func (n *Node) Joined() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.joined
}

// Neighbors returns a snapshot of vn.
func (n *Node) Neighbors() []proto.NodeInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]proto.NodeInfo, 0, len(n.vn))
	for _, v := range n.vn {
		out = append(out, v)
	}
	return out
}

// CloseNeighbors returns a snapshot of cn.
func (n *Node) CloseNeighbors() []proto.NodeInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]proto.NodeInfo, 0, len(n.cn))
	for _, v := range n.cn {
		out = append(out, v)
	}
	return out
}

// LongNeighbors returns a snapshot of the long-link view.
func (n *Node) LongNeighbors() []proto.NodeInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]proto.NodeInfo(nil), n.longNbrs...)
}

// BackEntries returns a snapshot of BLRn.
func (n *Node) BackEntries() []proto.BackEntry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]proto.BackEntry(nil), n.back...)
}

// LongTargets returns the node's fixed long-link target points.
func (n *Node) LongTargets() []geom.Point {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]geom.Point(nil), n.longTargets...)
}

// Bootstrap declares this node the first object of a fresh overlay: it
// owns the whole attribute space and its long links point to itself.
func (n *Node) Bootstrap() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.joined {
		return ErrAlreadyJoined
	}
	n.joined = true
	for j := 0; j < n.cfg.LongLinks; j++ {
		n.longTargets = append(n.longTargets, n.chooseLRT())
		n.longNbrs = append(n.longNbrs, n.self)
		n.back = append(n.back, proto.BackEntry{Origin: n.self, Link: j, Target: n.longTargets[j]})
	}
	return nil
}

// Join asks the overlay member at `via` to admit this node: the join
// request is greedy-routed to the owner of the node's position, which
// performs AddVoronoiRegion and replies with the new view. Completion is
// asynchronous; poll Joined (the in-memory bus makes it synchronous under
// Drain).
func (n *Node) Join(via string) error {
	n.mu.RLock()
	if n.joined {
		n.mu.RUnlock()
		return ErrAlreadyJoined
	}
	n.mu.RUnlock()
	return n.send(via, &proto.Envelope{
		Type:    proto.KindRoute,
		Purpose: proto.PurposeJoin,
		Target:  n.self.Pos,
		Origin:  n.self,
	})
}

// Query greedy-routes a point query (Algorithm 4) and invokes cb with
// the answer: Owner is the object owning p's region, Hops the route
// length. It travels like a store operation — same request table, same
// MaxInflight budget, same refusal while draining — and its callback
// fires exactly once, with store.ErrTimeout if no answer arrives within
// Config.RequestTimeout (the owner crashed mid-query, the answer was
// lost).
func (n *Node) Query(p geom.Point, cb func(store.Reply)) error {
	return n.originate(proto.PurposeQuery, p, nil, cb, false)
}

// Leave departs the overlay: the node recomputes the tessellation around
// its hole for its neighbours, delegates its BLRn entries to the closest
// neighbour of each target, withdraws its own links and informs its close
// neighbours (§4.2.2).
func (n *Node) Leave() error {
	start := time.Now()
	n.mu.Lock()
	if !n.joined {
		n.mu.Unlock()
		return ErrNotJoined
	}
	defer func() { n.nm.leaveTime.Observe(time.Since(start).Seconds()) }()
	n.joined = false

	type outMsg struct {
		to  string
		env *proto.Envelope
	}
	var out []outMsg
	// All iteration below runs over sorted snapshots: the resulting
	// message sequence must be deterministic for replayable chaos runs.
	vns := n.vnList()
	n.lastVN = vns
	cns := make([]proto.NodeInfo, 0, len(n.cn))
	for _, c := range n.cn {
		cns = append(cns, c)
	}
	sort.Slice(cns, func(i, j int) bool { return cns[i].Addr < cns[j].Addr })

	// Delegate BLRn entries to the Voronoi neighbour closest to each
	// target; after our region disappears that neighbour owns the target.
	for _, ref := range n.back {
		if ref.Origin.Addr == n.self.Addr {
			continue
		}
		best, ok := nearestOf(vns, ref.Target)
		if !ok {
			continue
		}
		out = append(out,
			outMsg{best.Addr, &proto.Envelope{Type: proto.KindBackTransfer, From: n.self, Back: []proto.BackEntry{ref}}},
			outMsg{ref.Origin.Addr, &proto.Envelope{Type: proto.KindLongLinkUpdate, From: n.self, Granter: best, Link: ref.Link}},
		)
	}
	n.back = nil

	// Withdraw our own long links from their holders.
	for j, h := range n.longNbrs {
		if h.Addr == "" || h.Addr == n.self.Addr {
			continue
		}
		out = append(out, outMsg{h.Addr, &proto.Envelope{Type: proto.KindBackWithdraw, From: n.self, Link: j}})
	}

	// Store handoff: delegate every record (tombstones included) to the
	// Voronoi neighbour closest to its key — after our region disappears
	// that neighbour owns the key — marked Handoff so the recipient
	// restores the replication factor.
	var handoffs []pushTo
	for _, rec := range n.kv.Snapshot() {
		if to, ok := nearestOf(vns, rec.Key); ok {
			handoffs = addPush(handoffs, to.Addr, true, rec)
		}
	}
	for _, t := range handoffs {
		for _, chunk := range chunkRecords(t.recs) {
			out = append(out, outMsg{t.addr, &proto.Envelope{
				Type: proto.KindReplicaSync, From: n.self, Records: chunk, Handoff: true,
			}})
		}
	}
	// Clear in place: handlers read n.kv without n.mu, so the pointer
	// itself must never change.
	n.kv.Clear()

	// Tell the neighbourhood to close the hole and close neighbours to
	// forget us.
	for _, v := range vns {
		out = append(out, outMsg{v.Addr, &proto.Envelope{Type: proto.KindLeave, From: n.self}})
	}
	for _, c := range cns {
		out = append(out, outMsg{c.Addr, &proto.Envelope{Type: proto.KindLeaveCN, From: n.self}})
	}
	n.vn = map[string]proto.NodeInfo{}
	n.twoHop = map[string][]proto.NodeInfo{}
	n.cn = map[string]proto.NodeInfo{}
	n.longNbrs = nil
	n.longTargets = nil
	if n.cache != nil {
		n.cache.Clear()
	}
	n.mu.Unlock()

	for _, m := range out {
		// Unreachable peers have already departed and need no notice;
		// other transport failures are also non-fatal for a leave (the
		// neighbourhood converges through its own gossip).
		_ = n.send(m.to, m.env)
	}
	// Every record was handed off above, so the WAL holds nothing worth
	// recovering: a rejoin at this address must start clean, exactly as
	// the in-memory store does (n.kv.Clear).
	n.walReset()
	return nil
}

// chooseLRT draws a long-link target (Algorithm 3, the paper's s = 2)
// around the node: radius first, then angle, as internal/core does.
func (n *Node) chooseLRT() geom.Point {
	r := kleinberg.SampleRadius(n.cfg.DMin, math.Sqrt2, 2, n.rng)
	theta := n.rng.Float64() * 2 * math.Pi
	return geom.Pt(n.self.Pos.X+r*math.Cos(theta), n.self.Pos.Y+r*math.Sin(theta))
}

func (n *Node) send(to string, env *proto.Envelope) error {
	if env.From.Addr == "" {
		env.From = n.self
	}
	// Encode into a pooled buffer: neither transport retains the payload
	// after Send returns (see transport.Endpoint), and local delivery
	// decodes synchronously with copying semantics, so the buffer can go
	// straight back to the pool on every path out of this function.
	wb := proto.GetBuf()
	defer wb.Put()
	wb.B = proto.AppendEncode(wb.B[:0], env)
	b := wb.B
	n.nm.sent.Inc()
	n.nm.sentByKind[env.Type].Inc()
	n.nm.wireSentByKind[env.Type].Add(uint64(len(b)))
	switch env.Type {
	case proto.KindReplicaSync, proto.KindSyncDigest, proto.KindSyncPull:
		// All replica-maintenance traffic, fingerprints and full records
		// alike, in one series.
		n.nm.antiEntropyBytes.Add(uint64(len(b)))
	}
	if to == n.self.Addr {
		// Local delivery without the transport.
		n.nm.sendSelf.Inc()
		n.handle(n.self.Addr, b)
		return nil
	}
	if err := n.ep.Send(to, b); err != nil {
		n.nm.sendErrs.Inc()
		return err
	}
	return nil
}

// sendWithRetry sends env to `to`, retrying exactly once on a transient
// transport failure — a cached TCP connection the remote closed while
// idle fails its first write, and the retry re-dials. Structural failures
// (transport.ErrUnknownPeer, transport.ErrClosed) mean resending the same
// frame can never succeed, so they return immediately; the retry policy
// lives here, shared by the greedy forwarding step and the store reply
// paths, instead of being re-implemented per call site.
func (n *Node) sendWithRetry(to string, env *proto.Envelope) error {
	err := n.send(to, env)
	if err == nil || errors.Is(err, transport.ErrUnknownPeer) || errors.Is(err, transport.ErrClosed) {
		return err
	}
	n.nm.retries.Inc()
	return n.send(to, env)
}

func (n *Node) String() string {
	return fmt.Sprintf("node(%s @ %.4f,%.4f)", n.self.Addr, n.self.Pos.X, n.self.Pos.Y)
}

// miniNeighbors rebuilds this node's Voronoi neighbour list from a
// candidate pool via a local Delaunay computation. pool must contain the
// node itself. Candidates are inserted in address order so the resulting
// neighbour list — which rides on the wire in grants and gossip — is
// independent of map iteration order.
func miniNeighbors(self proto.NodeInfo, pool map[string]proto.NodeInfo) []proto.NodeInfo {
	tr := delaunay.New()
	byVert := make(map[delaunay.VertexID]proto.NodeInfo, len(pool))
	var selfV delaunay.VertexID = delaunay.NoVertex
	// Insert self first so duplicates resolve in our favour deterministically.
	sv, err := tr.Insert(self.Pos, delaunay.NoVertex)
	if err == nil {
		selfV = sv
		byVert[sv] = self
	}
	addrs := make([]string, 0, len(pool))
	for a := range pool {
		if a != self.Addr {
			addrs = append(addrs, a)
		}
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		inf := pool[a]
		v, err := tr.Insert(inf.Pos, delaunay.NoVertex)
		if err != nil {
			continue // duplicate position: ignore the shadowed candidate
		}
		byVert[v] = inf
	}
	if selfV == delaunay.NoVertex {
		return nil
	}
	var out []proto.NodeInfo
	for _, v := range tr.Neighbors(selfV, nil) {
		out = append(out, byVert[v])
	}
	return out
}
