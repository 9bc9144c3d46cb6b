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
// departing object) by walking around its own cell with the exact
// predicates (cell.go), without building a triangulation; the pool
// provably contains the true new neighbour set under the paper's 2-hop
// knowledge assumption, and the node tests validate the resulting views
// against a reference Delaunay triangulation site-for-site.
//
// One deliberate divergence from Algorithms 1–5: routed operations travel
// greedily all the way to the region owner instead of stopping at the
// ⅓-distance condition and inserting fictive objects. The fictive-object
// machinery exists to prove termination bounds for point targets; greedy
// forwarding over Voronoi neighbours already terminates at the owner
// (every non-owner has a neighbour strictly closer to the target), and the
// owner inserts locally. The simulator (internal/core) follows the paper's
// stop condition and charges the fictive objects what the literal protocol
// costs.
package node

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"voronet/internal/geom"
	"voronet/internal/kleinberg"
	"voronet/internal/metrics"
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
// Locking discipline (see DESIGN.md): the node's view — vn with the
// two-hop lists, cn, long links, back, tombstones — is one immutable
// neighbourhood value (view.go) published through view. Readers, the
// greedy step among them, load the pointer and take no lock. View surgery
// (join admission, leave, departure repair, neighbour recomputation, BLRn
// rebalance) serialises on mu, which only writers take: lock hands the
// section a copy to edit and unlock publishes it. No lock is ever held
// across a transport send (TestNoLockHeldAcrossSends). The request table
// (inflight) locks itself and never nests with mu.
type Node struct {
	mu   sync.Mutex
	ep   transport.Endpoint
	self proto.NodeInfo
	cfg  Config
	rng  rand.PCG // long-link draws (chooseLRT), under mu

	// view is the published neighbourhood: set by newNode, then written
	// only by unlock.
	view atomic.Pointer[neighbourhood]

	// Object store: the records this node holds (as owner or replica) and
	// the one correlation table for the routed requests it originates —
	// PUT/GET/DELETE and queries.
	kv       *store.Local
	inflight *store.Inflight

	// names interns the addresses handle decodes (proto.Intern), so a
	// frame from a known peer allocates none.
	names proto.Intern

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

	// reg holds the node's instruments, declared in metrics.go and
	// reached by ID; Metrics() exposes it.
	reg *metrics.Registry
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
		kv:       store.NewLocal(),
		inflight: store.NewInflight(cfg.MaxInflight),
		reg:      nodeLayout.NewRegistry(),
	}
	n.rng.Seed(uint64(cfg.Seed), uint64(len(ep.Addr())))
	n.view.Store(&neighbourhood{tombs: &tombstones{}})
	return n
}

// Info returns the node's identity.
func (n *Node) Info() proto.NodeInfo { return n.self }

// Joined reports whether the node is part of an overlay.
func (n *Node) Joined() bool { return n.view.Load().joined }

// Neighbors returns a copy of vn, in address order.
func (n *Node) Neighbors() []proto.NodeInfo { return slices.Clone(n.view.Load().vn) }

// CloseNeighbors returns a copy of cn, in address order.
func (n *Node) CloseNeighbors() []proto.NodeInfo { return slices.Clone(n.view.Load().cn) }

// LongNeighbors returns a copy of the long-link view.
func (n *Node) LongNeighbors() []proto.NodeInfo { return slices.Clone(n.view.Load().longNbrs) }

// BackEntries returns a copy of BLRn.
func (n *Node) BackEntries() []proto.BackEntry { return slices.Clone(n.view.Load().back) }

// LongTargets returns the node's fixed long-link target points.
func (n *Node) LongTargets() []geom.Point { return slices.Clone(n.view.Load().longTargets) }

// Bootstrap declares this node the first object of a fresh overlay: it
// owns the whole attribute space and its long links point to itself.
func (n *Node) Bootstrap() error {
	if err := checkPosition(n.self.Pos); err != nil {
		return err
	}
	nb := n.lock()
	defer n.unlock(nb)
	if nb.joined {
		return ErrAlreadyJoined
	}
	nb.joined = true
	for j := 0; j < n.cfg.LongLinks; j++ {
		nb.longTargets = append(nb.longTargets, n.chooseLRT())
		nb.longNbrs = append(nb.longNbrs, n.self)
		nb.back = append(nb.back, proto.BackEntry{Origin: n.self, Link: j, Target: nb.longTargets[j]})
	}
	return nil
}

// Join asks the overlay member at `via` to admit this node: the join
// request is greedy-routed to the owner of the node's position, which
// performs AddVoronoiRegion and replies with the new view. Completion is
// asynchronous; poll Joined (the in-memory bus makes it synchronous under
// Drain).
func (n *Node) Join(via string) error {
	if n.Joined() {
		return ErrAlreadyJoined
	}
	if err := checkPosition(n.self.Pos); err != nil {
		return err
	}
	n.setJoining(true)
	err := n.send(via, &proto.Envelope{
		Type:    proto.KindRoute,
		Purpose: proto.PurposeJoin,
		Target:  n.self.Pos,
		Origin:  n.self,
	})
	if err != nil {
		n.setJoining(false) // no request left: nothing will grant this join
	}
	return err
}

// setJoining marks whether a join request of this node is outstanding.
func (n *Node) setJoining(on bool) {
	nb := n.lock()
	nb.joining = on && !nb.joined
	n.unlock(nb)
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

// Leave departs the overlay (§4.2.2): the node delegates its BLRn entries
// and its store records to the Voronoi neighbour closest to each target or
// key, then sends one KindLeave to every peer that holds it in a slot.
// Each recipient runs the departure repair, closing the hole from its own
// two-hop table.
func (n *Node) Leave() error {
	start := time.Now()
	nb := n.lock()
	if !nb.joined {
		n.unlock(nb)
		return ErrNotJoined
	}
	defer func() { n.reg.HistogramAt(leaveSeconds).Observe(time.Since(start).Seconds()) }()
	nb.joined = false

	type outMsg struct {
		to  string
		env *proto.Envelope
	}
	var out []outMsg
	// vn and cn are sorted by address: the resulting message sequence is
	// deterministic, as replayable chaos runs require.
	vns := nb.vn
	nb.lastVN = vns

	// Delegate BLRn entries to the Voronoi neighbour closest to each
	// target; after our region disappears that neighbour owns the target.
	for _, ref := range nb.back {
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
	nb.back = nil

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

	// Say farewell once to each peer that holds us: Voronoi and close
	// neighbours, and the holders of our long links, whose repair drops
	// our back entries.
	to := slices.Concat(vns, nb.cn, nb.longNbrs)
	slices.SortFunc(to, byAddr)
	for _, p := range slices.CompactFunc(to, sameAddr) {
		if p.Addr != "" && p.Addr != n.self.Addr {
			out = append(out, outMsg{p.Addr, &proto.Envelope{Type: proto.KindLeave, From: n.self}})
		}
	}
	nb.vn = nil
	nb.twoHop = nil
	nb.cn = nil
	nb.longNbrs = nil
	nb.longTargets = nil
	n.unlock(nb)

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
// around the node: radius first, then angle, as internal/core does. The
// caller holds mu.
func (n *Node) chooseLRT() geom.Point {
	rng := rand.New(&n.rng)
	r := kleinberg.SampleRadius(n.cfg.DMin, math.Sqrt2, 2, rng.Float64())
	theta := rng.Float64() * 2 * math.Pi
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
	n.reg.CounterAt(sentTotal).Inc()
	n.reg.CounterAt(sendByKind[env.Type]).Inc()
	n.reg.CounterAt(wireSentByKind[env.Type]).Add(uint64(len(b)))
	switch env.Type {
	case proto.KindReplicaSync, proto.KindSyncDigest, proto.KindSyncPull:
		// All replica-maintenance traffic, fingerprints and full records
		// alike, in one series.
		n.reg.CounterAt(antiEntropyBytesTotal).Add(uint64(len(b)))
	}
	if to == n.self.Addr {
		// Local delivery without the transport.
		n.reg.CounterAt(sendSelfTotal).Inc()
		n.handle(n.self.Addr, b)
		return nil
	}
	if err := n.ep.Send(to, b); err != nil {
		n.reg.CounterAt(sendErrorsTotal).Inc()
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
	n.reg.CounterAt(sendRetriesTotal).Inc()
	return n.send(to, env)
}

func (n *Node) String() string {
	return fmt.Sprintf("node(%s @ %.4f,%.4f)", n.self.Addr, n.self.Pos.X, n.self.Pos.Y)
}
