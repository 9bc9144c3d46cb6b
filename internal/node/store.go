package node

import (
	"errors"
	"slices"
	"sort"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// maxSyncBatchBytes bounds the record payload of one KindReplicaSync
// envelope so frames stay far below the codec's 1 MiB frame cap and the TCP
// frame cap whatever the batch size — large handoffs are chunked, never
// silently rejected by the decoder.
const maxSyncBatchBytes = 256 << 10

// chunkRecords splits recs into envelope-sized chunks (cumulative value
// bytes plus per-record overhead under maxSyncBatchBytes; always at least
// one record per chunk).
func chunkRecords(recs []proto.StoreRecord) [][]proto.StoreRecord {
	var out [][]proto.StoreRecord
	var cur []proto.StoreRecord
	size := 0
	for _, rec := range recs {
		sz := len(rec.Value) + 64
		if len(cur) > 0 && size+sz > maxSyncBatchBytes {
			out = append(out, cur)
			cur, size = nil, 0
		}
		cur = append(cur, rec)
		size += sz
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// The node face of the attribute-addressed object store (internal/store):
// Put / Get / Delete greedy-route the operation to the owner of the key's
// Voronoi region, which applies it to its local keyed store and replicates
// to the Voronoi neighbours closest to the key. Churn handoff rides on the
// same events that maintain the tessellation: integrateNewcomer hands the
// newcomer the records its region took over, Leave delegates every record
// to the neighbour closest to its key, and the departure repair
// re-replicates the records the survivor now owns.

// Put routes a PUT for key to its region owner and invokes cb (may be nil)
// with the acknowledgement or a timeout.
func (n *Node) Put(key geom.Point, value []byte, cb func(store.Reply)) error {
	return n.originate(proto.PurposeStorePut, key, value, cb, false)
}

// Get routes a GET for key to its region owner and invokes cb with the
// owner's answer: the live record, or an authoritative miss.
func (n *Node) Get(key geom.Point, cb func(store.Reply)) error {
	return n.originate(proto.PurposeStoreGet, key, nil, cb, false)
}

// Delete routes a DELETE for key to its region owner, which tombstones the
// record and replicates the tombstone.
func (n *Node) Delete(key geom.Point, cb func(store.Reply)) error {
	return n.originate(proto.PurposeStoreDelete, key, nil, cb, false)
}

// getTrace is Get with per-hop tracing: the request travels with Trace
// set, every node on the greedy path appends one proto.TraceHop, and
// the reply's Path holds the full route, ending with the answering
// owner ("owner").
func (n *Node) getTrace(key geom.Point, cb func(store.Reply)) error {
	return n.originate(proto.PurposeStoreGet, key, nil, cb, true)
}

// GetTraceSync is a traced Get blocking until the reply (or timeout).
func (n *Node) GetTraceSync(key geom.Point) (store.Reply, error) {
	return n.waitOp(func(cb func(store.Reply)) error { return n.getTrace(key, cb) })
}

// originate registers cb in the request table and routes one request for
// key from this node: a store operation or a query. cb (may be nil) fires
// exactly once — with the answer, an owner-side shed or a timeout — iff
// originate returns nil.
func (n *Node) originate(purpose proto.RoutedPurpose, key geom.Point, value []byte, cb func(store.Reply), trace bool) error {
	if purpose == proto.PurposeStorePut && len(value) > store.MaxValueBytes {
		// Reject loudly: an oversized envelope would be dropped by the
		// frame decoder and the operation would hang until its timeout.
		return store.ErrValueTooLarge
	}
	if !n.Joined() {
		return ErrNotJoined
	}
	// Origin-side admission: a draining node (mid-Shutdown) and an
	// origin already at its inflight budget (inflight.Add below, which
	// checks and takes a slot in one step) refuse synchronously —
	// shedding here costs nothing on the wire, and the caller learns
	// "retry later" in microseconds instead of a timeout later.
	if n.draining.Load() {
		n.reg.CounterAt(storeShedTotal).Inc()
		return store.ErrOverloaded
	}
	if cb == nil {
		cb = func(store.Reply) {}
	}
	// Observe the request's round trip and route length on the way back
	// to the caller; a timeout counts separately and stays out of the
	// latency book.
	start := time.Now()
	inner := cb
	instrumented := func(r store.Reply) {
		if r.Err == nil {
			n.reg.HistogramAt(routedSeconds[purpose]).Observe(time.Since(start).Seconds())
			n.reg.HistogramAt(routedHops[purpose]).Observe(float64(r.Hops))
		} else if !errors.Is(r.Err, store.ErrOverloaded) {
			// An owner-side shed came back fast and was already counted
			// in store_shed_total at the owner; only genuine timeouts
			// belong in the timeout counters.
			n.reg.CounterAt(routedTimeouts[purpose]).Inc()
		}
		inner(r)
	}
	id, ok := n.inflight.Add(instrumented, n.cfg.RequestTimeout)
	if !ok {
		n.reg.CounterAt(storeShedTotal).Inc()
		return store.ErrOverloaded
	}
	env := &proto.Envelope{
		Type:    proto.KindRoute,
		Purpose: purpose,
		Target:  key,
		Value:   value,
		Origin:  n.self,
		QueryID: id,
		Trace:   trace,
	}
	// Start routing at ourselves (we may already own the key's region).
	n.handle(n.self.Addr, proto.AppendEncode(nil, env))
	return nil
}

// PutSync is Put blocking until the acknowledgement (or timeout). Safe over
// the TCP transport; over the in-memory bus it must be called from a
// goroutine other than the one draining.
func (n *Node) PutSync(key geom.Point, value []byte) error {
	r, err := n.waitOp(func(cb func(store.Reply)) error { return n.Put(key, value, cb) })
	if err != nil {
		return err
	}
	return r.Err
}

// GetSync is Get blocking until the answer; it returns store.ErrNotFound
// for a missing or deleted key.
func (n *Node) GetSync(key geom.Point) ([]byte, error) {
	r, err := n.waitOp(func(cb func(store.Reply)) error { return n.Get(key, cb) })
	if err != nil {
		return nil, err
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if !r.Found {
		return nil, store.ErrNotFound
	}
	return r.Value, nil
}

// DeleteSync is Delete blocking until the acknowledgement; it returns
// store.ErrNotFound when the owner had no live record.
func (n *Node) DeleteSync(key geom.Point) error {
	r, err := n.waitOp(func(cb func(store.Reply)) error { return n.Delete(key, cb) })
	if err != nil {
		return err
	}
	if r.Err != nil {
		return r.Err
	}
	if !r.Found {
		return store.ErrNotFound
	}
	return nil
}

func (n *Node) waitOp(op func(cb func(store.Reply)) error) (store.Reply, error) {
	ch := make(chan store.Reply, 1)
	if err := op(func(r store.Reply) { ch <- r }); err != nil {
		return store.Reply{}, err
	}
	// The inflight timeout guarantees the callback fires.
	return <-ch, nil
}

// StoreLen returns the number of live records this node holds (as owner or
// replica).
func (n *Node) StoreLen() int { return n.kv.Len() }

// StoreSnapshot returns every record this node holds, tombstones included.
func (n *Node) StoreSnapshot() []proto.StoreRecord { return n.kv.Snapshot() }

// StoreLookup returns this node's local record for key, tombstones
// included (invariant checkers inspect replica placement without routing).
func (n *Node) StoreLookup(key geom.Point) (proto.StoreRecord, bool) { return n.kv.Lookup(key) }

// SyncReplicas is the anti-entropy sweep that restores placement after a
// fault epoch (a healed partition, a repaired crash): every record this
// node holds is pushed toward where it belongs. Records this node owns —
// per its local view, no Voronoi neighbour is closer to the key — go to
// their replica set, replaying any replica push lost to a fault. Records
// it merely holds go to the key's owner as a handoff: a crash can leave
// the new owner of a region without copies of its keys (the old owner's
// replica set need not contain the new owner), and only the surviving
// holders can close that gap. Recipients apply idempotently — newer
// version wins, equal versions keep the resident record — so repeated
// sweeps converge. It returns the number of records considered.
//
// The sweep is digest-first (see digest.go): each target gets a compact
// fingerprint list of what we would push and pulls only what it lacks,
// so a no-diff sweep costs a digest per target instead of the full
// record stream.
func (n *Node) SyncReplicas() int {
	plan, held := n.syncPlan()
	for _, t := range plan {
		// Best effort: an unreachable target is repaired by its own
		// departure notifications.
		_ = n.send(t.addr, &proto.Envelope{
			Type: proto.KindSyncDigest, From: n.self, Handoff: t.handoff,
			Digest: packFPs(recFPs(t.recs)),
		})
	}
	return held
}

// pushTo is one destination of a placement plan: the records due at addr,
// as replica refresh (handoff false) or as ownership hand-off. One address
// can appear twice in a plan, once per mode.
type pushTo struct {
	addr    string
	handoff bool
	recs    []proto.StoreRecord
}

// addPush files rec under (addr, handoff), keeping destinations and their
// records in first-seen order so derived message sequences are
// deterministic.
func addPush(plan []pushTo, addr string, handoff bool, rec proto.StoreRecord) []pushTo {
	for i := range plan {
		if plan[i].addr == addr && plan[i].handoff == handoff {
			plan[i].recs = append(plan[i].recs, rec)
			return plan
		}
	}
	return append(plan, pushTo{addr, handoff, []proto.StoreRecord{rec}})
}

// placementPlan is the store's placement rule applied to a view: a record
// self owns (ownerForKey) is due at the r members of vns nearest to its
// key (store.Closest) as replica refresh; a record another member owns is
// due at that member as a hand-off, and the owner re-replicates whatever
// changed its state. owned vouches that self owns every record — a routed
// operation executed here, a hand-off just received — and skips the
// ownership test. vns must be address-sorted (ties rank by address, so
// every node computes the same set) and hold no peer that must not be
// sent to. Replica destinations come first, then hand-offs.
func placementPlan(self proto.NodeInfo, vns []proto.NodeInfo, r int, recs []proto.StoreRecord, owned bool) []pushTo {
	var replicas, handoffs []pushTo
	var buf [8]int
	rank, at := buf[:0], infoPos(vns)
	for _, rec := range recs {
		if !owned {
			if owner, isSelf := ownerForKey(self, vns, rec.Key); !isSelf {
				handoffs = addPush(handoffs, owner.Addr, true, rec)
				continue
			}
		}
		rank = store.Closest(rank, r, len(vns), rec.Key, at)
		for _, i := range rank {
			replicas = addPush(replicas, vns[i].Addr, false, rec)
		}
	}
	return append(replicas, handoffs...)
}

// sendPushes streams a plan's records, one KindReplicaSync per
// envelope-sized chunk. Best effort: an unreachable destination is
// repaired by its own departure notifications. Caller must not hold n.mu.
func (n *Node) sendPushes(plan []pushTo) {
	for _, t := range plan {
		for _, chunk := range chunkRecords(t.recs) {
			_ = n.send(t.addr, &proto.Envelope{
				Type: proto.KindReplicaSync, From: n.self, Records: chunk, Handoff: t.handoff,
			})
		}
	}
}

// infoPos adapts a view list to store.Nearest / store.Closest.
func infoPos(vns []proto.NodeInfo) func(int) (geom.Point, bool) {
	return func(i int) (geom.Point, bool) { return vns[i].Pos, true }
}

// without returns the address-sorted vns minus the peer at addr: vns
// itself when it holds no such peer, else a copy.
func without(vns []proto.NodeInfo, addr string) []proto.NodeInfo {
	if i, ok := find(vns, addr); ok {
		return slices.Concat(vns[:i], vns[i+1:])
	}
	return vns
}

// nearestOf returns the member of vns nearest to key — ties to the lower
// index, the lower address in a view list — or false when there is none.
func nearestOf(vns []proto.NodeInfo, key geom.Point) (proto.NodeInfo, bool) {
	i := store.Nearest(len(vns), key, infoPos(vns))
	if i < 0 {
		return proto.NodeInfo{}, false
	}
	return vns[i], true
}

// ownerForKey returns the owner of key per this view — the nearest of
// self and vns, self winning its ties and the address-sorted vns theirs by
// the lower address — and whether it is self.
func ownerForKey(self proto.NodeInfo, vns []proto.NodeInfo, key geom.Point) (proto.NodeInfo, bool) {
	i := store.Nearest(1+len(vns), key, func(i int) (geom.Point, bool) {
		if i == 0 {
			return self.Pos, true
		}
		return vns[i-1].Pos, true
	})
	if i <= 0 {
		return self, true
	}
	return vns[i-1], false
}

// handleStoreOwned executes a routed store operation at the owner of the
// key's region (no neighbour is closer to the key). It is the only place
// a PUT, GET or DELETE is answered. A write is acked before its replica
// push lands; no replica answers a GET, so a read issued after the ack
// still returns the acked version (TestGetAfterAckedPutReturnsIt).
func (n *Node) handleStoreOwned(env *proto.Envelope) {
	// env.Path already ends with this node's terminal hop (handleRoute
	// appended it before dispatching here); the reply carries it home.
	reply := &proto.Envelope{
		Type: proto.KindStoreReply, From: n.self, QueryID: env.QueryID,
		Hops: env.Hops, Path: env.Path,
	}
	// Owner-side admission: bound how many store ops execute here
	// concurrently. Beyond the budget the op is refused — fast, explicit,
	// before any state changed — and the origin maps Shed back to
	// store.ErrOverloaded. Shedding load the origin gate could not see
	// (many origins converging on one hot owner) is exactly this path.
	if max := int64(n.cfg.MaxInflight); max > 0 {
		if n.storeBusy.Add(1) > max {
			n.storeBusy.Add(-1)
			n.reg.CounterAt(storeShedTotal).Inc()
			reply.Shed = true
			n.replyToOrigin(env.Origin.Addr, reply)
			return
		}
		defer n.storeBusy.Add(-1)
	}
	switch env.Purpose {
	case proto.PurposeStorePut:
		rec := n.kv.Put(env.Target, env.Value)
		// Log before the ack: once the origin sees Found, the record
		// survives a crash of this process (wal.SyncAlways).
		n.walAppend(rec)
		n.replicateRecords([]proto.StoreRecord{rec}, "")
		reply.Found = true
		reply.Version = rec.Version
	case proto.PurposeStoreGet:
		if rec, ok := n.kv.Get(env.Target); ok {
			reply.Found = true
			reply.Value = rec.Value
			reply.Version = rec.Version
		}
	case proto.PurposeStoreDelete:
		if tomb, ok := n.kv.Delete(env.Target); ok {
			n.walAppend(tomb)
			n.replicateRecords([]proto.StoreRecord{tomb}, "")
			reply.Found = true
			reply.Version = tomb.Version
		}
	}
	n.replyToOrigin(env.Origin.Addr, reply)
}

// replyToOrigin delivers a reply (store ack/answer or query answer) to
// the requesting origin. A failed reply used to vanish silently — the
// send error was dropped and the origin just timed out. It is now
// accounted (send() already counts it in node_send_errors_total) and a
// structural failure triggers departure repair: ErrUnknownPeer means the
// origin detached from the bus (crashed), ErrClosed that no frame can
// ever be delivered again — in both cases the views around the origin
// are worth repairing now rather than at the next routed operation
// through it. Transient TCP failures already got their one retry inside
// sendWithRetry; repairing on them too would tombstone live peers over a
// dropped connection, so they are only counted.
func (n *Node) replyToOrigin(origin string, reply *proto.Envelope) {
	err := n.sendWithRetry(origin, reply)
	if err == nil {
		return
	}
	if errors.Is(err, transport.ErrUnknownPeer) || errors.Is(err, transport.ErrClosed) {
		n.NotifyDeparted(origin)
	}
}

// handleReplicaSync merges pushed records; a handoff makes this node the
// new owner of the carried keys, so it restores the replication factor by
// pushing them to its own neighbourhood. A handoff that arrives after
// this node has itself left is re-delegated, never absorbed: applying it
// to a cleared store on a departed node would strand the records (two
// adjacent nodes leaving concurrently hand their records to each other).
// A joining node has not left: it applies what it gets and re-replicates
// a handoff once its grant installs the view (holdHandoff).
func (n *Node) handleReplicaSync(env *proto.Envelope) {
	held := false
	if nb := n.view.Load(); !nb.joined {
		switch {
		case nb.joining:
			held = env.Handoff && n.holdHandoff(env)
		case env.Handoff:
			n.redelegateHandoff(env, n.self, nb.lastVN)
			return
		default:
			// A plain replica refresh to a departed node is stale: drop.
			return
		}
	}
	// Only records that actually changed local state are re-replicated:
	// overlapping handoff batches from several affected neighbours would
	// otherwise each trigger a redundant replication round.
	var changed []proto.StoreRecord
	for _, rec := range env.Records {
		if n.kv.Apply(rec) {
			changed = append(changed, rec)
		}
	}
	// Replica applies are logged too: a crashed replica recovers its
	// copies from its own WAL, so any single surviving log in a key's
	// replica set can restore every acked write.
	n.walAppend(changed...)
	if env.Handoff && len(changed) > 0 && !held {
		// Exclude the sender: a leaving node hands off and must not be
		// re-replicated to.
		n.replicateRecords(changed, env.From.Addr)
	}
}

// holdHandoff keeps a handoff that reached this node before its grant
// for handleJoinGrant to re-replicate, and reports false when the grant
// has landed meanwhile and the caller re-replicates as usual.
func (n *Node) holdHandoff(env *proto.Envelope) bool {
	nb := n.lock()
	joining := nb.joining
	if joining {
		nb.held = append(nb.held, heldHandoff{env.From.Addr, env.Records})
	}
	n.unlock(nb)
	return joining
}

// redelegateHandoff forwards a handoff that reached this node after it
// left: each record travels to the nearest pre-departure neighbour not
// known to have departed. The exclusion set accumulates along the chain
// (every hop adds itself to the farewell Departed list, and a
// transport-unreachable candidate — a silent crash — joins it locally),
// so concurrent leavers cannot ping-pong a batch and the chain terminates
// at a live node — or, when every candidate is gone, drops the records
// exactly as if the whole group had crashed.
func (n *Node) redelegateHandoff(env *proto.Envelope, self proto.NodeInfo, lastVN []proto.NodeInfo) {
	// dead excludes candidates from selection; gone is the subset that is
	// confirmed departed and safe to broadcast. The original sender is
	// only excluded locally: it may be a live node pushing with a stale
	// view, and putting it on the wire Departed list would tombstone it
	// across the overlay.
	dead := map[string]bool{self.Addr: true, env.From.Addr: true}
	gone := map[string]bool{self.Addr: true}
	goneGen := map[string]uint64{self.Addr: self.Gen}
	for i, d := range env.Departed {
		dead[d] = true
		gone[d] = true
		if i < len(env.DepartedGen) {
			goneGen[d] = env.DepartedGen[i]
		}
	}
	addrGen := make(map[string]uint64, len(lastVN))
	for _, v := range lastVN {
		addrGen[v.Addr] = v.Gen
	}
	alive := func(i int) (geom.Point, bool) { return lastVN[i].Pos, !dead[lastVN[i].Addr] }
	pending := env.Records
	for len(pending) > 0 {
		depart := make([]string, 0, len(gone))
		for a := range gone {
			depart = append(depart, a)
		}
		sort.Strings(depart)
		var departGen []uint64
		for i, a := range depart {
			if g := goneGen[a]; g > 0 {
				if departGen == nil {
					departGen = make([]uint64, len(depart))
				}
				departGen[i] = g
			}
		}
		var plan []pushTo
		for _, rec := range pending {
			// No surviving candidate: the record dies with us.
			if i := store.Nearest(len(lastVN), rec.Key, alive); i >= 0 {
				plan = addPush(plan, lastVN[i].Addr, true, rec)
			}
		}
		pending = nil
		for _, t := range plan {
			addr, failed := t.addr, false
			for _, chunk := range chunkRecords(t.recs) {
				if err := n.send(addr, &proto.Envelope{
					Type: proto.KindReplicaSync, From: self, Records: chunk,
					Handoff: true, Departed: depart, DepartedGen: departGen,
				}); err != nil {
					failed = true
					break // structural failure: further chunks fail too
				}
			}
			if failed {
				// The candidate crashed without a farewell: exclude it
				// and retry the batch with the next survivor (duplicate
				// chunks that did land are applied idempotently).
				dead[addr] = true
				gone[addr] = true
				goneGen[addr] = addrGen[addr]
				pending = append(pending, t.recs...)
			}
		}
	}
}

// replicateRecords pushes records this node owns to their replica set —
// for each, the cfg.Replication Voronoi neighbours nearest to its key —
// one batch per distinct target. exclude (may be empty) names a peer to
// leave out.
func (n *Node) replicateRecords(recs []proto.StoreRecord, exclude string) {
	vns := without(n.view.Load().vn, exclude)
	n.sendPushes(placementPlan(n.self, vns, n.cfg.Replication, recs, true))
}

// storeHandoffToNewcomer collects the records whose key now falls in the
// newcomer's region (strictly closer to it than to us) for a handoff push.
// We keep our copy: the shrunken cell's node remains a natural replica.
func (n *Node) storeHandoffToNewcomer(j proto.NodeInfo) []proto.StoreRecord {
	return n.kv.Collect(func(k geom.Point) bool {
		return geom.Dist2(j.Pos, k) < geom.Dist2(n.self.Pos, k)
	})
}

// repairDepartedRecords restores store placement after the peer at gone
// departed without a handoff: every record gone was strictly closer to
// than we are lost its owner-side copy. Records we now own are
// re-replicated from here; records a surviving neighbour owns are pushed
// to it as a handoff — the new owner may hold nothing at all, since the
// old owner's replica set need not contain it, and only surviving holders
// can close that gap. vns must already exclude the departed peer; caller
// must not hold n.mu.
func (n *Node) repairDepartedRecords(self, gone proto.NodeInfo, vns []proto.NodeInfo) {
	affected := n.kv.Collect(func(k geom.Point) bool {
		return geom.Dist2(gone.Pos, k) < geom.Dist2(self.Pos, k)
	})
	n.sendPushes(placementPlan(self, vns, n.cfg.Replication, affected, false))
}
