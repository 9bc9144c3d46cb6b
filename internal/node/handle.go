package node

import (
	"slices"
	"sort"
	"strings"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
)

// handle dispatches one inbound protocol message. Handlers may run
// concurrently (the TCP transport delivers independent peers' messages in
// parallel; per-peer order is preserved): every access to shared state
// goes through n.mu — read paths under the read lock, view surgery under
// the write lock — or through the internally-locked store tables.
func (n *Node) handle(from string, payload []byte) {
	env, err := proto.Decode(payload)
	if err != nil {
		n.nm.decodeErrs.Inc()
		return // malformed frame: drop
	}
	if env.Type >= 0 && env.Type < proto.KindCount {
		n.nm.wireRecvByKind[env.Type].Add(uint64(len(payload)))
	}
	n.deliver(env)
}

// deliver processes one decoded envelope (split from handle so tests can
// inject envelopes that the wire decoder would reject, proving the
// defence-in-depth guards below hold on their own).
func (n *Node) deliver(env *proto.Envelope) {
	// Decode refuses unknown and retired kinds; one that got past it has
	// no metric slot and no handler, and is dropped before it can touch
	// the tombstones.
	if env.Type < 0 || env.Type >= proto.KindCount || n.nm.recvByKind[env.Type] == nil {
		return
	}
	n.nm.recvByKind[env.Type].Inc()
	// Tombstone bookkeeping needs the write lock, but the overwhelmingly
	// common case — no departures advertised, sender not tombstoned — can
	// establish under the read lock that there is nothing to do.
	needTombWork := len(env.Departed) > 0
	if !needTombWork {
		n.mu.RLock()
		_, needTombWork = n.tombs[env.From.Addr]
		n.mu.RUnlock()
	}
	if needTombWork {
		n.mu.Lock()
		// Merge the sender's tombstones: gossip must not resurrect the
		// dead. Each entry kills one incarnation (Departed[i] at
		// DepartedGen[i], generation 0 when absent) — if we can see a
		// newer incarnation of the address alive in our views, the news
		// predates its durable restart and is ignored.
		selfDeparted := false
		for i, d := range env.Departed {
			if d == env.From.Addr {
				selfDeparted = true
			}
			if d == n.self.Addr {
				continue
			}
			var g uint64
			if i < len(env.DepartedGen) {
				g = env.DepartedGen[i]
			}
			if v, ok := n.vn[d]; ok && v.Gen > g {
				continue
			}
			if v, ok := n.cn[d]; ok && v.Gen > g {
				continue
			}
			n.tombstoneLocked(d, g)
		}
		// A message from a tombstoned address proves it is alive again
		// (rejoined at the same address): lift the tombstone — unless the
		// sender lists itself as departed (a farewell message from a node
		// on its way out), or the message is a straggler from the dead
		// incarnation itself (sender generation below the one that died).
		lifted := false
		if g, dead := n.tombs[env.From.Addr]; dead && env.From.Gen >= g &&
			!selfDeparted && env.Type != proto.KindLeave && env.Type != proto.KindLeaveCN {
			n.liftTombLocked(env.From.Addr)
			lifted = true
		}
		n.purgeTombstonedLocked()
		n.mu.Unlock()
		if lifted {
			// Lifting alone is not enough: while the address was
			// tombstoned, every piece of gossip naming it (SetNeighbors,
			// CNAdd candidates, view recomputes) was dropped, so nothing
			// downstream will ever put the rejoined node back into our
			// view. Its first direct message carries its identity —
			// integrate it as a newcomer and recompute now.
			n.integrateNewcomer(env.From)
		}
	}

	switch env.Type {
	case proto.KindRoute:
		n.handleRoute(env)
	case proto.KindJoinGrant:
		n.handleJoinGrant(env)
	case proto.KindSetNeighbors:
		n.handleSetNeighbors(env)
	case proto.KindNeighborList:
		n.handleNeighborList(env)
	case proto.KindCNAdd:
		n.handleCNAdd(env)
	case proto.KindCNRemove:
		n.mu.Lock()
		delete(n.cn, env.From.Addr)
		n.mu.Unlock()
	case proto.KindLeaveCN:
		n.mu.Lock()
		delete(n.cn, env.From.Addr)
		n.tombstoneLocked(env.From.Addr, env.From.Gen)
		n.purgeTombstonedLocked()
		n.mu.Unlock()
	case proto.KindLongLinkGrant:
		n.mu.Lock()
		// The lower bound is defence in depth: proto.Decode rejects
		// negative Link fields, but a slice index from the wire must
		// never be trusted on one layer alone (a Link of -1 panicked the
		// node before the guard).
		if env.Link >= 0 && env.Link < len(n.longNbrs) {
			n.longNbrs[env.Link] = env.From
		}
		n.mu.Unlock()
	case proto.KindLongLinkUpdate:
		n.mu.Lock()
		if env.Link >= 0 && env.Link < len(n.longNbrs) {
			n.longNbrs[env.Link] = env.Granter
		}
		n.mu.Unlock()
	case proto.KindBackTransfer:
		n.mu.Lock()
		if !n.joined {
			// We have left but a reordered transfer still reached us.
			// If the sender has also departed (its farewell marker lists
			// itself), bouncing would ping-pong between two dead nodes
			// forever: drop the entries — the origins' long links repair
			// through the routed re-grant path when they next touch a
			// dead holder. Otherwise bounce so a live node re-places
			// them; our farewell marker (Departed contains us) tombstones
			// us at the recipient, whose rebalance then cannot choose us.
			self := n.self
			n.mu.Unlock()
			fromDeparted := false
			for _, d := range env.Departed {
				if d == env.From.Addr {
					fromDeparted = true
					break
				}
			}
			if !fromDeparted {
				var fg []uint64
				if self.Gen > 0 {
					fg = []uint64{self.Gen}
				}
				_ = n.send(env.From.Addr, &proto.Envelope{
					Type: proto.KindBackTransfer, From: self, Back: env.Back,
					Departed: []string{self.Addr}, DepartedGen: fg,
				})
			}
			return
		}
		n.back = append(n.back, env.Back...)
		// The sender believed we are closer to the targets than it is; a
		// neighbour of ours may be closer still. Re-placing forwards the
		// entry along strictly decreasing distance, so the chain
		// terminates at the true owner. The sender is excluded: a leaving
		// node delegates its entries while it still sits in our view, and
		// bouncing one back would strand it on the departed node.
		moves := n.backRebalanceLocked(env.From.Addr)
		n.mu.Unlock()
		n.sendBackMoves(moves)
	case proto.KindBackWithdraw:
		n.mu.Lock()
		for i, ref := range n.back {
			if ref.Origin.Addr == env.From.Addr && ref.Link == env.Link {
				n.back[i] = n.back[len(n.back)-1]
				n.back = n.back[:len(n.back)-1]
				break
			}
		}
		n.mu.Unlock()
	case proto.KindLeave:
		n.handleLeave(env)
	case proto.KindQueryAnswer, proto.KindStoreReply:
		if !n.inflight.Resolve(env.QueryID, store.ReplyOf(env)) {
			// The answer outlived its request: the deadline reaped it.
			n.nm.lateAnswers.Inc()
		}
	case proto.KindReplicaSync:
		n.handleReplicaSync(env)
	case proto.KindSyncDigest:
		n.handleSyncDigest(env)
	case proto.KindSyncPull:
		n.handleSyncPull(env)
	}
}

// handleRoute performs one greedy step of Algorithm 5's framework, or
// handles the routed purpose locally when this node owns the target
// region (no neighbour is closer). The whole forwarding path is read-only
// over the view — concurrent routed messages scan under the shared read
// lock and never wait on each other.
func (n *Node) handleRoute(env *proto.Envelope) {
	var hopStart time.Time
	if env.Trace {
		hopStart = time.Now()
		n.nm.traced.Inc()
	}
	// A GET is answered by the first node on the greedy path holding the
	// key — owner or replica; a tombstone answers "deleted" with equal
	// authority. The rank check keeps nodes that dropped out of the key's
	// replica set under churn from serving stale versions.
	if env.Purpose == proto.PurposeStoreGet && n.Joined() {
		if rec, ok := n.kv.Lookup(env.Target); ok && n.inReplicaSet(env.Target) {
			if env.Trace {
				hit := *env
				hit.Path = proto.AppendHop(env.Path, n.traceHop("replica", hopStart))
				n.replyStoreHit(&hit, rec)
				return
			}
			n.replyStoreHit(env, rec)
			return
		}
	}
	n.mu.RLock()
	if !n.joined {
		// Not joined, or a concurrent Leave completed while the replica
		// lookup ran without the lock.
		n.mu.RUnlock()
		return
	}
	best := n.self
	bestD := geom.Dist2(n.self.Pos, env.Target)
	// bestRule names the candidate class the winning next hop came from —
	// the per-hop trace's routing rule ("owner" when no candidate beats
	// self).
	bestRule := "owner"
	// A join must be admitted by the current owner of the joiner's
	// region — never routed to the joiner itself, which is not in the
	// overlay yet and would drop it. The joiner can appear in views
	// mid-join when it is a durable restart: the tombstone lift above
	// integrated it the moment its join request arrived, and its target
	// (its own position) is at distance zero from itself.
	skip := ""
	if env.Purpose == proto.PurposeJoin {
		skip = env.Origin.Addr
	}
	consider := func(c proto.NodeInfo, class string) {
		if c.Addr == "" || c.Addr == n.self.Addr || c.Addr == skip || n.deadLocked(c) {
			return
		}
		d := geom.Dist2(c.Pos, env.Target)
		// Strictly closer wins; among equally close candidates the lowest
		// address wins (ties with self keep self: the owner stays put).
		// The tie-break makes the choice independent of map iteration
		// order, a requirement for replayable chaos transcripts.
		if d < bestD || (d == bestD && best.Addr != n.self.Addr && c.Addr < best.Addr) {
			best, bestD = c, d
			bestRule = class
		}
	}
	// The route cache is consulted before the view scan, at the origin
	// only (env.Hops == 0): origins are where answers populate it, so
	// intermediate hops would only ever miss. The cached owner is just
	// one more candidate under the strictly-closer rule — a stale entry
	// loses the scan or fails the send (repairing the views), it cannot
	// misroute or serve a stale owner.
	if n.cache != nil && env.Hops == 0 {
		if owner, ok := n.cache.Lookup(env.Target); ok {
			n.nm.cacheHits.Inc()
			consider(owner, "cache")
		} else {
			n.nm.cacheMisses.Inc()
		}
	}
	for _, v := range n.vn {
		consider(v, "vn")
	}
	for _, c := range n.cn {
		consider(c, "cn")
	}
	for _, l := range n.longNbrs {
		consider(l, "long")
	}
	n.mu.RUnlock()

	if best.Addr != n.self.Addr {
		fwd := *env
		fwd.Hops++
		fwd.From = n.self
		if fwd.Trace {
			// Copy-append: fwd shares env's Path backing array, and the
			// departure-repair retry below re-traces from env.
			fwd.Path = proto.AppendHop(env.Path, n.traceHop(bestRule, hopStart))
		}
		if err := n.sendWithRetry(best.Addr, &fwd); err != nil {
			// The chosen next hop is unreachable at the transport level —
			// it crashed without a leave announcement. Repair the views
			// around it and retry the step with what remains; each retry
			// tombstones one address, so the recursion terminates.
			n.NotifyDeparted(best.Addr)
			n.handleRoute(env)
		}
		return
	}

	// We own the target's region; a traced envelope records the terminal
	// hop and the answer carries the whole path back to the origin.
	if env.Trace {
		owned := *env
		owned.Path = proto.AppendHop(env.Path, n.traceHop("owner", hopStart))
		env = &owned
	}
	switch env.Purpose {
	case proto.PurposeJoin:
		n.admitJoin(env)
	case proto.PurposeLongLink:
		n.mu.Lock()
		n.back = append(n.back, proto.BackEntry{Origin: env.Origin, Link: env.Link, Target: env.Target})
		n.mu.Unlock()
		n.send(env.Origin.Addr, &proto.Envelope{
			Type: proto.KindLongLinkGrant, From: n.self, Link: env.Link, Hops: env.Hops,
		})
	case proto.PurposeQuery:
		n.replyToOrigin(env.Origin.Addr, &proto.Envelope{
			Type: proto.KindQueryAnswer, From: n.self, QueryID: env.QueryID,
			Hops: env.Hops, Path: env.Path,
		})
	case proto.PurposeStorePut, proto.PurposeStoreGet, proto.PurposeStoreDelete:
		n.handleStoreOwned(env)
	}
}

// traceHop builds this node's entry for a traced envelope's path. The
// latency is the wall time the hop spent in handleRoute; under the
// serial simnet the (Addr, Rule) sequence is deterministic, Nanos is not.
func (n *Node) traceHop(rule string, start time.Time) proto.TraceHop {
	return proto.TraceHop{Addr: n.self.Addr, Rule: rule, Nanos: time.Since(start).Nanoseconds()}
}

// admitJoin is AddVoronoiRegion (§4.2.1) executed at the owner of the
// joining object's region: recompute the local tessellation with the new
// object, grant the joiner its view, and tell every affected neighbour to
// insert the newcomer and recompute.
func (n *Node) admitJoin(env *proto.Envelope) {
	start := time.Now()
	defer func() { n.nm.joinAdmitTime.Observe(time.Since(start).Seconds()) }()
	j := env.Origin

	// The read lock suffices: the joiner's neighbour list is computed from
	// the candidate pool (us, our neighbours, their neighbours) and nothing
	// of ours is written.
	n.mu.RLock()
	pool := n.candidatePool()
	pool[j.Addr] = j
	newVN := miniNeighbors(j, pool)

	// Bootstrap two-hop knowledge for the joiner from what we know.
	var records []proto.NeighborRecord
	for _, y := range newVN {
		switch {
		case y.Addr == n.self.Addr:
			records = append(records, proto.NeighborRecord{Node: n.self, VN: n.vnList()})
		default:
			if lst, ok := n.twoHop[y.Addr]; ok {
				records = append(records, proto.NeighborRecord{Node: y, VN: lst})
			}
		}
	}
	n.mu.RUnlock()

	// Grant the joiner its region and view.
	n.send(j.Addr, &proto.Envelope{
		Type:      proto.KindJoinGrant,
		From:      n.self,
		Neighbors: newVN,
		TwoHop:    records,
		Hops:      env.Hops,
	})
	// Tell each affected node (including ourselves) to take the newcomer
	// into account and recompute its own neighbourhood.
	for _, y := range newVN {
		if y.Addr == n.self.Addr {
			continue
		}
		n.send(y.Addr, &proto.Envelope{Type: proto.KindSetNeighbors, From: n.self, Origin: j})
	}
	n.integrateNewcomer(j)
}

// handleJoinGrant installs the view granted by the region owner and
// finishes the join: announce our neighbour list, then establish the long
// links (Algorithm 2).
func (n *Node) handleJoinGrant(env *proto.Envelope) {
	start := time.Now()
	n.mu.Lock()
	if n.joined {
		n.mu.Unlock()
		return
	}
	defer func() { n.nm.joinGrantTime.Observe(time.Since(start).Seconds()) }()
	n.joined = true
	for _, v := range env.Neighbors {
		n.vn[v.Addr] = v
	}
	for _, rec := range env.TwoHop {
		n.twoHop[rec.Node.Addr] = rec.VN
	}
	targets := make([]geom.Point, 0, n.cfg.LongLinks)
	for jdx := 0; jdx < n.cfg.LongLinks; jdx++ {
		targets = append(targets, n.chooseLRT())
	}
	n.longTargets = targets
	n.longNbrs = make([]proto.NodeInfo, len(targets))
	vns := n.vnList()
	dep, depGen := n.departedLocked()
	n.mu.Unlock()

	// Freshness: our neighbours need our list in their two-hop tables.
	for _, v := range vns {
		n.send(v.Addr, &proto.Envelope{Type: proto.KindNeighborList, From: n.self, Neighbors: vns, Departed: dep, DepartedGen: depGen})
	}
	// Long links: route each search starting at ourselves.
	for jdx, tgt := range targets {
		env := &proto.Envelope{
			Type:    proto.KindRoute,
			Purpose: proto.PurposeLongLink,
			Target:  tgt,
			Origin:  n.self,
			Link:    jdx,
		}
		n.handle(n.self.Addr, proto.AppendEncode(nil, env))
	}
}

// handleSetNeighbors: a newcomer (env.Origin) entered our region's
// neighbourhood; integrate it and recompute.
func (n *Node) handleSetNeighbors(env *proto.Envelope) {
	n.integrateNewcomer(env.Origin)
}

// integrateNewcomer recomputes vn with the newcomer in the candidate pool,
// refreshes neighbours, and performs the close-neighbour and BLRn
// exchanges of AddVoronoiRegion.
func (n *Node) integrateNewcomer(j proto.NodeInfo) {
	n.mu.Lock()
	if !n.joined || j.Addr == n.self.Addr {
		n.mu.Unlock()
		return
	}
	if g, dead := n.tombs[j.Addr]; dead {
		if j.Gen <= g {
			// Stale gossip about a dead incarnation: integrating it would
			// resurrect a crashed node until the next purge killed it
			// again. Only a strictly newer generation — a durably
			// restarted successor — overrides a tombstone here.
			n.mu.Unlock()
			return
		}
		n.liftTombLocked(j.Addr)
	}
	pool := n.candidatePool()
	pool[j.Addr] = j
	changed := n.recomputeLocked(pool)
	// Cache coherence on AddVoronoiRegion: regions the newcomer is now
	// strictly closer to changed hands, so their cached owners are stale.
	if n.cache != nil {
		if dropped := n.cache.invalidateTakenOver(j.Pos); dropped > 0 {
			n.nm.cacheInvalidations.Add(uint64(dropped))
		}
	}

	// Lemma 1 exchange: send the newcomer every close-neighbour candidate
	// we can see (ourselves and our cn entries within dmin of it).
	var cand []proto.NodeInfo
	if geom.Dist(n.self.Pos, j.Pos) <= n.cfg.DMin {
		cand = append(cand, n.self)
	}
	for _, c := range n.cn {
		if geom.Dist(c.Pos, j.Pos) <= n.cfg.DMin {
			cand = append(cand, c)
		}
	}
	sort.Slice(cand, func(i, k int) bool { return cand[i].Addr < cand[k].Addr })
	// BLRn handover: entries some neighbour (usually the newcomer) is now
	// strictly closer to move to their new owner. The newcomer case of
	// §4.2.1 is subsumed: if j took over a target's region it is either a
	// neighbour of ours or reachable through one, and the transfer chain
	// strictly approaches the target.
	moves := n.backRebalanceLocked("")
	var vns []proto.NodeInfo
	if changed {
		vns = n.vnList()
	}
	dep, depGen := n.departedLocked()
	n.mu.Unlock()

	for _, v := range vns {
		n.send(v.Addr, &proto.Envelope{Type: proto.KindNeighborList, From: n.self, Neighbors: vns, Departed: dep, DepartedGen: depGen})
	}
	if len(cand) > 0 {
		n.send(j.Addr, &proto.Envelope{Type: proto.KindCNAdd, From: n.self, CloseCand: cand})
	}
	n.sendBackMoves(moves)
	// Store handoff: the records whose key now lies in the newcomer's
	// region migrate to it (the storage face of AddVoronoiRegion). We keep
	// our copy as a replica; the newcomer re-replicates.
	n.sendPushes([]pushTo{{j.Addr, true, n.storeHandoffToNewcomer(j)}})
}

// handleNeighborList refreshes the sender's entry in the two-hop table and
// recomputes our own neighbourhood from the enriched pool. This is the
// gossip step that makes views converge when a tessellation change reaches
// past the responsible node's two-hop horizon: each refresh can surface a
// true neighbour we had not seen (Delaunay edges present globally are
// present in any candidate subset, so the local recompute can only gain
// correct edges as the pool grows). A change in our own list is broadcast
// in turn; broadcasts stop as soon as views are exact, so the exchange
// terminates.
func (n *Node) handleNeighborList(env *proto.Envelope) {
	mentionsUs := false
	for _, v := range env.Neighbors {
		if v.Addr == n.self.Addr {
			mentionsUs = true
			break
		}
	}
	n.mu.Lock()
	if !n.joined {
		n.mu.Unlock()
		return
	}
	_, isNbr := n.vn[env.From.Addr]
	if !isNbr && !mentionsUs {
		n.mu.Unlock()
		return
	}
	n.twoHop[env.From.Addr] = env.Neighbors
	pool := n.candidatePool()
	pool[env.From.Addr] = env.From
	changed := n.recomputeLocked(pool)
	_, nowNbr := n.vn[env.From.Addr]
	var vns []proto.NodeInfo
	var moves []backMove
	if changed {
		vns = n.vnList()
		// A sharpened view can reveal a neighbour closer to one of our
		// BLRn targets: re-place those entries at the new owner.
		moves = n.backRebalanceLocked("")
	}
	// Asymmetry repair: the sender believes we are its neighbour but our
	// richer pool disagrees (its view holds a false edge). Send it our
	// list: it carries the witness that invalidates the edge, so the
	// sender's next recompute drops us and views converge.
	var rebut []proto.NodeInfo
	if mentionsUs && !nowNbr {
		rebut = n.vnList()
	}
	dep, depGen := n.departedLocked()
	n.mu.Unlock()
	for _, v := range vns {
		n.send(v.Addr, &proto.Envelope{Type: proto.KindNeighborList, From: n.self, Neighbors: vns, Departed: dep, DepartedGen: depGen})
	}
	if rebut != nil {
		n.send(env.From.Addr, &proto.Envelope{Type: proto.KindNeighborList, From: n.self, Neighbors: rebut, Departed: dep, DepartedGen: depGen})
	}
	n.sendBackMoves(moves)
}

// handleCNAdd installs close-neighbour candidates, replying so the
// relation stays symmetric. Replies are sent only for newly added
// entries, which makes the exchange converge.
func (n *Node) handleCNAdd(env *proto.Envelope) {
	n.mu.Lock()
	var replyTo []proto.NodeInfo
	for _, c := range env.CloseCand {
		if c.Addr == n.self.Addr {
			continue
		}
		// A candidate list computed before its sender learned of a crash
		// can still carry the dead address; since the preamble no longer
		// purges on every message (only when tombstone work arrives),
		// nothing downstream would evict it.
		if n.deadLocked(c) {
			continue
		}
		if geom.Dist(c.Pos, n.self.Pos) > n.cfg.DMin {
			continue
		}
		if _, known := n.cn[c.Addr]; known {
			continue
		}
		n.cn[c.Addr] = c
		replyTo = append(replyTo, c)
	}
	self := n.self
	n.mu.Unlock()
	for _, c := range replyTo {
		n.send(c.Addr, &proto.Envelope{Type: proto.KindCNAdd, From: self, CloseCand: []proto.NodeInfo{self}})
	}
}

// backMove is one BLRn entry due at a holder closer to its target.
type backMove struct {
	to  proto.NodeInfo
	ref proto.BackEntry
}

// backRebalanceLocked removes from BLRn every entry some current Voronoi
// neighbour is strictly closer to than this node and returns the moves.
// The paper keeps each back entry at the owner of its target; under
// concurrent joins and churn, ownership knowledge sharpens as views
// converge, so every view change re-places the entries. Each move
// strictly decreases the holder's distance to the target (ties never
// move), so transfer chains terminate at the true owner once views are
// exact — the greedy property guarantees the owner's neighbourhood always
// contains a closer next holder while the entry is misplaced. exclude
// (may be empty) names a peer never to move to. Caller holds n.mu.
func (n *Node) backRebalanceLocked(exclude string) []backMove {
	if len(n.back) == 0 || len(n.vn) == 0 {
		return nil
	}
	vns := without(n.vnList(), exclude)
	var moves []backMove
	kept := n.back[:0]
	for _, ref := range n.back {
		if to, isSelf := ownerForKey(n.self, vns, ref.Target); isSelf {
			kept = append(kept, ref)
		} else {
			moves = append(moves, backMove{to: to, ref: ref})
		}
	}
	n.back = kept
	return moves
}

// sendBackMoves executes the transfers computed by backRebalanceLocked:
// each entry travels to its new holder and the link's origin is told who
// holds it now. A transport-unreachable holder (a crash the views have
// not caught up with) triggers the departure repair and the entry is
// re-placed rather than lost; each failure tombstones one address, so
// the loop terminates. Caller must not hold n.mu.
func (n *Node) sendBackMoves(moves []backMove) {
	for len(moves) > 0 {
		var retry []proto.BackEntry
		for _, mv := range moves {
			if err := n.send(mv.to.Addr, &proto.Envelope{
				Type: proto.KindBackTransfer, From: n.self, Back: []proto.BackEntry{mv.ref},
			}); err != nil {
				n.NotifyDeparted(mv.to.Addr)
				retry = append(retry, mv.ref)
				continue
			}
			n.nm.backMoves.Inc()
			// An unreachable origin keeps a stale pointer; it repairs
			// itself when it next routes through the dead holder.
			_ = n.send(mv.ref.Origin.Addr, &proto.Envelope{
				Type: proto.KindLongLinkUpdate, From: n.self, Granter: mv.to, Link: mv.ref.Link,
			})
		}
		if len(retry) == 0 {
			return
		}
		n.mu.Lock()
		n.back = append(n.back, retry...)
		moves = n.backRebalanceLocked("")
		n.mu.Unlock()
	}
}

// handleLeave: a Voronoi neighbour departed; close the hole by
// recomputing our neighbourhood without it (its old neighbour list, which
// we hold in the two-hop table, supplies the hole's other border nodes).
func (n *Node) handleLeave(env *proto.Envelope) {
	gone := env.From.Addr
	n.mu.Lock()
	if !n.joined {
		n.mu.Unlock()
		return
	}
	n.tombstoneLocked(gone, env.From.Gen)
	// Build the pool *before* dropping the departed node's list: its old
	// neighbours are exactly the other border nodes of the hole.
	pool := n.candidatePool()
	delete(pool, gone)
	delete(n.vn, gone)
	delete(n.twoHop, gone)
	delete(n.cn, gone)
	n.recomputeLocked(pool)
	vns := n.vnList()
	dep, depGen := n.departedLocked()
	n.mu.Unlock()
	for _, v := range vns {
		n.send(v.Addr, &proto.Envelope{
			Type: proto.KindNeighborList, From: n.self, Neighbors: vns, Departed: dep, DepartedGen: depGen,
		})
	}
	// Store repair: records the departed node owned lost their owner-side
	// copy; re-replicate the ones we now own and push the rest to their
	// new owners (the storage face of RemoveVoronoiRegion).
	n.repairDepartedRecords(n.self, env.From, vns)
}

// candidatePool gathers self + vn + two-hop nodes, excluding tombstoned
// (departed) addresses. Caller holds n.mu.
func (n *Node) candidatePool() map[string]proto.NodeInfo {
	pool := make(map[string]proto.NodeInfo, 1+len(n.vn)*6)
	pool[n.self.Addr] = n.self
	for a, v := range n.vn {
		if !n.deadLocked(v) {
			pool[a] = v
		}
	}
	for _, lst := range n.twoHop {
		for _, v := range lst {
			if _, ok := pool[v.Addr]; !ok && !n.deadLocked(v) {
				pool[v.Addr] = v
			}
		}
	}
	return pool
}

// tombstoneLocked records a departure and evicts the address from all
// views, including the route cache — every departure path (graceful
// leave, crash repair, tombstone gossip) funnels through here, so a dead
// owner can never linger as a cached candidate. Caller holds n.mu (the
// cache is a leaf lock).
func (n *Node) tombstoneLocked(addr string, gen uint64) {
	if g, dead := n.tombs[addr]; dead {
		// Already dead — but a later incarnation may have died since;
		// remember the highest generation seen dead so its gossip
		// cannot be shadowed by the older tombstone.
		if gen > g {
			n.tombs[addr] = gen
		}
		return
	}
	n.tombs[addr] = gen
	n.tombOrder = append(n.tombOrder, addr)
	if n.cache != nil {
		if dropped := n.cache.invalidateOwner(addr); dropped > 0 {
			n.nm.cacheInvalidations.Add(uint64(dropped))
		}
	}
}

// liftTombLocked removes a tombstone entirely — the entry and its place
// in the re-advertisement queue — so this node stops gossiping the
// departure of an address it has seen alive again. Caller holds n.mu.
func (n *Node) liftTombLocked(addr string) {
	delete(n.tombs, addr)
	for i, a := range n.tombOrder {
		if a == addr {
			n.tombOrder = append(n.tombOrder[:i], n.tombOrder[i+1:]...)
			break
		}
	}
}

// deadLocked reports whether c refers to a tombstoned incarnation: the
// address is tombstoned and c's generation is not newer than the one
// that died. A NodeInfo carrying a higher generation is a durably
// restarted successor and passes. Caller holds n.mu (read or write).
func (n *Node) deadLocked(c proto.NodeInfo) bool {
	g, dead := n.tombs[c.Addr]
	return dead && c.Gen <= g
}

// purgeTombstonedLocked removes tombstoned addresses from the live views.
// Caller holds n.mu.
func (n *Node) purgeTombstonedLocked() {
	if len(n.tombs) == 0 {
		return
	}
	for a, v := range n.vn {
		if n.deadLocked(v) {
			delete(n.vn, a)
			delete(n.twoHop, a)
		}
	}
	for a, v := range n.cn {
		if n.deadLocked(v) {
			delete(n.cn, a)
		}
	}
}

// maxAdvertisedTombs bounds how many departures ride on each gossip
// message; older ones have long since propagated.
const maxAdvertisedTombs = 64

// departedLocked snapshots the most recent tombstones with the
// generations they died at (nil gens when all zero, keeping the wire
// format of gen-free overlays unchanged). Caller holds n.mu.
func (n *Node) departedLocked() ([]string, []uint64) {
	if len(n.tombOrder) == 0 {
		return nil, nil
	}
	start := 0
	if len(n.tombOrder) > maxAdvertisedTombs {
		start = len(n.tombOrder) - maxAdvertisedTombs
	}
	addrs := append([]string(nil), n.tombOrder[start:]...)
	var gens []uint64
	for i, a := range addrs {
		if g := n.tombs[a]; g > 0 {
			if gens == nil {
				gens = make([]uint64, len(addrs))
			}
			gens[i] = g
		}
	}
	return addrs, gens
}

// recomputeLocked rebuilds vn from the pool — the local Delaunay
// computation every view change comes down to — and reports whether the
// set changed. Caller holds n.mu.
func (n *Node) recomputeLocked(pool map[string]proto.NodeInfo) bool {
	newVN := miniNeighbors(n.self, pool)
	fresh := make(map[string]proto.NodeInfo, len(newVN))
	for _, v := range newVN {
		fresh[v.Addr] = v
	}
	changed := len(fresh) != len(n.vn)
	if !changed {
		for a := range fresh {
			if _, ok := n.vn[a]; !ok {
				changed = true
				break
			}
		}
	}
	// Drop stale two-hop entries for nodes that left the neighbourhood.
	for a := range n.twoHop {
		if _, keep := fresh[a]; !keep {
			delete(n.twoHop, a)
		}
	}
	n.vn = fresh
	return changed
}

// vnList snapshots vn as a slice, sorted by address: the list rides on the
// wire and drives send loops, and deterministic chaos transcripts require
// that map iteration order never leak into the message sequence. Caller
// holds n.mu.
func (n *Node) vnList() []proto.NodeInfo {
	return n.vnAppendLocked(make([]proto.NodeInfo, 0, len(n.vn)))
}

// vnAppendLocked is vnList into buf[:0]: a caller with a stack buffer (the
// GET path's inReplicaSet) snapshots the view without allocating.
func (n *Node) vnAppendLocked(buf []proto.NodeInfo) []proto.NodeInfo {
	buf = buf[:0]
	for _, v := range n.vn {
		buf = append(buf, v)
	}
	slices.SortFunc(buf, func(a, b proto.NodeInfo) int { return strings.Compare(a.Addr, b.Addr) })
	return buf
}
