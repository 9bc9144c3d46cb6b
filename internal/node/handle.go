package node

import (
	"slices"
	"strings"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
)

// handle dispatches one inbound protocol message. Handlers may run
// concurrently (the TCP transport delivers independent peers' messages in
// parallel; per-peer order is preserved): a read path loads the published
// neighbourhood, view surgery edits a copy under n.mu, and the store
// tables lock themselves.
//
// The envelope is a pooled one (proto.GetEnvelope): no handler keeps a
// pointer to it, only copies of its fields and its freshly allocated
// slices.
func (n *Node) handle(from string, payload []byte) {
	env := proto.GetEnvelope()
	defer proto.PutEnvelope(env)
	if err := proto.DecodeInto(env, payload, &n.names); err != nil {
		n.reg.CounterAt(decodeErrorsTotal).Inc()
		return // malformed frame: drop
	}
	if liveKind(env.Type) {
		n.reg.CounterAt(wireRecvByKind[env.Type]).Add(uint64(len(payload)))
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
	if !liveKind(env.Type) {
		return
	}
	n.reg.CounterAt(recvByKind[env.Type]).Inc()
	// Tombstone bookkeeping needs the writer lock, but the overwhelmingly
	// common case — no departures advertised, sender not tombstoned — can
	// establish from the published view that there is nothing to do.
	if _, dead := n.view.Load().tombs.gen[env.From.Addr]; dead || len(env.Departed) > 0 {
		start := time.Now()
		nb := n.lock()
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
			if i, ok := find(nb.vn, d); ok && nb.vn[i].Gen > g {
				continue
			}
			if i, ok := find(nb.cn, d); ok && nb.cn[i].Gen > g {
				continue
			}
			nb.tombstone(d, g)
		}
		// A message from a tombstoned address proves it is alive again
		// (rejoined at the same address): lift the tombstone — unless the
		// sender lists itself as departed or says farewell (a node on its
		// way out), or the message is a straggler from the dead
		// incarnation itself (sender generation below the one that died).
		lifted := false
		if g, dead := nb.tombs.gen[env.From.Addr]; dead && env.From.Gen >= g &&
			!selfDeparted && env.Type != proto.KindLeave {
			nb.liftTomb(env.From.Addr)
			lifted = true
		}
		// News that arrives by gossip runs the same repair as the node's
		// own notice would: whichever comes first does the work.
		d := nb.dropDead(n.self)
		n.unlock(nb)
		n.repair(d, start)
		if lifted {
			// Lifting alone is not enough: while the address was
			// tombstoned, every piece of gossip naming it (SetNeighbors,
			// CNAdd candidates, view recomputes) was dropped, so nothing
			// downstream will ever put the rejoined node back into our
			// view. Its first direct message carries its identity —
			// integrate it as a newcomer and recompute now.
			n.integrateNewcomer(env.From, nil)
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
	case proto.KindLongLinkGrant:
		nb := n.lock()
		nb.setLong(env.Link, env.From)
		n.unlock(nb)
	case proto.KindLongLinkUpdate:
		nb := n.lock()
		nb.setLong(env.Link, env.Granter)
		n.unlock(nb)
	case proto.KindBackTransfer:
		nb := n.lock()
		if nb.joining {
			// Not granted yet: keep the entries; handleJoinGrant re-places
			// them once there is a view to place them by.
			nb.addBack(env.Back...)
			n.unlock(nb)
			return
		}
		if !nb.joined {
			// We have left but a reordered transfer still reached us.
			// If the sender has also departed (its farewell marker lists
			// itself), bouncing would ping-pong between two dead nodes
			// forever: drop the entries — the origins' long links repair
			// through the routed re-grant path when they next touch a
			// dead holder. Otherwise bounce so a live node re-places
			// them; our farewell marker (Departed contains us) tombstones
			// us at the recipient, whose rebalance then cannot choose us.
			self := n.self
			n.unlock(nb)
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
		nb.addBack(env.Back...)
		// The sender believed we are closer to the targets than it is; a
		// neighbour of ours may be closer still. Re-placing forwards the
		// entry along strictly decreasing distance, so the chain
		// terminates at the true owner. The sender is excluded: a leaving
		// node delegates its entries while it still sits in our view, and
		// bouncing one back would strand it on the departed node.
		moves := nb.backRebalance(n.self, env.From.Addr)
		n.unlock(nb)
		n.sendBackMoves(moves)
	case proto.KindLeave:
		// The sender left: the same repair as a crash notice, for the
		// incarnation that says farewell.
		start := time.Now()
		nb := n.lock()
		if nb.joined {
			nb.tombstone(env.From.Addr, env.From.Gen)
		}
		d := nb.dropDead(n.self)
		n.unlock(nb)
		n.repair(d, start)
	case proto.KindQueryAnswer, proto.KindStoreReply:
		if !n.inflight.Resolve(env.QueryID, store.ReplyOf(env)) {
			// The answer outlived its request: the deadline reaped it.
			n.reg.CounterAt(lateAnswersTotal).Inc()
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
// region (no neighbour is closer). The forwarding path reads only the
// published route view — no lock, no tombstone lookup — so concurrent
// routed messages never wait on each other or on view surgery.
func (n *Node) handleRoute(env *proto.Envelope) {
	var hopStart time.Time
	if env.Trace {
		hopStart = time.Now()
		n.reg.CounterAt(tracedRoutesTotal).Inc()
	}
	nb := n.view.Load()
	if nb.route == nil {
		return // not joined, or already left
	}
	// A join must be admitted by the current owner of the joiner's
	// region — never routed to the joiner itself, which is not in the
	// overlay yet and would drop it. The joiner can appear in views
	// mid-join when it is a durable restart: the tombstone lift in
	// deliver integrated it the moment its join request arrived, and its
	// target (its own position) is at distance zero from itself.
	var skip func(proto.NodeInfo) bool
	if env.Purpose == proto.PurposeJoin {
		skip = func(c proto.NodeInfo) bool { return c.Addr == env.Origin.Addr }
	}
	best := nb.route.next(env.Target, skip) // its class is the trace's rule

	if best.info.Addr != n.self.Addr {
		fwd := *env
		fwd.Hops++
		fwd.From = n.self
		if fwd.Trace {
			// Copy-append: fwd shares env's Path backing array, and the
			// departure-repair retry below re-traces from env.
			fwd.Path = proto.AppendHop(env.Path, n.traceHop(best.class, hopStart))
		}
		if err := n.sendWithRetry(best.info.Addr, &fwd); err != nil {
			// The chosen next hop is unreachable at the transport level —
			// it crashed without a leave announcement. Repair the views
			// around it and retry the step with what remains; each retry
			// tombstones one address, so the recursion terminates.
			n.NotifyDeparted(best.info.Addr)
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
		nb := n.lock()
		nb.addBack(proto.BackEntry{Origin: env.Origin, Link: env.Link, Target: env.Target})
		n.unlock(nb)
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
// insert the newcomer and recompute. Each SetNeighbors carries the
// joiner's granted list, so the joiner need not announce it.
func (n *Node) admitJoin(env *proto.Envelope) {
	start := time.Now()
	defer func() { n.reg.HistogramAt(joinAdmitSeconds).Observe(time.Since(start).Seconds()) }()
	j := env.Origin
	if !geom.InDomain(j.Pos) {
		return // no region to grant; Decode refuses such a joiner already
	}

	// The published view suffices: the joiner's neighbour list is computed
	// from the candidate pool (us, our neighbours, their neighbours) and
	// nothing of ours is written.
	nb := n.view.Load()
	pool := nb.candidatePool(n.self)
	pool[j.Addr] = j
	newVN := cellNeighbors(j, pool)

	// Bootstrap two-hop knowledge for the joiner from what we know.
	var records []proto.NeighborRecord
	for _, y := range newVN {
		if y.Addr == n.self.Addr {
			records = append(records, proto.NeighborRecord{Node: n.self, VN: nb.vn})
		} else if i, ok := find(nb.vn, y.Addr); ok && nb.twoHop[i] != nil {
			records = append(records, proto.NeighborRecord{Node: y, VN: nb.twoHop[i]})
		}
	}

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
		n.send(y.Addr, &proto.Envelope{Type: proto.KindSetNeighbors, From: n.self, Origin: j, Neighbors: newVN})
	}
	n.integrateNewcomer(j, newVN)
}

// handleJoinGrant installs the view granted by the region owner and
// finishes the join: place what arrived before the grant, then establish
// the long links (Algorithm 2). The joiner announces nothing: every node
// the owner named got the granted list with its SetNeighbors.
func (n *Node) handleJoinGrant(env *proto.Envelope) {
	start := time.Now()
	nb := n.lock()
	if nb.joined {
		n.unlock(nb)
		return
	}
	defer func() { n.reg.HistogramAt(joinGrantSeconds).Observe(time.Since(start).Seconds()) }()
	nb.joined, nb.joining = true, false
	nb.vn = slices.CompactFunc(slices.SortedFunc(slices.Values(env.Neighbors), byAddr), sameAddr)
	nb.twoHop = make([][]proto.NodeInfo, len(nb.vn))
	for _, rec := range env.TwoHop {
		nb.setTwoHop(rec.Node.Addr, rec.VN)
	}
	targets := make([]geom.Point, 0, n.cfg.LongLinks)
	for jdx := 0; jdx < n.cfg.LongLinks; jdx++ {
		targets = append(targets, n.chooseLRT())
	}
	nb.longTargets = targets
	nb.longNbrs = make([]proto.NodeInfo, len(targets))
	moves := nb.backRebalance(n.self, "")
	early, held := nb.early, nb.held
	nb.early, nb.held = nil, nil
	n.unlock(nb)

	n.sendBackMoves(moves)
	for _, h := range held {
		n.replicateRecords(h.recs, h.from)
	}
	for _, rec := range early {
		if !n.view.Load().tombs.dead(rec.Node) {
			n.handleNeighborList(&proto.Envelope{Type: proto.KindNeighborList, From: rec.Node, Neighbors: rec.VN})
		}
	}
	for jdx, tgt := range targets {
		n.seekLongLink(jdx, tgt)
	}
}

// seekLongLink routes the search for long link j toward its target
// (Algorithm 2), starting at this node; the target's owner grants it.
func (n *Node) seekLongLink(j int, target geom.Point) {
	n.handle(n.self.Addr, proto.AppendEncode(nil, &proto.Envelope{
		Type: proto.KindRoute, Purpose: proto.PurposeLongLink, Target: target, Origin: n.self, Link: j,
	}))
}

// handleSetNeighbors: a newcomer (env.Origin) entered our region's
// neighbourhood, and env.Neighbors is the list it was granted; integrate
// it and recompute.
func (n *Node) handleSetNeighbors(env *proto.Envelope) {
	n.integrateNewcomer(env.Origin, env.Neighbors)
}

// integrateNewcomer recomputes vn with the newcomer in the candidate pool,
// refreshes neighbours, and performs the close-neighbour and BLRn
// exchanges of AddVoronoiRegion. jList is the newcomer's granted list
// when an admission names it (nil for a rejoin seen by its first
// message): it enters the pool and the two-hop table, and the new view is
// announced only to the neighbours gained or lost, since the others'
// views did not change with ours. Without it every neighbour hears.
func (n *Node) integrateNewcomer(j proto.NodeInfo, jList []proto.NodeInfo) {
	nb := n.lock()
	if !nb.joined || j.Addr == n.self.Addr {
		n.unlock(nb)
		return
	}
	if g, dead := nb.tombs.gen[j.Addr]; dead {
		if j.Gen <= g {
			// Stale gossip about a dead incarnation: integrating it would
			// resurrect a crashed node until the next purge killed it
			// again. Only a strictly newer generation — a durably
			// restarted successor — overrides a tombstone here.
			n.unlock(nb)
			return
		}
		nb.liftTomb(j.Addr)
	}
	pool := nb.candidatePool(n.self)
	nb.addLive(pool, jList)
	pool[j.Addr] = j
	old := nb.vn
	changed := nb.recompute(n.self, pool)
	_, isNbr := find(nb.vn, j.Addr)
	if jList != nil {
		nb.setTwoHop(j.Addr, jList)
	}

	// Lemma 1 exchange: send the newcomer every close-neighbour candidate
	// we can see (ourselves and our cn entries within dmin of it).
	var cand []proto.NodeInfo
	if geom.Dist(n.self.Pos, j.Pos) <= n.cfg.DMin {
		cand = append(cand, n.self)
	}
	for _, c := range nb.cn {
		if geom.Dist(c.Pos, j.Pos) <= n.cfg.DMin {
			cand = append(cand, c)
		}
	}
	slices.SortFunc(cand, byAddr)
	// BLRn handover: entries some neighbour (usually the newcomer) is now
	// strictly closer to move to their new owner. The newcomer case of
	// §4.2.1 is subsumed: if j took over a target's region it is either a
	// neighbour of ours or reachable through one, and the transfer chain
	// strictly approaches the target.
	moves := nb.backRebalance(n.self, "")
	var to []proto.NodeInfo
	switch {
	case changed && jList != nil:
		to = symmetricDiff(old, nb.vn)
	case changed:
		to = nb.vn
	}
	// Rebuttal: the newcomer was granted an edge to us that our pool
	// refutes; our list carries the witness.
	if jList != nil && !isNbr && names(jList, n.self.Addr) && !names(to, j.Addr) {
		to = append(slices.Clip(to), j)
	}
	vns := nb.vn
	dep, depGen := nb.tombs.departed()
	n.unlock(nb)

	for _, v := range to {
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
	mentionsUs := names(env.Neighbors, n.self.Addr)
	nb := n.lock()
	if !nb.joined {
		// A list naming a joiner can overtake its grant, and nothing
		// repeats it: keep it for handleJoinGrant.
		if nb.joining && mentionsUs {
			nb.keepEarly(env.From, env.Neighbors)
		}
		n.unlock(nb)
		return
	}
	_, isNbr := find(nb.vn, env.From.Addr)
	if !isNbr && !mentionsUs {
		n.unlock(nb)
		return
	}
	// The sender's list joins the pool whether or not it is a neighbour
	// yet, and is kept if it is one after the recompute.
	nb.setTwoHop(env.From.Addr, env.Neighbors)
	pool := nb.candidatePool(n.self)
	nb.addLive(pool, env.Neighbors)
	pool[env.From.Addr] = env.From
	changed := nb.recompute(n.self, pool)
	_, nowNbr := find(nb.vn, env.From.Addr)
	if nowNbr && !isNbr {
		nb.setTwoHop(env.From.Addr, env.Neighbors)
	}
	var vns []proto.NodeInfo
	var moves []backMove
	if changed {
		vns = nb.vn
		// A sharpened view can reveal a neighbour closer to one of our
		// BLRn targets: re-place those entries at the new owner.
		moves = nb.backRebalance(n.self, "")
	}
	// Asymmetry repair: the sender believes we are its neighbour but our
	// richer pool disagrees (its view holds a false edge). Send it our
	// list: it carries the witness that invalidates the edge, so the
	// sender's next recompute drops us and views converge.
	rebut := mentionsUs && !nowNbr
	dep, depGen := nb.tombs.departed()
	n.unlock(nb)
	for _, v := range vns {
		n.send(v.Addr, &proto.Envelope{Type: proto.KindNeighborList, From: n.self, Neighbors: vns, Departed: dep, DepartedGen: depGen})
	}
	if rebut {
		n.send(env.From.Addr, &proto.Envelope{Type: proto.KindNeighborList, From: n.self, Neighbors: nb.vn, Departed: dep, DepartedGen: depGen})
	}
	n.sendBackMoves(moves)
}

// handleCNAdd installs close-neighbour candidates, replying so the
// relation stays symmetric. Replies are sent only for newly added
// entries, which makes the exchange converge.
func (n *Node) handleCNAdd(env *proto.Envelope) {
	nb := n.lock()
	var replyTo []proto.NodeInfo
	for _, c := range env.CloseCand {
		if c.Addr == n.self.Addr {
			continue
		}
		// A candidate list computed before its sender learned of a crash
		// can still carry the dead address; since the preamble no longer
		// purges on every message (only when tombstone work arrives),
		// nothing downstream would evict it.
		if nb.tombs.dead(c) {
			continue
		}
		if !(geom.Dist(c.Pos, n.self.Pos) <= n.cfg.DMin) {
			continue // too far, or not a position at all (NaN)
		}
		i, known := find(nb.cn, c.Addr)
		if known {
			continue
		}
		nb.cn = slices.Concat(nb.cn[:i], []proto.NodeInfo{c}, nb.cn[i:])
		replyTo = append(replyTo, c)
	}
	self := n.self
	n.unlock(nb)
	for _, c := range replyTo {
		n.send(c.Addr, &proto.Envelope{Type: proto.KindCNAdd, From: self, CloseCand: []proto.NodeInfo{self}})
	}
}

// setLong points long link j at holder h. The lower bound is defence in
// depth: proto.Decode rejects negative Link fields, but a slice index from
// the wire must never be trusted on one layer alone (a Link of -1
// panicked the node before the guard).
func (nb *neighbourhood) setLong(j int, h proto.NodeInfo) {
	if j >= 0 && j < len(nb.longNbrs) && nb.longNbrs[j] != h {
		nb.longNbrs = slices.Clone(nb.longNbrs)
		nb.longNbrs[j] = h
	}
}

// backMove is one BLRn entry due at a holder closer to its target.
type backMove struct {
	to  proto.NodeInfo
	ref proto.BackEntry
}

// backRebalance removes from BLRn every entry some current Voronoi
// neighbour is strictly closer to than self and returns the moves.
// The paper keeps each back entry at the owner of its target; under
// concurrent joins and churn, ownership knowledge sharpens as views
// converge, so every view change re-places the entries. Each move
// strictly decreases the holder's distance to the target (ties never
// move), so transfer chains terminate at the true owner once views are
// exact — the greedy property guarantees the owner's neighbourhood always
// contains a closer next holder while the entry is misplaced. exclude
// (may be empty) names a peer never to move to.
func (nb *neighbourhood) backRebalance(self proto.NodeInfo, exclude string) []backMove {
	if len(nb.back) == 0 || len(nb.vn) == 0 {
		return nil
	}
	vns := without(nb.vn, exclude)
	var moves []backMove
	var kept []proto.BackEntry
	for _, ref := range nb.back {
		if to, isSelf := ownerForKey(self, vns, ref.Target); isSelf {
			kept = append(kept, ref)
		} else {
			moves = append(moves, backMove{to: to, ref: ref})
		}
	}
	if len(moves) > 0 {
		nb.back = kept
	}
	return moves
}

// sendBackMoves executes the transfers computed by backRebalance:
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
			n.reg.CounterAt(blrnMovesTotal).Inc()
			// An unreachable origin keeps a stale pointer; it repairs
			// itself when it next routes through the dead holder.
			_ = n.send(mv.ref.Origin.Addr, &proto.Envelope{
				Type: proto.KindLongLinkUpdate, From: n.self, Granter: mv.to, Link: mv.ref.Link,
			})
		}
		if len(retry) == 0 {
			return
		}
		nb := n.lock()
		nb.addBack(retry...)
		moves = nb.backRebalance(n.self, "")
		n.unlock(nb)
	}
}

// symmetricDiff returns the members of exactly one of the address-sorted
// lists a and b, in address order: the peers a view change from a to b
// gained or lost.
func symmetricDiff(a, b []proto.NodeInfo) []proto.NodeInfo {
	var out []proto.NodeInfo
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].Addr < b[0].Addr:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || b[0].Addr < a[0].Addr:
			out, b = append(out, b[0]), b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	return out
}

// names reports whether list holds the peer at addr.
func names(list []proto.NodeInfo, addr string) bool {
	return slices.ContainsFunc(list, func(v proto.NodeInfo) bool { return v.Addr == addr })
}

// byAddr orders view lists by address, the order every list on the wire
// and every send loop follows: deterministic chaos transcripts require it.
func byAddr(a, b proto.NodeInfo) int { return strings.Compare(a.Addr, b.Addr) }

func sameAddr(a, b proto.NodeInfo) bool { return a.Addr == b.Addr }
