package node

import (
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

// NotifyDeparted tells the node that the peer at addr has crashed — the
// input an external failure detector (or a failed transport send, see
// handleRoute) provides. Unlike a graceful departure, a crashed peer sends
// no KindLeave and hands nothing off, so the survivor performs the whole
// RemoveVoronoiRegion surgery from its own state: tombstone the address,
// close the tessellation hole from the candidate pool (the dead peer's
// old neighbour list in our two-hop table supplies the hole's border),
// drop its BLRn entries, re-route our long links it held, and reclaim and
// re-replicate the store records whose owner disappeared.
//
// The method is idempotent: a second notification for a tombstoned
// address is a no-op, which also bounds the recursion when repair gossip
// itself hits further dead peers.
func (n *Node) NotifyDeparted(addr string) {
	start := time.Now()
	n.mu.Lock()
	if !n.joined || addr == n.self.Addr {
		n.unlock()
		return
	}
	if g, dead := n.tombs[addr]; dead {
		// Idempotence — unless a newer incarnation of the address has
		// since rejoined our views; its crash is fresh news.
		v, inVN := n.vn[addr]
		c, inCN := n.cn[addr]
		if !(inVN && v.Gen > g) && !(inCN && c.Gen > g) {
			n.unlock()
			return
		}
	}
	defer func() { n.nm.departTime.Observe(time.Since(start).Seconds()) }()
	gone, wasVN := n.vn[addr]
	// Tombstone the incarnation we knew; a durably restarted successor
	// (higher generation) stays admissible.
	gen := gone.Gen
	if !wasVN {
		if c, ok := n.cn[addr]; ok {
			gen = c.Gen
		}
	}
	n.tombstoneLocked(addr, gen)
	// Build the pool before dropping the dead peer's list: its old
	// neighbours are exactly the other border nodes of the hole.
	pool := n.candidatePool()
	delete(pool, addr)
	delete(n.vn, addr)
	delete(n.twoHop, addr)
	delete(n.cn, addr)
	if wasVN {
		n.recomputeLocked(pool)
	}
	// Drop BLRn entries originated by the dead peer: there is no origin
	// left to serve the link for.
	kept := n.back[:0]
	for _, ref := range n.back {
		if ref.Origin.Addr != addr {
			kept = append(kept, ref)
		}
	}
	n.back = kept
	// Long links the dead peer held must be re-routed to the targets' new
	// owners; clear the slot so routing skips it until the grant arrives.
	var relink []int
	for j, h := range n.longNbrs {
		if h.Addr == addr {
			n.longNbrs[j] = proto.NodeInfo{}
			relink = append(relink, j)
		}
	}
	var vns []proto.NodeInfo
	if wasVN {
		vns = n.vnList()
	}
	dep, depGen := n.departedLocked()
	self := n.self
	targets := make([]geom.Point, len(relink))
	for i, j := range relink {
		targets[i] = n.longTargets[j]
	}
	n.unlock()

	for _, v := range vns {
		// Best effort: further dead peers are repaired by their own
		// notifications.
		_ = n.send(v.Addr, &proto.Envelope{Type: proto.KindNeighborList, From: self, Neighbors: vns, Departed: dep, DepartedGen: depGen})
	}
	for i, j := range relink {
		env := &proto.Envelope{
			Type:    proto.KindRoute,
			Purpose: proto.PurposeLongLink,
			Target:  targets[i],
			Origin:  self,
			Link:    j,
		}
		n.handle(self.Addr, proto.AppendEncode(nil, env))
	}
	// Store repair: records the dead peer owned lost their owner-side
	// copy; re-replicate the ones we now own and push the rest to their
	// new owners (who may hold nothing — the dead owner's replica set
	// need not contain them).
	if wasVN {
		n.repairDepartedRecords(self, gone, vns)
	}
}
