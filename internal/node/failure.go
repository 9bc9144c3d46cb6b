package node

import (
	"slices"
	"time"

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
	nb := n.lock()
	if !nb.joined || addr == n.self.Addr {
		n.unlock(nb)
		return
	}
	vi, inVN := find(nb.vn, addr)
	ci, inCN := find(nb.cn, addr)
	if g, dead := nb.tombs.gen[addr]; dead {
		// Idempotence — unless a newer incarnation of the address has
		// since rejoined our views; its crash is fresh news.
		if !(inVN && nb.vn[vi].Gen > g) && !(inCN && nb.cn[ci].Gen > g) {
			n.unlock(nb)
			return
		}
	}
	defer func() { n.reg.HistogramAt(departRepairSeconds).Observe(time.Since(start).Seconds()) }()
	// Tombstone the incarnation we knew; a durably restarted successor
	// (higher generation) stays admissible.
	var gone proto.NodeInfo
	if inVN {
		gone = nb.vn[vi]
	} else if inCN {
		gone = nb.cn[ci]
	}
	nb.tombstone(addr, gone.Gen)
	nb.cn = without(nb.cn, addr)
	if inVN {
		// The pool keeps the dead peer's list: its old neighbours are
		// exactly the other border nodes of the hole.
		pool := nb.candidatePool(n.self)
		delete(pool, addr)
		nb.recompute(n.self, pool)
	}
	// Drop BLRn entries originated by the dead peer: there is no origin
	// left to serve the link for.
	nb.back = slices.DeleteFunc(slices.Clone(nb.back), func(ref proto.BackEntry) bool { return ref.Origin.Addr == addr })
	// Long links the dead peer held must be re-routed to the targets' new
	// owners; clear the slot so routing skips it until the grant arrives.
	var relink []int
	for j, h := range nb.longNbrs {
		if h.Addr == addr {
			nb.setLong(j, proto.NodeInfo{})
			relink = append(relink, j)
		}
	}
	var vns []proto.NodeInfo
	if inVN {
		vns = nb.vn
	}
	dep, depGen := nb.tombs.departed()
	self := n.self
	targets := nb.longTargets
	n.unlock(nb)

	for _, v := range vns {
		// Best effort: further dead peers are repaired by their own
		// notifications.
		_ = n.send(v.Addr, &proto.Envelope{Type: proto.KindNeighborList, From: self, Neighbors: vns, Departed: dep, DepartedGen: depGen})
	}
	for _, j := range relink {
		env := &proto.Envelope{
			Type:    proto.KindRoute,
			Purpose: proto.PurposeLongLink,
			Target:  targets[j],
			Origin:  self,
			Link:    j,
		}
		n.handle(self.Addr, proto.AppendEncode(nil, env))
	}
	// Store repair: records the dead peer owned lost their owner-side
	// copy; re-replicate the ones we now own and push the rest to their
	// new owners (who may hold nothing — the dead owner's replica set
	// need not contain them).
	if inVN {
		n.repairDepartedRecords(self, gone, vns)
	}
}
