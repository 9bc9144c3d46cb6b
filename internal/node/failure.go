package node

import (
	"time"

	"voronet/internal/proto"
)

// NotifyDeparted tells the node that the peer at addr has crashed — the
// input an external failure detector (or a failed transport send, see
// handleRoute) provides. A crashed peer sends no KindLeave and hands
// nothing off, so the survivor repairs from its own state: it tombstones
// the highest incarnation of addr it holds in any slot and runs the one
// departure repair (dropDead, then repair), as a KindLeave or a Departed
// entry in gossip does.
//
// A repeat notice is a no-op: nothing of that incarnation is left to
// repair, which also bounds the recursion when repair traffic itself
// hits further dead peers. A durably restarted successor (higher
// generation) seen in a slot since is fresh news.
func (n *Node) NotifyDeparted(addr string) {
	start := time.Now()
	nb := n.lock()
	if !nb.joined || addr == n.self.Addr {
		n.unlock(nb)
		return
	}
	nb.tombstone(addr, nb.highestGen(addr))
	d := nb.dropDead(n.self)
	n.unlock(nb)
	n.repair(d, start)
}

// highestGen is the highest incarnation of addr in any slot of the
// neighbourhood, 0 when it holds none.
func (nb *neighbourhood) highestGen(addr string) uint64 {
	var g uint64
	for _, lst := range [][]proto.NodeInfo{nb.vn, nb.cn, nb.longNbrs} {
		for _, v := range lst {
			if v.Addr == addr {
				g = max(g, v.Gen)
			}
		}
	}
	for _, ref := range nb.back {
		if ref.Origin.Addr == addr {
			g = max(g, ref.Origin.Gen)
		}
	}
	return g
}

// repair sends what dropDead left to do: the view that closes a hole
// goes to each of its members with the tombstones that explain it, each
// long link whose holder died is routed anew, and the store records a
// dead neighbour owned are re-placed (the storage face of
// RemoveVoronoiRegion). The repair's time is booked from start, taken
// before the write section. Caller must not hold n.mu.
func (n *Node) repair(d departure, start time.Time) {
	if len(d.gone) == 0 && len(d.relink) == 0 {
		return
	}
	for _, v := range d.vn {
		// Best effort: further dead peers are repaired by their own
		// notifications.
		_ = n.send(v.Addr, &proto.Envelope{Type: proto.KindNeighborList, From: n.self, Neighbors: d.vn, Departed: d.dep, DepartedGen: d.depGen})
	}
	for _, j := range d.relink {
		n.seekLongLink(j, d.targets[j])
	}
	// Records a dead neighbour owned lost their owner-side copy: re-
	// replicate the ones we now own and push the rest to their new owners
	// (who may hold nothing — the dead owner's replica set need not
	// contain them).
	for _, g := range d.gone {
		n.repairDepartedRecords(n.self, g, d.vn)
	}
	n.reg.HistogramAt(departRepairSeconds).Observe(time.Since(start).Seconds())
}
