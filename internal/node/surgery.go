package node

import "voronet/internal/proto"

// Optimistic view surgery
//
// The expensive step of every view change is the local Delaunay
// computation (miniNeighbors) over the candidate pool; under the write
// lock it would stall every concurrent routed message on the node. The
// handlers in handle.go run it optimistically, in the same spirit as
// internal/core's sharded engine:
//
//	R. snapshot the candidate pool under the read lock and compute the
//	   new neighbour list with no lock held;
//	W. take the write lock, rebuild the pool from current state and
//	   compare: if nothing changed in between (by far the common case,
//	   and always the case under the serial simnet), install the
//	   precomputed list; otherwise recompute under the lock.
//
// Validation is by pool equality, not a generation counter: the pool is
// exactly the computation's input, so input-equality is the strongest
// possible "nothing changed" check and cannot be defeated by a mutation
// that forgets to bump a counter.
//
// The write lock is still taken for the install, so the lock-across-send
// audit (TestNoLockHeldAcrossSends) and the deterministic transcript
// property are untouched: under the serial simnet no handler runs between
// the two phases, the pools always match, and the installed view — and
// therefore every message sent — is what a recompute under the lock
// would install.

// poolsEqual reports whether two candidate pools have exactly the same
// members with exactly the same identities (proto.NodeInfo is comparable).
func poolsEqual(a, b map[string]proto.NodeInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// recomputeFromLocked installs specVN — computed off-lock from specPool —
// when specPool still equals the freshly rebuilt pool; otherwise it falls
// back to recomputing under the lock. Caller holds n.mu.
func (n *Node) recomputeFromLocked(pool, specPool map[string]proto.NodeInfo, specVN []proto.NodeInfo) bool {
	if poolsEqual(pool, specPool) {
		return n.installVNLocked(specVN)
	}
	return n.installVNLocked(miniNeighbors(n.self, pool))
}

// candidatePoolOverride is candidatePool with one two-hop list replaced
// (or supplied) without mutating n.twoHop — the optimistic phase of
// handleNeighborList must see the pool the locked phase will build *after*
// storing the sender's fresh list. Caller holds n.mu (read suffices).
func (n *Node) candidatePoolOverride(addr string, list []proto.NodeInfo) map[string]proto.NodeInfo {
	pool := make(map[string]proto.NodeInfo, 1+len(n.vn)*6)
	pool[n.self.Addr] = n.self
	for a, v := range n.vn {
		if !n.deadLocked(v) {
			pool[a] = v
		}
	}
	seenOverride := false
	for a, lst := range n.twoHop {
		if a == addr {
			lst = list
			seenOverride = true
		}
		for _, v := range lst {
			if _, ok := pool[v.Addr]; !ok && !n.deadLocked(v) {
				pool[v.Addr] = v
			}
		}
	}
	if !seenOverride {
		for _, v := range list {
			if _, ok := pool[v.Addr]; !ok && !n.deadLocked(v) {
				pool[v.Addr] = v
			}
		}
	}
	return pool
}
