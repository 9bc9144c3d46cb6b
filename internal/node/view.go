package node

import (
	"maps"
	"slices"
	"strings"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
)

// neighbourhood is a node's whole local view (§4.1), published through
// Node.view as one value that is never written after it is published:
// readers load the pointer and need no lock. A write section (lock …
// unlock) edits a copy and replaces each field it changes rather than
// writing through it: a slice may grow by append past its end (no
// published value reads past its own length) but is never overwritten or
// truncated in place, so every field a write leaves alone is shared with
// the previous value.
type neighbourhood struct {
	joined bool
	// joining is set from Join until the grant installs the view. A
	// joining node is not a departed one: what reaches it before its
	// grant — BLRn entries, store records, neighbour lists naming it — is
	// kept for handleJoinGrant to place, never bounced or re-delegated.
	joining bool
	// early holds the neighbour lists naming this node that arrived
	// before its grant, at most maxEarlyLists, one per sender; held the
	// store hand-offs that did.
	early []proto.NeighborRecord
	held  []heldHandoff
	// vn is the Voronoi neighbour list, sorted by address; twoHop[i] is
	// vn[i]'s own neighbour list (the "neighbours' neighbours" of §4.1),
	// nil while unknown.
	vn     []proto.NodeInfo
	twoHop [][]proto.NodeInfo
	cn     []proto.NodeInfo // close neighbours, sorted by address

	longTargets []geom.Point
	longNbrs    []proto.NodeInfo
	back        []proto.BackEntry

	tombs *tombstones

	// lastVN is vn at departure: a store handoff bounced back after Leave
	// is re-delegated through it rather than stranded (handleReplicaSync).
	lastVN []proto.NodeInfo

	// route is the greedy step's candidate set, derived from the fields
	// above by unlock; nil while not joined.
	route *routeView
}

// heldHandoff is a store hand-off that reached a joining node: the
// records are applied at once and re-replicated, excluding the sender,
// once the grant installs the view they are placed by.
type heldHandoff struct {
	from string
	recs []proto.StoreRecord
}

// maxEarlyLists bounds the neighbour lists a joining node keeps. A list
// names the joiner only when its sender has taken the joiner in, and
// those are its neighbours: a few, never dozens.
const maxEarlyLists = 32

// keepEarly keeps from's list for the grant, replacing an older one from
// the same sender; beyond maxEarlyLists senders it drops the list.
func (nb *neighbourhood) keepEarly(from proto.NodeInfo, lst []proto.NodeInfo) {
	rec := proto.NeighborRecord{Node: from, VN: lst}
	if i := slices.IndexFunc(nb.early, func(r proto.NeighborRecord) bool { return r.Node.Addr == from.Addr }); i >= 0 {
		nb.early = slices.Clone(nb.early)
		nb.early[i] = rec
	} else if len(nb.early) < maxEarlyLists {
		nb.early = append(nb.early, rec)
	}
}

// tombstones records departed addresses so that stale gossip cannot
// resurrect them (see deliver): presence in gen means dead, the value is
// the incarnation number the address died at (0 on overlays without
// generations). A NodeInfo carrying a higher generation is a durably
// restarted successor and passes every tombstone filter (see dead). order
// bounds what we re-advertise. Like the neighbourhood holding it, a set is
// never written after it is published: adding or lifting a tombstone
// builds a new one.
type tombstones struct {
	gen   map[string]uint64
	order []string
}

// dead reports whether c refers to a tombstoned incarnation: the address
// is tombstoned and c's generation is not newer than the one that died.
func (t *tombstones) dead(c proto.NodeInfo) bool {
	g, dead := t.gen[c.Addr]
	return dead && c.Gen <= g
}

// maxAdvertisedTombs bounds how many departures ride on each gossip
// message; older ones have long since propagated.
const maxAdvertisedTombs = 64

// departed lists the most recent tombstones with the generations they
// died at (nil gens when all zero, keeping the wire format of gen-free
// overlays unchanged).
func (t *tombstones) departed() ([]string, []uint64) {
	if len(t.order) == 0 {
		return nil, nil
	}
	addrs := t.order[max(0, len(t.order)-maxAdvertisedTombs):]
	var gens []uint64
	for i, a := range addrs {
		if g := t.gen[a]; g > 0 {
			if gens == nil {
				gens = make([]uint64, len(addrs))
			}
			gens[i] = g
		}
	}
	return addrs, gens
}

// lock takes the writer lock and returns a copy of the published
// neighbourhood for the write section to edit; unlock publishes it.
func (n *Node) lock() *neighbourhood {
	n.mu.Lock()
	nb := *n.view.Load()
	return &nb
}

// unlock publishes nb and releases the writer lock — every write section
// ends here. The route view is re-derived only when a field it is built
// from was replaced; a write that changes no candidate keeps the pointer.
func (n *Node) unlock(nb *neighbourhood) {
	old := n.view.Load()
	switch {
	case !nb.joined:
		nb.route = nil
	case !old.joined || !same(nb.vn, old.vn) || !same(nb.cn, old.cn) ||
		!same(nb.longNbrs, old.longNbrs) || nb.tombs != old.tombs:
		nb.route = nb.deriveRoute(n.self)
	}
	n.view.Store(nb)
	n.mu.Unlock()
}

// same reports whether a and b are one slice: a field a write section
// left alone.
func same[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// find returns the index of addr in the address-sorted list, or where it
// would go, and whether it is there.
func find(list []proto.NodeInfo, addr string) (int, bool) {
	return slices.BinarySearchFunc(list, addr, func(c proto.NodeInfo, a string) int { return strings.Compare(c.Addr, a) })
}

// candidatePool gathers self + vn + two-hop nodes, excluding tombstoned
// (departed) incarnations.
func (nb *neighbourhood) candidatePool(self proto.NodeInfo) map[string]proto.NodeInfo {
	pool := make(map[string]proto.NodeInfo, 1+len(nb.vn)*6)
	pool[self.Addr] = self
	nb.addLive(pool, nb.vn)
	for _, lst := range nb.twoHop {
		nb.addLive(pool, lst)
	}
	return pool
}

// addLive adds to pool every member of lst it does not hold yet, unless
// tombstoned.
func (nb *neighbourhood) addLive(pool map[string]proto.NodeInfo, lst []proto.NodeInfo) {
	for _, v := range lst {
		if _, ok := pool[v.Addr]; !ok && !nb.tombs.dead(v) {
			pool[v.Addr] = v
		}
	}
}

// recompute rebuilds vn from the pool — the cell walk every view change
// comes down to (cellNeighbors) — keeping the two-hop lists of the
// neighbours that stay, and reports whether the set of addresses changed.
func (nb *neighbourhood) recompute(self proto.NodeInfo, pool map[string]proto.NodeInfo) bool {
	vn := cellNeighbors(self, pool)
	if slices.Equal(vn, nb.vn) {
		return false
	}
	changed := !slices.EqualFunc(vn, nb.vn, sameAddr)
	twoHop := make([][]proto.NodeInfo, len(vn))
	for i, v := range vn {
		if j, ok := find(nb.vn, v.Addr); ok {
			twoHop[i] = nb.twoHop[j]
		}
	}
	nb.vn, nb.twoHop = vn, twoHop
	return changed
}

// setTwoHop records lst as the Voronoi neighbour addr's own list; a
// non-neighbour's list is not kept.
func (nb *neighbourhood) setTwoHop(addr string, lst []proto.NodeInfo) {
	if lst == nil {
		lst = []proto.NodeInfo{} // known, and empty
	}
	if i, ok := find(nb.vn, addr); ok {
		nb.twoHop = slices.Clone(nb.twoHop)
		nb.twoHop[i] = lst
	}
}

// departure is what a departure repair leaves to do once n.mu is
// released (see Node.repair).
type departure struct {
	gone    []proto.NodeInfo // Voronoi neighbours that died: their records need repair
	vn      []proto.NodeInfo // the view that closes their hole, announced to all of it
	relink  []int            // long links whose holder died
	targets []geom.Point
	dep     []string
	depGen  []uint64
}

// dropDead is the one departure repair (RemoveVoronoiRegion, §4.2.2), run
// by every path that adds a tombstone: it removes each tombstoned
// incarnation from every slot it still occupies. A dead Voronoi neighbour
// leaves a hole, closed from the candidate pool, which still holds the
// dead peer's own list: its old neighbours are exactly the hole's other
// border nodes. Dead close neighbours and back entries whose origin died
// are dropped; a long link whose holder died is cleared so that routing
// skips it until it is re-routed. News of a departure already repaired
// finds nothing of that incarnation left and returns nothing to do.
func (nb *neighbourhood) dropDead(self proto.NodeInfo) departure {
	dead := nb.tombs.dead
	var d departure
	for _, v := range nb.vn {
		if dead(v) {
			d.gone = append(d.gone, v)
		}
	}
	if len(d.gone) > 0 {
		nb.recompute(self, nb.candidatePool(self))
		d.vn = nb.vn
		d.dep, d.depGen = nb.tombs.departed()
	}
	if slices.ContainsFunc(nb.cn, dead) {
		nb.cn = slices.DeleteFunc(slices.Clone(nb.cn), dead)
	}
	deadOrigin := func(ref proto.BackEntry) bool { return dead(ref.Origin) }
	if slices.ContainsFunc(nb.back, deadOrigin) {
		nb.back = slices.DeleteFunc(slices.Clone(nb.back), deadOrigin)
	}
	for j, h := range nb.longNbrs {
		if h.Addr != "" && dead(h) {
			nb.setLong(j, proto.NodeInfo{})
			d.relink = append(d.relink, j)
		}
	}
	d.targets = nb.longTargets
	return d
}

// addBack registers BLRn entries. An entry replaces the one held for the
// same origin address and link: a re-routed link and a hand-over of its
// old entry can both reach the new holder, in either order.
func (nb *neighbourhood) addBack(refs ...proto.BackEntry) {
	for _, ref := range refs {
		i := slices.IndexFunc(nb.back, func(b proto.BackEntry) bool {
			return b.Origin.Addr == ref.Origin.Addr && b.Link == ref.Link
		})
		if i < 0 {
			nb.back = append(nb.back, ref)
			continue
		}
		nb.back = slices.Clone(nb.back)
		nb.back[i] = ref
	}
}

// tombstone records a departure; the caller runs dropDead before it
// publishes the neighbourhood.
func (nb *neighbourhood) tombstone(addr string, gen uint64) {
	g, dead := nb.tombs.gen[addr]
	if dead && gen <= g {
		return // this incarnation or a later one is already dead
	}
	// Remember the highest generation seen dead, so its gossip cannot be
	// shadowed by an older tombstone.
	t := &tombstones{gen: make(map[string]uint64, len(nb.tombs.gen)+1), order: nb.tombs.order}
	maps.Copy(t.gen, nb.tombs.gen)
	if !dead {
		t.order = append(t.order, addr)
	}
	t.gen[addr] = gen
	nb.tombs = t
}

// liftTomb removes a tombstone entirely — the entry and its place in the
// re-advertisement queue — so this node stops gossiping the departure of
// an address it has seen alive again.
func (nb *neighbourhood) liftTomb(addr string) {
	t := &tombstones{gen: maps.Clone(nb.tombs.gen)}
	delete(t.gen, addr)
	t.order = slices.DeleteFunc(slices.Clone(nb.tombs.order), func(a string) bool { return a == addr })
	nb.tombs = t
}

// routeView is the greedy step's candidate set, read without a lock: self
// at index 0 (class "owner"), then every live Voronoi neighbour ("vn"),
// close neighbour ("cn") and long link ("long"), stable-sorted by address
// so an address held in several classes keeps the order vn, cn, long.
// Tombstoned incarnations, empty long slots and entries naming self are
// left out. A published view is never written again.
type routeView []routeEntry

// routeEntry is one candidate and its class, the rule a traced hop records.
type routeEntry struct {
	info  proto.NodeInfo
	class string
}

// deriveRoute builds the route view of nb for the node self.
func (nb *neighbourhood) deriveRoute(self proto.NodeInfo) *routeView {
	v := routeView{{self, "owner"}}
	add := func(cs []proto.NodeInfo, class string) {
		for _, c := range cs {
			if c.Addr != "" && c.Addr != self.Addr && !nb.tombs.dead(c) {
				v = append(v, routeEntry{c, class})
			}
		}
	}
	add(nb.vn, "vn")
	add(nb.cn, "cn")
	add(nb.longNbrs, "long")
	slices.SortStableFunc(v[1:], func(a, b routeEntry) int { return strings.Compare(a.info.Addr, b.info.Addr) })
	return &v
}

// next is the greedy step (Algorithm 5's Greedyneighbour): the candidate
// nearest to target by store.Nearest, the rule replica placement ranks
// by, so self keeps its ties and other ties go to the lower address; a
// NaN target stays at self. skip (may be nil) vetoes candidates other
// than self.
func (v routeView) next(target geom.Point, skip func(proto.NodeInfo) bool) routeEntry {
	i := store.Nearest(len(v), target, func(i int) (geom.Point, bool) {
		return v[i].info.Pos, i == 0 || skip == nil || !skip(v[i].info)
	})
	return v[max(i, 0)]
}

// NextHop returns the node one greedy step from this node toward target
// goes to, or false when this node's region holds target (or it is not
// joined): the step handleRoute takes.
// skip (may be nil) vetoes candidates, as the chaos checker does with
// its ground-truth liveness.
func (n *Node) NextHop(target geom.Point, skip func(proto.NodeInfo) bool) (proto.NodeInfo, bool) {
	v := n.view.Load().route
	if v == nil {
		return proto.NodeInfo{}, false
	}
	e := v.next(target, skip)
	return e.info, e.class != "owner"
}
