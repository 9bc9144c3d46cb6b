package node

import (
	"slices"
	"sort"
	"strings"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
)

// routeView is the greedy step's candidate set, rebuilt on every view
// change and read without a lock: self at index 0 (class "owner"), then
// every live Voronoi neighbour ("vn"), close neighbour ("cn") and long
// link ("long"), stable-sorted by address so an address held in several
// classes keeps the order vn, cn, long. Tombstoned incarnations, empty
// long slots and entries naming self are left out. A published view is
// never written again.
type routeView []routeEntry

// routeEntry is one candidate and its class, the rule a traced hop records.
type routeEntry struct {
	info  proto.NodeInfo
	class string
}

// unlock releases n.mu's write lock after publishing the route view of
// the state it leaves — every write section ends here, so no mutation can
// forget to republish. The view is nil while the node is not joined. It
// is built into n.viewBuf and published as a fresh copy only when it
// differs from the published one: most write sections change no
// candidate.
func (n *Node) unlock() {
	if n.joined {
		v := append(n.viewBuf[:0], routeEntry{n.self, "owner"})
		add := func(c proto.NodeInfo, class string) {
			if c.Addr != "" && c.Addr != n.self.Addr && !n.deadLocked(c) {
				v = append(v, routeEntry{c, class})
			}
		}
		for _, c := range n.vn {
			add(c, "vn")
		}
		for _, c := range n.cn {
			add(c, "cn")
		}
		for _, c := range n.longNbrs {
			add(c, "long")
		}
		slices.SortStableFunc(v[1:], func(a, b routeEntry) int { return strings.Compare(a.info.Addr, b.info.Addr) })
		n.viewBuf = v
		if old := n.view.Load(); old == nil || !slices.Equal(*old, v) {
			fresh := slices.Clone(v)
			n.view.Store(&fresh)
		}
	} else {
		n.view.Store(nil)
	}
	n.mu.Unlock()
}

// next is the greedy step (Algorithm 5's Greedyneighbour): the candidate
// nearest to target by store.Nearest, the rule replica placement ranks
// by, so self keeps its ties and other ties go to the lower address; a
// NaN target stays at self. extra, unless empty or self, is one more
// candidate (the origin's cached owner), ranked ahead of the entries
// holding its address in a copy of the view. skip (may be nil) vetoes
// candidates other than self.
func (v routeView) next(target geom.Point, extra routeEntry, skip func(proto.NodeInfo) bool) routeEntry {
	if extra.info.Addr != "" && extra.info.Addr != v[0].info.Addr {
		k := 1 + sort.Search(len(v)-1, func(i int) bool { return v[1+i].info.Addr >= extra.info.Addr })
		v = slices.Concat(v[:k], routeView{extra}, v[k:])
	}
	i := store.Nearest(len(v), target, func(i int) (geom.Point, bool) {
		return v[i].info.Pos, i == 0 || skip == nil || !skip(v[i].info)
	})
	return v[max(i, 0)]
}

// NextHop returns the node one greedy step from this node toward target
// goes to, or false when this node's region holds target (or it is not
// joined): handleRoute's step without the origin's route-cache candidate.
// skip (may be nil) vetoes candidates, as the chaos checker does with
// its ground-truth liveness.
func (n *Node) NextHop(target geom.Point, skip func(proto.NodeInfo) bool) (proto.NodeInfo, bool) {
	v := n.view.Load()
	if v == nil {
		return proto.NodeInfo{}, false
	}
	e := v.next(target, routeEntry{}, skip)
	return e.info, e.class != "owner"
}
