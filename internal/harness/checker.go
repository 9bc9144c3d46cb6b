package harness

import (
	"fmt"
	"sort"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/stats"
	"voronet/internal/store"
)

// CheckReport is the outcome of one network-wide invariant check.
type CheckReport struct {
	// Nodes is the live population size at check time.
	Nodes int
	// ViewErrors counts live nodes whose Voronoi neighbour list differs
	// from the reference Delaunay triangulation of the live population.
	ViewErrors int
	// BacklinkErrors counts long-link / back-pointer violations: an
	// unresolved or dead link holder, a holder that is not the nearest
	// live node to the link's target, a link without its mirroring back
	// entry, or a back entry whose origin is dead or disagrees.
	BacklinkErrors int
	// StoreKeys is the number of tracked keys examined; StoreErrors
	// counts keys missing from their replica set or with diverged copies.
	StoreKeys, StoreErrors int
	// RouteTried/RouteOK count sampled greedy view-walks and how many
	// arrived at the true owner of their target.
	RouteTried, RouteOK int
	// MeanHops is the mean greedy hop count over successful walks.
	MeanHops float64

	hops    []float64
	details []string // "kind: description", first occurrence per kind kept
}

func (c *CheckReport) addDetail(kind, format string, args ...any) {
	c.details = append(c.details, kind+": "+fmt.Sprintf(format, args...))
}

// firstDetail returns the first recorded detail of the given kind.
func (c *CheckReport) firstDetail(kind string) string {
	for _, d := range c.details {
		if len(d) > len(kind) && d[:len(kind)] == kind {
			return d[len(kind)+2:]
		}
	}
	return "n/a"
}

// reference holds the ground-truth tessellation of the live population.
type reference struct {
	members []*member
	byAddr  map[string]*member
	nbrs    map[string][]proto.NodeInfo // reference Delaunay neighbours
}

// buildReference triangulates the live members' positions.
func (r *Run) buildReference() (*reference, error) {
	ref := &reference{byAddr: make(map[string]*member)}
	tr := delaunay.New()
	vertOf := make(map[string]delaunay.VertexID)
	byVert := make(map[delaunay.VertexID]*member)
	for _, m := range r.live() {
		v, err := tr.Insert(infoOf(m).Pos, delaunay.NoVertex)
		if err != nil {
			return nil, fmt.Errorf("reference insert %s: %w", m.addr, err)
		}
		ref.members = append(ref.members, m)
		ref.byAddr[m.addr] = m
		vertOf[m.addr] = v
		byVert[v] = m
	}
	ref.nbrs = make(map[string][]proto.NodeInfo, len(ref.members))
	for _, m := range ref.members {
		var lst []proto.NodeInfo
		for _, v := range tr.Neighbors(vertOf[m.addr], nil) {
			lst = append(lst, infoOf(byVert[v]))
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i].Addr < lst[j].Addr })
		ref.nbrs[m.addr] = lst
	}
	return ref, nil
}

// ownerOf returns the live member nearest to p (ties to the lowest
// address, matching the routing tie-break).
func (ref *reference) ownerOf(p geom.Point) *member {
	var best *member
	bestD := 0.0
	for _, m := range ref.members {
		d := geom.Dist2(infoOf(m).Pos, p)
		if best == nil || d < bestD || (d == bestD && m.addr < best.addr) {
			best, bestD = m, d
		}
	}
	return best
}

// replicaSet returns the owner's R reference neighbours closest to key,
// ranked by the store's own rule (store.Closest over the address-sorted
// reference list, so ties rank by address exactly as the owner's do).
func (ref *reference) replicaSet(owner *member, key geom.Point, rf int) []*member {
	nbrs := ref.nbrs[owner.addr]
	rank := store.Closest(nil, rf, len(nbrs), key, func(i int) (geom.Point, bool) { return nbrs[i].Pos, true })
	out := make([]*member, 0, len(rank))
	for _, i := range rank {
		out = append(out, ref.byAddr[nbrs[i].Addr])
	}
	return out
}

// runCheck executes every invariant aspect and returns the report. The
// checker reads node state through public accessors only — it never sends
// messages, so checking cannot perturb the run.
func (r *Run) runCheck(c check) CheckReport {
	rep := CheckReport{}
	ref, err := r.buildReference()
	if err != nil {
		rep.addDetail("view", "reference build failed: %v", err)
		rep.ViewErrors++
		return rep
	}
	rep.Nodes = len(ref.members)

	if !c.SkipViews {
		r.checkViews(ref, &rep)
	}
	if !c.SkipBacklinks {
		r.checkBacklinks(ref, &rep)
	}
	if !c.SkipStore {
		r.checkStore(ref, &rep)
	}
	samples := c.Samples
	if samples <= 0 {
		samples = 40
	}
	r.checkRouting(ref, samples, &rep)
	return rep
}

// checkViews: every live node's vn must equal its reference Delaunay
// neighbourhood — the union of local views forms the global tessellation.
func (r *Run) checkViews(ref *reference, rep *CheckReport) {
	for _, m := range ref.members {
		got := m.nd.Neighbors() // in address order
		want := ref.nbrs[m.addr]
		ok := len(got) == len(want)
		if ok {
			for i := range got {
				if got[i].Addr != want[i].Addr {
					ok = false
					break
				}
			}
		}
		if !ok {
			rep.ViewErrors++
			rep.addDetail("view", "%s has %s, reference says %s", m.addr, addrList(got), addrList(want))
		}
	}
}

// checkBacklinks: every long link must resolve to the nearest live node
// to its target and be mirrored by a back entry there; every back entry
// must point back at a live origin that still holds the link, and a
// holder keeps one entry per (origin, link).
func (r *Run) checkBacklinks(ref *reference, rep *CheckReport) {
	for _, m := range ref.members {
		links := m.nd.LongNeighbors()
		targets := m.nd.LongTargets()
		for j, l := range links {
			if l.Addr == "" {
				rep.BacklinkErrors++
				rep.addDetail("backlink", "%s link %d unresolved", m.addr, j)
				continue
			}
			h, live := ref.byAddr[l.Addr]
			if !live {
				rep.BacklinkErrors++
				rep.addDetail("backlink", "%s link %d held by dead %s", m.addr, j, l.Addr)
				continue
			}
			if j < len(targets) {
				tgt := targets[j]
				holderD := geom.Dist2(l.Pos, tgt)
				if best := ref.ownerOf(tgt); geom.Dist2(infoOf(best).Pos, tgt) < holderD {
					rep.BacklinkErrors++
					rep.addDetail("backlink", "%s link %d held by %s but %s is closer to its target", m.addr, j, l.Addr, best.addr)
				}
			}
			mirrored := false
			for _, bk := range h.nd.BackEntries() {
				if bk.Origin.Addr == m.addr && bk.Link == j {
					mirrored = true
					break
				}
			}
			if !mirrored {
				rep.BacklinkErrors++
				rep.addDetail("backlink", "%s link %d not mirrored at %s", m.addr, j, l.Addr)
			}
		}
		type originLink struct {
			addr string
			link int
		}
		seen := map[originLink]bool{}
		for _, bk := range m.nd.BackEntries() {
			k := originLink{bk.Origin.Addr, bk.Link}
			if seen[k] {
				rep.BacklinkErrors++
				rep.addDetail("backlink", "%s holds back entry link %d of %s twice", m.addr, bk.Link, bk.Origin.Addr)
			}
			seen[k] = true
			o, live := ref.byAddr[bk.Origin.Addr]
			if !live {
				rep.BacklinkErrors++
				rep.addDetail("backlink", "%s holds back entry for dead origin %s", m.addr, bk.Origin.Addr)
				continue
			}
			ol := o.nd.LongNeighbors()
			if bk.Link >= len(ol) || ol[bk.Link].Addr != m.addr {
				rep.BacklinkErrors++
				rep.addDetail("backlink", "%s back entry link %d of %s not held by the origin", m.addr, bk.Link, bk.Origin.Addr)
			}
		}
	}
}

// checkStore: every tracked key must be present on its whole replica set
// — the owner and the R reference neighbours of the owner closest to the
// key — with identical version and value on every copy, matching the
// harness's expectation when the value is determinate.
func (r *Run) checkStore(ref *reference, rep *CheckReport) {
	for _, key := range r.sortedExpectedKeys() {
		exp := r.expected[key]
		rep.StoreKeys++
		owner := ref.ownerOf(key)
		required := append([]*member{owner}, ref.replicaSet(owner, key, r.scn.Replication)...)
		bad := false
		var v0 *proto.StoreRecord
		for _, m := range required {
			rec, ok := m.nd.StoreLookup(key)
			if !ok {
				rep.addDetail("store", "key=(%.6f,%.6f) missing at %s (owner %s)", key.X, key.Y, m.addr, owner.addr)
				bad = true
				continue
			}
			if v0 == nil {
				cp := rec
				v0 = &cp
			} else if rec.Version != v0.Version || rec.Deleted != v0.Deleted || string(rec.Value) != string(v0.Value) {
				rep.addDetail("store", "key=(%.6f,%.6f) diverged: v%d vs v%d", key.X, key.Y, rec.Version, v0.Version)
				bad = true
			}
		}
		if !bad && exp.sure && v0 != nil {
			if v0.Deleted || string(v0.Value) != string(exp.val) {
				rep.addDetail("store", "key=(%.6f,%.6f) holds %q, expected %q", key.X, key.Y, v0.Value, exp.val)
				bad = true
			}
		}
		if bad {
			rep.StoreErrors++
		}
	}
}

// checkRouting samples (origin, target) pairs and walks the greedy route
// over the nodes' actual views, requiring arrival at the true owner of
// the target. Each step is the node's own (node.Node.NextHop, the step
// handleRoute takes), with the reference's liveness vetoing dead entries.
func (r *Run) checkRouting(ref *reference, samples int, rep *CheckReport) {
	limit := 4*len(ref.members) + 20
	for i := 0; i < samples; i++ {
		origin := ref.members[r.rng.Intn(len(ref.members))]
		target := geom.Pt(r.rng.Float64(), r.rng.Float64())
		cur := origin
		hops := 0
		for ; hops <= limit; hops++ {
			next, ok := cur.nd.NextHop(target, func(c proto.NodeInfo) bool {
				_, live := ref.byAddr[c.Addr]
				return !live
			})
			if !ok {
				break
			}
			cur = ref.byAddr[next.Addr]
		}
		rep.RouteTried++
		want := ref.ownerOf(target)
		arrived := cur.addr == want.addr ||
			geom.Dist2(infoOf(cur).Pos, target) == geom.Dist2(infoOf(want).Pos, target)
		if hops > limit {
			arrived = false
		}
		if arrived {
			rep.RouteOK++
			rep.hops = append(rep.hops, float64(hops))
		} else {
			rep.addDetail("route", "%s→(%.6f,%.6f) stalled at %s after %d hops (owner %s)",
				origin.addr, target.X, target.Y, cur.addr, hops, want.addr)
		}
	}
	if len(rep.hops) > 0 {
		var run stats.Running
		for _, h := range rep.hops {
			run.Add(h)
		}
		rep.MeanHops = run.Mean()
	}
}

func addrList(infos []proto.NodeInfo) string {
	out := "["
	for i, v := range infos {
		if i > 0 {
			out += " "
		}
		out += v.Addr
	}
	return out + "]"
}
