// Package core implements the VoroNet overlay (Beaumont, Kermarrec,
// Marchal, Rivière — IPDPS 2007 / INRIA RR-5833): an object-to-object
// peer-to-peer network in which objects live at their attribute coordinates
// in the unit square, are linked to their Voronoi neighbours, to the
// objects within distance dmin (close neighbours) and to k long-range
// neighbours drawn from Kleinberg's harmonic distribution generalised to
// arbitrary object distributions.
//
// The package is the simulation engine the paper's own evaluation uses: a
// single process holds the ground-truth Voronoi tessellation (which the
// distributed protocol maintains collectively) together with every
// object's view — vn(o), cn(o), LRn(o), BLRn(o) — and it accounts protocol
// costs (Greedyneighbour calls, maintenance messages) exactly as specified
// by Algorithms 1–5. The genuinely message-passing per-node realisation of
// the same protocol lives in internal/node.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/voronoi"
)

// ObjectID identifies an object in the overlay. IDs are never reused.
type ObjectID int64

// NoObject is the invalid object ID.
const NoObject ObjectID = -1

// Errors returned by overlay operations.
var (
	// ErrDuplicate reports an object inserted at an occupied position.
	ErrDuplicate = errors.New("voronet: an object already occupies this position")
	// ErrNotFound reports an operation on an unknown object.
	ErrNotFound = errors.New("voronet: no such object")
	// ErrEmpty reports an operation that needs a non-empty overlay.
	ErrEmpty = errors.New("voronet: overlay is empty")
)

// Config parameterises an overlay.
type Config struct {
	// NMax is the maximum number of objects the overlay is provisioned
	// for. The paper assumes it is known a priori (§3); it determines dmin
	// and the long-link length distribution. Required.
	NMax int
	// LongLinks is the number of long-range neighbours per object
	// (k in Fig 8). Default 1, the paper's basic setting.
	LongLinks int
	// DMin overrides the close-neighbour radius. Default 1/√(π·NMax),
	// the value that makes E[|cn(o)|] ≤ 1 under a near-uniform
	// distribution (§4.1; see DESIGN.md for the paper's typo).
	DMin float64
	// LongLinkExponent is the exponent s of the link-length distribution
	// Pr[length ∈ dr] ∝ r^(1-s)·dr. The paper (and Kleinberg's theorem for
	// 2-D) uses s = 2, realised by Choose-LRT's log-uniform radius.
	// Other values are exposed for the ablation study.
	//
	// The zero value selects the paper's s = 2; to ablate the
	// area-uniform regime ("s = 0") pass a small positive epsilon such as
	// 0.01, which is indistinguishable from 0 in distribution.
	LongLinkExponent float64
	// Seed seeds the overlay's private RNG (long-link targets).
	Seed int64
	// DisableCloseNeighbours removes cn(o) from routing (ablation A1).
	DisableCloseNeighbours bool
	// DisableLongLinks removes LRn(o) from the overlay entirely
	// (ablation A2: pure Delaunay greedy routing).
	DisableLongLinks bool
	// InteriorTargets redraws each long-link target until it falls inside
	// the unit square. The paper allows LRt outside [0,1]² (§4.3.2), but
	// exterior targets pile up in the regions of the few boundary
	// objects, whose BLRn sets then grow with N: a real join or leave on
	// the hull moves a share of the pile. (Routed operations near the hull
	// do not — fictive objects hold no BLRn entry; per-join maintenance is
	// ≈ 19 messages with the switch and 23–40 without.) Conditioning the
	// target distribution on the square restores O(1) BLRn sets without
	// measurably changing routing. Off by default for paper fidelity; see
	// EXPERIMENTS.md ("A fictive object holds no back-links").
	InteriorTargets bool
}

// DefaultDMin returns the paper's close-neighbour radius for a given NMax:
// the dmin with π·dmin²·NMax = 1.
func DefaultDMin(nmax int) float64 {
	return 1 / math.Sqrt(math.Pi*float64(nmax))
}

// Object is an overlay object together with its protocol state (its "view"
// in the paper's terms). Fields are managed by the Overlay; read-only for
// callers.
type Object struct {
	ID  ObjectID
	Pos geom.Point

	vert delaunay.VertexID
	slot int32 // index of ID in Overlay.ids
	// longTargets[j] is LRt_j: the target point of the j-th long link,
	// fixed at join time (Algorithm 3). LRn_j, the object currently owning
	// the target's region, lives in Overlay.long.
	longTargets []geom.Point
	// back is BLRn: the (object, link) pairs whose target lies in this
	// object's region. Used only for long-link repair, never for routing.
	back []backEntry
}

// backEntry is one BLRn entry, holding everything the hand-over loops of
// takeOver and remove read: they compare tgt against two positions for
// every entry of every ring neighbour's list, so the target sits in the
// list itself (one sequential pass, no map probe, no pointer chase) and
// obj is dereferenced only for an entry that moves. 32 bytes.
type backEntry struct {
	obj  *Object    // the link's object; always the live o.objs[obj.ID]
	tgt  geom.Point // obj.longTargets[link], fixed for the entry's lifetime
	link int32
}

// addBack registers link j of w (whose target is already recorded) in
// holder's BLRn.
func (holder *Object) addBack(w *Object, j int) {
	holder.back = append(holder.back, backEntry{obj: w, tgt: w.longTargets[j], link: int32(j)})
}

// backIndex returns the position of link j of w in holder's BLRn, or -1.
func (holder *Object) backIndex(w *Object, j int) int {
	for i := range holder.back {
		if e := &holder.back[i]; e.obj == w && int(e.link) == j {
			return i
		}
	}
	return -1
}

// dropBack withdraws link j of w from holder's BLRn and reports whether
// it was registered there.
func (holder *Object) dropBack(w *Object, j int) bool {
	i := holder.backIndex(w, j)
	if i < 0 {
		return false
	}
	last := len(holder.back) - 1
	holder.back[i] = holder.back[last]
	holder.back[last] = backEntry{} // do not pin w past its removal
	holder.back = holder.back[:last]
	return true
}

// longLink is one LRn entry as a routing hop reads it: the neighbour's
// vertex and — so that the hop touches nothing else to learn it — the
// neighbour's position, which is fixed for as long as the vertex is live.
// The zero value (the infinite vertex) is "no link". 24 bytes.
type longLink struct {
	v   delaunay.VertexID
	pos geom.Point
}

// backRef identifies one long link of one object (BLRn entry).
type backRef struct {
	Obj  ObjectID
	Link int
}

// Counters accounts protocol costs in the paper's own units.
type Counters struct {
	// GreedySteps counts Greedyneighbour invocations (routing hops).
	GreedySteps uint64
	// JoinRouteSteps counts the routing hops spent by AddObject and
	// SearchLongLink (a subset of GreedySteps).
	JoinRouteSteps uint64
	// MaintenanceMessages counts messages exchanged by AddVoronoiRegion /
	// RemoveVoronoiRegion (O(|vn|) each, §4.2).
	MaintenanceMessages uint64
	// FictiveInserts counts fictive-object insertions (the z and Target
	// objects of Algorithms 1 and 2, which the protocol inserts and removes
	// again and the simulator charges without building; see fictiveID).
	FictiveInserts uint64
	// Joins, Leaves, Queries count completed operations.
	Joins   uint64
	Leaves  uint64
	Queries uint64
}

// Overlay is a VoroNet overlay.
//
// Concurrency: the overlay follows a single-writer / many-readers
// discipline guarded by an internal RWMutex. Mutating operations (Insert,
// Join, Remove) and RouteToObject, which charges the shared counters and
// uses the overlay's scratch buffers, take the write lock and therefore
// serialise. The read lock covers the Router engine (and the Store fast
// path built on it) plus the scratch-free accessors (Owner, Degree, Len,
// ...), so any number of goroutines can route and resolve owners
// concurrently through per-goroutine Routers, including while a single
// writer joins and leaves objects.
type Overlay struct {
	// mu is the read/write gate described above. Internal code never
	// locks; every exported entry point (and handleQuery, the serial
	// reference the Router is tested against) acquires exactly one lock
	// level and delegates to unexported lockless implementations.
	mu sync.RWMutex

	cfg  Config
	dmin float64
	rng  *rand.Rand // long-link target draws; write-locked paths only

	tr  *delaunay.Triangulation
	vor *voronoi.Diagram

	objs map[ObjectID]*Object
	// byVertex maps a live triangulation vertex to its object. A dense
	// slice, not a map: vertex slots are freelist-reused so it stays
	// compact, and the lookup sits on every hop of every route.
	byVertex []ObjectID
	// long is LRn for every object in one arena: link j of the object at
	// vertex v is long[int(v)·cfg.LongLinks + j]. Written only through
	// setLong (and cleared when remove frees the vertex), under mu held
	// exclusively, like byVertex.
	long   []longLink
	ids    []ObjectID // live IDs, for O(1) random sampling; ids[obj.slot] == obj.ID
	nextID ObjectID

	grid *closeIndex

	counters Counters

	nbuf []delaunay.VertexID // scratch (write-locked paths only)
	// cz and ct are the cavities of Algorithms 1 and 2's fictive objects,
	// the stepping-stone z and the Target (write-locked paths only).
	cz, ct delaunay.Cavity
	ring   []*Object    // remove's Voronoi neighbours (write-locked paths only)
	rpos   []geom.Point // their positions, index-aligned with ring
	rt     routeState   // routing scratch (write-locked paths only)
}

// setVertexObject records v → id, growing the vertex-indexed tables as
// the triangulation allocates new vertex slots.
func (o *Overlay) setVertexObject(v delaunay.VertexID, id ObjectID) {
	for int(v) >= len(o.byVertex) {
		o.byVertex = append(o.byVertex, NoObject)
		o.long = append(o.long, make([]longLink, o.cfg.LongLinks)...)
	}
	o.byVertex[v] = id
}

// longOf returns the LRn slots of the object at vertex v, one per
// configured long link; slots past the object's link count are empty.
func (o *Overlay) longOf(v delaunay.VertexID) []longLink {
	k := o.cfg.LongLinks
	return o.long[int(v)*k : int(v)*k+k]
}

// setLong records holder as LRn_j(w); a nil holder clears the link. Every
// write of a long link goes through here.
func (o *Overlay) setLong(w *Object, j int, holder *Object) {
	l := longLink{}
	if holder != nil {
		l = longLink{v: holder.vert, pos: holder.Pos}
	}
	o.longOf(w.vert)[j] = l
}

// longNeighbor returns LRn_j(w) as an object ID, NoObject for an orphaned
// link.
func (o *Overlay) longNeighbor(w *Object, j int) ObjectID {
	if l := o.longOf(w.vert)[j]; l.v != delaunay.Infinite {
		return o.byVertex[l.v]
	}
	return NoObject
}

// vertexObject is the bounds-checked read of the vertex→object table.
func (o *Overlay) vertexObject(v delaunay.VertexID) ObjectID {
	if v < 0 || int(v) >= len(o.byVertex) {
		return NoObject
	}
	return o.byVertex[v]
}

// New creates an empty overlay. It panics if cfg.NMax <= 0.
func New(cfg Config) *Overlay {
	if cfg.NMax <= 0 {
		panic("voronet: Config.NMax must be positive")
	}
	if cfg.LongLinks <= 0 {
		cfg.LongLinks = 1
	}
	if cfg.LongLinkExponent == 0 {
		cfg.LongLinkExponent = 2
	}
	dmin := cfg.DMin
	if dmin <= 0 {
		dmin = DefaultDMin(cfg.NMax)
	}
	tr := delaunay.New()
	o := &Overlay{
		cfg:  cfg,
		dmin: dmin,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		tr:   tr,
		vor:  voronoi.New(tr),
		objs: make(map[ObjectID]*Object),
		grid: newCloseIndex(tr, dmin, cfg.NMax),
	}
	o.rt = routeState{vor: o.vor, steps: &o.counters.GreedySteps}
	return o
}

// Len returns the number of objects in the overlay.
func (o *Overlay) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.ids)
}

// Counters returns a snapshot of the protocol cost counters.
func (o *Overlay) Counters() Counters {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.counters
}

// ResetCounters zeroes the protocol cost counters.
func (o *Overlay) ResetCounters() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counters = Counters{}
}

// RandomObject returns a uniformly random live object ID using the
// caller's RNG (so experiments control their own determinism).
func (o *Overlay) RandomObject(rng *rand.Rand) (ObjectID, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if len(o.ids) == 0 {
		return NoObject, ErrEmpty
	}
	return o.ids[rng.Intn(len(o.ids))], nil
}

// ForEachObject calls fn for every object until it returns false. The
// object list is snapshotted up front and fn runs without any lock held,
// so fn may freely call other overlay methods; objects removed by a
// concurrent writer mid-iteration are still visited with their last state.
func (o *Overlay) ForEachObject(fn func(*Object) bool) {
	o.mu.RLock()
	objs := make([]*Object, len(o.ids))
	for i, id := range o.ids {
		objs[i] = o.objs[id]
	}
	o.mu.RUnlock()
	for _, obj := range objs {
		if !fn(obj) {
			return
		}
	}
}

// closeNeighbors appends the close-neighbour view cn(o) — objects within
// dmin, excluding id itself — to buf.
func (o *Overlay) closeNeighbors(id ObjectID, buf []ObjectID) ([]ObjectID, error) {
	obj := o.objs[id]
	if obj == nil {
		return buf[:0], ErrNotFound
	}
	var vb [16]delaunay.VertexID
	buf = buf[:0]
	for _, v := range o.grid.within(obj.Pos, obj.vert, vb[:0]) {
		buf = append(buf, o.byVertex[v])
	}
	return buf, nil
}

// backLongRange returns a snapshot of the BLRn(o) view, in list order.
func (o *Overlay) backLongRange(id ObjectID) ([]backRef, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	obj := o.objs[id]
	if obj == nil {
		return nil, ErrNotFound
	}
	refs := make([]backRef, len(obj.back))
	for i, e := range obj.back {
		refs[i] = backRef{Obj: e.obj.ID, Link: int(e.link)}
	}
	return refs, nil
}

// Degree returns |vn(o)|.
func (o *Overlay) Degree(id ObjectID) (int, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	obj := o.objs[id]
	if obj == nil {
		return 0, ErrNotFound
	}
	return o.tr.Degree(obj.vert), nil
}

// Owner returns the object whose Voronoi region contains p — the paper's
// Obj(p) — resolved against the ground-truth tessellation with a read-only
// nearest-site walk. The walk starts beside p (see walkStart); hint's
// object is the start only when the close-neighbour grid has no vertex
// near p. Safe for concurrent callers; see Router for an allocation-free
// equivalent.
func (o *Overlay) Owner(p geom.Point, hint ObjectID) (ObjectID, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	id, _, err := o.owner(p, hint, nil)
	return id, err
}

// owner resolves Obj(p) without side effects, reusing vbuf for the
// nearest-site descent.
func (o *Overlay) owner(p geom.Point, hint ObjectID, vbuf []delaunay.VertexID) (ObjectID, []delaunay.VertexID, error) {
	if err := checkFinite(p); err != nil {
		return NoObject, vbuf, err
	}
	if len(o.ids) == 0 {
		return NoObject, vbuf, ErrEmpty
	}
	h := delaunay.NoVertex
	if obj := o.objs[hint]; obj != nil {
		h = obj.vert
	}
	v, vbuf := o.tr.NearestSiteRO(p, o.walkStart(p, h), vbuf)
	return o.byVertex[v], vbuf, nil
}

// walkStart returns where a walk towards p starts when the vertex the
// caller holds may be far from p: a live vertex beside p from the
// close-neighbour grid (closeIndex.near), or fallback when the grid has
// none within its ring limit. This is the one place that fallback lives.
// The walk's answer does not depend on its start, except at exact ties
// between equidistant sites.
func (o *Overlay) walkStart(p geom.Point, fallback delaunay.VertexID) delaunay.VertexID {
	if v := o.grid.near(p, len(o.ids)); v != delaunay.NoVertex {
		return v
	}
	return fallback
}

// checkFinite rejects a position with a NaN or infinite coordinate: such
// a point has no place in the tessellation, and the grid would clamp it
// into a border cell.
func checkFinite(p geom.Point) error {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return fmt.Errorf("voronet: position %v is not finite", p)
	}
	return nil
}

// Insert adds an object at p directly against the shared substrate: the
// structural result (tessellation, close neighbourhoods, long-link
// distribution and repair) is identical to a protocol Join, without the
// routing cost accounting. The figure harness uses Insert to build large
// overlays; Join exercises and accounts the full Algorithm 1 path.
func (o *Overlay) Insert(p geom.Point) (ObjectID, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.insert(p, delaunay.NoVertex)
}

// insert adds a regular object at p: tessellation surgery, the BLRn
// take-over, and its long links. Without a hint the location walk starts
// beside p (walkStart), falling back to the last face the triangulation
// touched.
func (o *Overlay) insert(p geom.Point, hint delaunay.VertexID) (ObjectID, error) {
	if err := checkFinite(p); err != nil {
		return NoObject, err
	}
	if hint == delaunay.NoVertex {
		hint = o.walkStart(p, delaunay.NoVertex)
	}
	id, obj, err := o.insertBase(p, hint)
	if err != nil {
		return NoObject, err
	}
	o.takeOver(obj)
	// Choose the long-link targets and resolve their owners directly
	// against the tessellation (structurally identical to the routed
	// SearchLongLink used by Join).
	if !o.cfg.DisableLongLinks {
		for j := 0; j < o.cfg.LongLinks; j++ {
			tgt := o.chooseLRT(p)
			o.registerLongLink(obj, j, tgt)
		}
	}
	return id, nil
}

// insertBase performs the link-free part of an insertion: tessellation
// surgery and bookkeeping. The object holds no BLRn entry until takeOver
// runs for it.
func (o *Overlay) insertBase(p geom.Point, hint delaunay.VertexID) (ObjectID, *Object, error) {
	v, err := o.tr.Insert(p, hint)
	if err != nil {
		if errors.Is(err, delaunay.ErrDuplicate) {
			return NoObject, nil, ErrDuplicate
		}
		return NoObject, nil, fmt.Errorf("voronet: insert: %w", err)
	}
	id := o.nextID
	o.nextID++
	obj := &Object{ID: id, Pos: p, vert: v, slot: int32(len(o.ids))}
	o.objs[id] = obj
	o.setVertexObject(v, id)
	o.ids = append(o.ids, id)
	o.grid.add(v)
	return id, obj, nil
}

// takeOver moves to obj the back long-range links whose targets fall in
// its region: each Voronoi neighbour hands over the BLRn entries that are
// closer to obj than to it (§4.2.1). The exchange preserves the exact
// invariant LRn_j(w) = Obj(LRt_j(w)), provided every neighbour is a real
// object: the previous owner of any point of R(obj) is then among them.
func (o *Overlay) takeOver(obj *Object) {
	p := obj.Pos
	o.nbuf = o.tr.Neighbors(obj.vert, o.nbuf)
	for _, nv := range o.nbuf {
		nb := o.objs[o.byVertex[nv]]
		kept := nb.back[:0]
		for _, e := range nb.back {
			if geom.Dist2(p, e.tgt) < geom.Dist2(nb.Pos, e.tgt) {
				o.setLong(e.obj, int(e.link), obj)
				obj.back = append(obj.back, e)
			} else {
				kept = append(kept, e)
			}
		}
		clear(nb.back[len(kept):]) // do not pin the moved entries' objects
		nb.back = kept
	}
}

// registerLongLink resolves Obj(tgt) with a nearest-site walk that starts
// beside tgt (walkStart, falling back to obj) and records link j of obj:
// target, owner, and the owner's BLRn entry. Caller holds the write lock.
func (o *Overlay) registerLongLink(obj *Object, j int, tgt geom.Point) {
	obj.longTargets = append(obj.longTargets, tgt)
	var v delaunay.VertexID
	v, o.nbuf = o.tr.NearestSiteRO(tgt, o.walkStart(tgt, obj.vert), o.nbuf)
	holder := o.objs[o.byVertex[v]]
	o.setLong(obj, j, holder)
	holder.addBack(obj, j)
}

// Remove deletes object id and repairs the overlay per §4.2.2
// (RemoveVoronoiRegion): neighbours recompute the tessellation, close
// neighbours are informed, and every BLRn entry is delegated to the Voronoi
// neighbour closest to its target, which is exactly the new owner of the
// target point.
func (o *Overlay) Remove(id ObjectID) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.remove(id)
}

func (o *Overlay) remove(id ObjectID) error {
	obj := o.objs[id]
	if obj == nil {
		return ErrNotFound
	}

	// The Voronoi neighbours before surgery each learn of the departure.
	o.nbuf = o.tr.Neighbors(obj.vert, o.nbuf)
	o.counters.MaintenanceMessages += uint64(len(o.nbuf))

	// Delegate BLRn entries to the closest Voronoi neighbour (the first
	// such in ring order). The ring — the neighbours' records with their
	// positions side by side, every entry being measured against all of
	// them — is built for the first entry there is to place, and not at all
	// for an object that holds none.
	o.ring, o.rpos = o.ring[:0], o.rpos[:0]
	for _, e := range obj.back {
		if e.obj == obj {
			continue // our own self-link dies with us
		}
		if len(o.ring) == 0 {
			for _, nv := range o.nbuf {
				nb := o.objs[o.byVertex[nv]]
				o.ring = append(o.ring, nb)
				o.rpos = append(o.rpos, nb.Pos)
			}
		}
		best := -1
		bestD := math.Inf(1)
		for i, q := range o.rpos {
			if d := geom.Dist2(q, e.tgt); d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			// Last object leaving: the link cannot be repaired; drop it.
			o.setLong(e.obj, int(e.link), nil)
			continue
		}
		o.setLong(e.obj, int(e.link), o.ring[best])
		o.ring[best].back = append(o.ring[best].back, e)
		o.counters.MaintenanceMessages += 2 // inform z and y (§4.2.2)
	}
	obj.back = nil

	// Withdraw our own long links from their holders' BLRn sets.
	for j := range obj.longTargets {
		nid := o.longNeighbor(obj, j)
		if nid == id || nid == NoObject {
			continue
		}
		o.objs[nid].dropBack(obj, j)
		o.counters.MaintenanceMessages++
	}

	// Close neighbours learn of the departure (§4.2.2).
	o.nbuf = o.grid.within(obj.Pos, obj.vert, o.nbuf)
	o.counters.MaintenanceMessages += uint64(len(o.nbuf))

	if err := o.tr.Remove(obj.vert); err != nil {
		return fmt.Errorf("voronet: remove: %w", err)
	}
	o.grid.remove(obj.vert, obj.Pos)
	o.byVertex[obj.vert] = NoObject
	clear(o.longOf(obj.vert))
	// The last live ID takes over the freed slot (itself, when obj is last).
	last := len(o.ids) - 1
	moved := o.objs[o.ids[last]]
	o.ids[obj.slot], moved.slot = moved.ID, obj.slot
	o.ids = o.ids[:last]
	delete(o.objs, id)
	o.counters.Leaves++
	return nil
}
