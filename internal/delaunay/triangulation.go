// Package delaunay implements a fully dynamic Delaunay triangulation of the
// plane: incremental insertion, vertex removal, point location and
// nearest-site queries, all exact.
//
// This is the geometric substrate of VoroNet (§2.2 of the paper): the
// Voronoi neighbours vn(o) of an object are exactly its Delaunay
// neighbours, and every protocol operation (AddVoronoiRegion,
// RemoveVoronoiRegion, DistanceToRegion) reduces to operations here.
//
// Design notes:
//
//   - The triangulation is closed into a combinatorial sphere by a single
//     symbolic vertex at infinity (Infinite). Every convex-hull edge is
//     incident to one finite and one "infinite" face. Unlike a far-away
//     super-triangle, this represents the exact Delaunay triangulation of
//     the sites — no spurious or missing hull adjacencies, which matters
//     because neighbour sets are protocol state in VoroNet.
//   - All predicates are exact (internal/geom), so degenerate inputs
//     (duplicate, collinear, co-circular sites) never corrupt the topology.
//     This is the same robustness goal the paper imports from Sugihara–Iri
//     [13], achieved with exact adaptive arithmetic instead.
//   - Fewer than three non-collinear sites cannot be represented as a
//     2-D triangulation; the structure transparently runs in a degenerate
//     low-dimension mode (sorted collinear chain) and upgrades/downgrades
//     as sites come and go.
//   - Each vertex keeps its Voronoi neighbours in adjK vertex-indexed slots,
//     so Neighbors, called once per routing hop, reads one record instead
//     of walking the faces around the vertex. Every write of a vertex's
//     incident face goes through setFace, which queues the vertex; every
//     face entering a fan comes from newFace, which calls it. Insert and
//     Remove flush the queue before they return, refilling each queued
//     vertex's slots with the fan walk (InsertBulkParallel flushes once,
//     at the end), so outside them the slots equal the walk.
//
// The structure is not safe for concurrent mutation; the VoroNet simulator
// drives one triangulation per overlay from a single goroutine.
package delaunay

import (
	"errors"
	"fmt"
	"math/rand"

	"voronet/internal/geom"
)

// VertexID identifies a site. IDs are stable for the lifetime of the site
// but are recycled after Remove; callers must not retain IDs of removed
// sites.
type VertexID int32

// FaceID identifies a triangle (possibly infinite). Face IDs are internal
// and recycled aggressively; they are exposed only for iteration.
type FaceID int32

// Infinite is the symbolic vertex at infinity closing the triangulation
// into a sphere. It is never returned as a neighbour.
const Infinite VertexID = 0

// NoVertex and NoFace are sentinel values.
const (
	NoVertex VertexID = -1
	NoFace   FaceID   = -1
)

// Errors returned by Insert and Remove.
var (
	// ErrDuplicate reports an insertion at the exact position of an
	// existing site. The existing site's ID accompanies it via
	// duplicateError.
	ErrDuplicate = errors.New("delaunay: duplicate site")
	// ErrNotFound reports an operation on a dead or out-of-range vertex.
	ErrNotFound = errors.New("delaunay: no such site")
)

// duplicateError wraps ErrDuplicate with the existing site.
type duplicateError struct {
	Existing VertexID
}

func (e *duplicateError) Error() string {
	return fmt.Sprintf("delaunay: duplicate site (existing vertex %d)", e.Existing)
}

// Is reports whether target is ErrDuplicate.
func (e *duplicateError) Is(target error) bool { return target == ErrDuplicate }

// adjK is the number of neighbour slots per vertex. Over the fans that the
// GETs of a 300 000-object uniform overlay read, each weighted by how often
// it is read, degree <= 8 covers 87.3 %, <= 10 covers 96.1 % and <= 12
// 97.7 %. Sites of degree > 10 are 0.2 % of the vertices but 3.9 % of the
// reads, because hull sites and large cells lie on many routes. So 8 slots
// would leave one read in eight on the fan walk, and 12 would buy 1.5
// points for 8 more bytes per vertex.
const adjK = 10

type vertex struct {
	p      geom.Point
	face   FaceID // some incident face (valid in dim 2); set through setFace
	alive  bool
	nadj   uint8 // finite neighbours held in adj[v]; adjK+1 when the fan is wider
	queued bool  // in Triangulation.queue, awaiting its slots' refill
}

type face struct {
	v     [3]VertexID
	n     [3]FaceID // n[i] is the neighbour opposite v[i]
	alive bool
}

// Triangulation is a dynamic Delaunay triangulation. The zero value is not
// usable; call New.
type Triangulation struct {
	verts     []vertex
	adj       [][adjK]VertexID // adj[v][:n] is Neighbors(v) in dim 2 when n = verts[v].nadj <= adjK
	faces     []face
	freeVerts []VertexID
	freeFaces []FaceID

	nFinite      int // live finite vertices
	nFiniteFaces int // live finite faces

	// rebuilds counts how many times Remove fell back to a full rebuild.
	// The fallback preserves correctness on pathologically degenerate
	// inputs at O(n) cost; it should be (and in all our workloads is)
	// essentially never taken.
	rebuilds int

	// dim is the affine dimension of the current site set: -1 empty,
	// 0 one site, 1 collinear sites, 2 full triangulation.
	dim int
	// line holds the sites in lexicographic order while dim < 2.
	line []VertexID

	lastFace FaceID // walk hint
	rng      *rand.Rand

	// queue holds the vertices whose incident face was written since the
	// last flush.
	queue []VertexID

	// scratch buffers reused across operations.
	cav    Cavity
	rm     removal
	starF  []FaceID
	starV  []VertexID
	fanBuf []VertexID
}

// removal is Remove's scratch: the hole's boundary as a linked ring of
// link corners, each with the outer face edge its boundary edge meets.
type removal struct {
	owner []faceEdge // owner[i]: the face edge across corner i's boundary edge
	next  []int
	prev  []int
}

type bEdge struct {
	a, b    VertexID // directed edge, cavity on the left
	out     FaceID   // face outside the cavity across (a,b)
	outIdx  int      // index of this edge in out (opposite-vertex index)
	newFace FaceID   // face created for this edge (filled during stitching)
}

// New returns an empty triangulation.
func New() *Triangulation {
	t := &Triangulation{
		dim: -1,
		rng: rand.New(rand.NewSource(0x5eed)),
	}
	// Vertex 0 is the infinite vertex.
	t.verts = append(t.verts, vertex{alive: true, face: NoFace})
	t.adj = append(t.adj, [adjK]VertexID{})
	t.lastFace = NoFace
	return t
}

// NumSites returns the number of live finite sites.
func (t *Triangulation) NumSites() int { return t.nFinite }

// numFiniteFaces returns the number of live finite faces.
func (t *Triangulation) numFiniteFaces() int { return t.nFiniteFaces }

// Dimension returns the affine dimension of the site set: -1 when empty,
// 0 for a single site, 1 while all sites are collinear, 2 otherwise.
func (t *Triangulation) Dimension() int { return t.dim }

// Point returns the position of v. It panics if v is the infinite vertex
// and returns ErrNotFound-adjacent zero value for dead vertices; callers
// should use Alive for validation.
func (t *Triangulation) Point(v VertexID) geom.Point {
	return t.verts[v].p
}

// Alive reports whether v is a live finite site.
func (t *Triangulation) Alive(v VertexID) bool {
	return v > 0 && int(v) < len(t.verts) && t.verts[v].alive
}

// IsFinite reports whether v is not the infinite vertex.
func IsFinite(v VertexID) bool { return v != Infinite }

// newVertex allocates (or recycles) a vertex record.
func (t *Triangulation) newVertex(p geom.Point) VertexID {
	if n := len(t.freeVerts); n > 0 {
		id := t.freeVerts[n-1]
		t.freeVerts = t.freeVerts[:n-1]
		// A vertex freed and reused before the flush stays queued once.
		t.verts[id] = vertex{p: p, face: NoFace, alive: true, queued: t.verts[id].queued}
		return id
	}
	t.verts = append(t.verts, vertex{p: p, face: NoFace, alive: true})
	t.adj = append(t.adj, [adjK]VertexID{})
	return VertexID(len(t.verts) - 1)
}

func (t *Triangulation) freeVertex(v VertexID) {
	t.verts[v].alive = false
	t.setFace(v, NoFace)
	t.freeVerts = append(t.freeVerts, v)
}

// setFace is the one write of a vertex's incident-face pointer. It queues v
// for the next flush, which refills v's neighbour slots.
func (t *Triangulation) setFace(v VertexID, f FaceID) {
	vx := &t.verts[v]
	vx.face = f
	if !vx.queued {
		vx.queued = true
		t.queue = append(t.queue, v)
	}
}

// flush refills the neighbour slots of every queued live vertex from its
// fan and empties the queue.
func (t *Triangulation) flush() {
	for _, v := range t.queue {
		vx := &t.verts[v]
		vx.queued = false
		if !t.Alive(v) || t.dim < 2 {
			continue
		}
		t.fanBuf = t.fan(v, t.fanBuf[:0])
		if n := len(t.fanBuf); n <= adjK {
			copy(t.adj[v][:], t.fanBuf)
			vx.nadj = uint8(n)
		} else {
			vx.nadj = adjK + 1
		}
	}
	t.queue = t.queue[:0]
}

// newFace allocates (or recycles) a face record.
func (t *Triangulation) newFace(a, b, c VertexID) FaceID {
	f := face{v: [3]VertexID{a, b, c}, n: [3]FaceID{NoFace, NoFace, NoFace}, alive: true}
	var id FaceID
	if n := len(t.freeFaces); n > 0 {
		id = t.freeFaces[n-1]
		t.freeFaces = t.freeFaces[:n-1]
		t.faces[id] = f
	} else {
		t.faces = append(t.faces, f)
		id = FaceID(len(t.faces) - 1)
	}
	if a == Infinite || b == Infinite || c == Infinite {
		// infinite face
	} else {
		t.nFiniteFaces++
	}
	// Make the incidence pointers of its vertices valid.
	t.setFace(a, id)
	t.setFace(b, id)
	t.setFace(c, id)
	return id
}

func (t *Triangulation) freeFace(f FaceID) {
	if t.isFiniteFace(f) {
		t.nFiniteFaces--
	}
	t.faces[f].alive = false
	t.freeFaces = append(t.freeFaces, f)
}

func (t *Triangulation) isFiniteFace(f FaceID) bool {
	fc := &t.faces[f]
	return fc.v[0] != Infinite && fc.v[1] != Infinite && fc.v[2] != Infinite
}

// vertIndex returns the index of v in face f, or -1.
func (t *Triangulation) vertIndex(f FaceID, v VertexID) int {
	fc := &t.faces[f]
	for i := 0; i < 3; i++ {
		if fc.v[i] == v {
			return i
		}
	}
	return -1
}

// neighborIndex returns the index k such that t.faces[g].n[k] == f.
func (t *Triangulation) neighborIndex(g, f FaceID) int {
	gc := &t.faces[g]
	for k := 0; k < 3; k++ {
		if gc.n[k] == f {
			return k
		}
	}
	panic("delaunay: neighbour inconsistency")
}

// link sets mutual adjacency: f across its edge fi faces g across its edge gi.
func (t *Triangulation) link(f FaceID, fi int, g FaceID, gi int) {
	t.faces[f].n[fi] = g
	t.faces[g].n[gi] = f
}

// ccwNextAround returns the next face counterclockwise around vertex v
// starting from face f (which must contain v).
func (t *Triangulation) ccwNextAround(v VertexID, f FaceID) FaceID {
	i := t.vertIndex(f, v)
	return t.faces[f].n[(i+1)%3]
}

// Neighbors appends the finite Delaunay neighbours of v to buf and returns
// it. In VoroNet terms this is vn(o), the Voronoi-neighbour view of an
// object. The neighbours are in counterclockwise order around v (for
// dimension 2), starting from its incident face, and are read from v's
// slots unless its fan is wider than adjK.
func (t *Triangulation) Neighbors(v VertexID, buf []VertexID) []VertexID {
	buf = buf[:0]
	if !t.Alive(v) {
		return buf
	}
	if t.dim < 2 {
		idx := t.lineIndex(v)
		if idx > 0 {
			buf = append(buf, t.line[idx-1])
		}
		if idx >= 0 && idx+1 < len(t.line) {
			buf = append(buf, t.line[idx+1])
		}
		return buf
	}
	if n := t.verts[v].nadj; n <= adjK {
		return append(buf, t.adj[v][:n]...)
	}
	return t.fan(v, buf)
}

// fan appends the finite neighbours of v, walking its faces
// counterclockwise from verts[v].face. It fills the slots and serves
// Neighbors for the fans wider than adjK.
func (t *Triangulation) fan(v VertexID, buf []VertexID) []VertexID {
	start := t.verts[v].face
	f := start
	for {
		i := t.vertIndex(f, v)
		fc := &t.faces[f]
		if u := fc.v[(i+1)%3]; u != Infinite {
			buf = append(buf, u)
		}
		f = fc.n[(i+1)%3]
		if f == start {
			return buf
		}
	}
}

// Degree returns the number of finite neighbours of v without allocating.
func (t *Triangulation) Degree(v VertexID) int {
	if !t.Alive(v) || t.dim < 2 || t.verts[v].nadj <= adjK {
		var buf [adjK]VertexID
		return len(t.Neighbors(v, buf[:0]))
	}
	n := 0
	t.facesAround(v, func(_, b, _ VertexID) bool {
		if b != Infinite {
			n++
		}
		return true
	})
	return n
}

// ForEachFiniteFace calls fn for every finite face (counterclockwise vertex
// triple) until fn returns false. Only meaningful in dimension 2.
func (t *Triangulation) ForEachFiniteFace(fn func(a, b, c VertexID) bool) {
	for id := range t.faces {
		fc := &t.faces[id]
		if fc.alive && fc.v[0] != Infinite && fc.v[1] != Infinite && fc.v[2] != Infinite {
			if !fn(fc.v[0], fc.v[1], fc.v[2]) {
				return
			}
		}
	}
}

// facesAround calls fn for each face incident to v in counterclockwise
// order. fn receives the face's vertices with v first. Infinite faces are
// included (one of b, c is Infinite). Only valid in dimension 2.
func (t *Triangulation) facesAround(v VertexID, fn func(a, b, c VertexID) bool) {
	if !t.Alive(v) || t.dim < 2 {
		return
	}
	start := t.verts[v].face
	f := start
	for {
		i := t.vertIndex(f, v)
		fc := &t.faces[f]
		if !fn(v, fc.v[(i+1)%3], fc.v[(i+2)%3]) {
			return
		}
		f = t.ccwNextAround(v, f)
		if f == start {
			return
		}
	}
}

// lineIndex returns the index of v in the degenerate-mode chain, or -1.
func (t *Triangulation) lineIndex(v VertexID) int {
	for i, u := range t.line {
		if u == v {
			return i
		}
	}
	return -1
}

// lexLess orders points lexicographically; along a common line this is a
// monotone (hence linear) order, used by the degenerate mode.
func lexLess(p, q geom.Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}
