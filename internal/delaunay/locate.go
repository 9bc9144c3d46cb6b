package delaunay

import (
	"math"

	"voronet/internal/geom"
)

// LocKind classifies the result of point location.
type LocKind int

const (
	// LocFace: the query lies strictly inside a finite face.
	LocFace LocKind = iota
	// LocEdge: the query lies in the interior of a finite edge.
	LocEdge
	// LocVertex: the query coincides with a site.
	LocVertex
	// LocOutside: the query lies outside the convex hull; Face is an
	// infinite face whose hull edge strictly sees the query.
	LocOutside
)

// Location is the result of locate.
type Location struct {
	Kind   LocKind
	Face   FaceID
	Edge   int      // for LocEdge: index (opposite vertex) of the edge in Face
	Vertex VertexID // for LocVertex: the coincident site
}

// walkRng is a tiny xorshift64 generator used to randomise the probe order
// of a visibility walk without touching the triangulation's shared RNG, so
// read-only walks stay side-effect-free and safe for concurrent callers.
type walkRng uint64

func (w *walkRng) intn3() int {
	x := uint64(*w)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*w = walkRng(x)
	return int(x % 3)
}

// locate finds the position of p in the triangulation using a remembering
// visibility walk starting near hint (a live vertex, or NoVertex to start
// from the last touched face). It requires dimension 2.
//
// The walk is guaranteed to terminate on a Delaunay triangulation; as a
// defence in depth a step budget triggers an exhaustive scan.
func (t *Triangulation) locate(p geom.Point, hint VertexID) Location {
	return t.locateWalk(p, t.startFace(hint), nil)
}

// LocateRO is locate without side effects: it neither advances the
// triangulation's walk RNG nor updates the last-face cache, so any number
// of goroutines may call it concurrently as long as no insertion or
// removal runs at the same time.
func (t *Triangulation) LocateRO(p geom.Point, hint VertexID) Location {
	ro := walkRng(math.Float64bits(p.X)*0x9e3779b97f4a7c15 ^ math.Float64bits(p.Y) | 1)
	return t.locateWalk(p, t.startFace(hint), &ro)
}

// startFace picks the walk's starting face from the hint (falling back to
// the last touched face, then any live face).
func (t *Triangulation) startFace(hint VertexID) FaceID {
	start := t.lastFace
	if hint != NoVertex && t.Alive(hint) && t.verts[hint].face != NoFace {
		start = t.verts[hint].face
	}
	if start == NoFace || !t.faces[start].alive {
		start = t.anyAliveFace()
	}
	return start
}

func (t *Triangulation) anyAliveFace() FaceID {
	for id := range t.faces {
		if t.faces[id].alive {
			return FaceID(id)
		}
	}
	return NoFace
}

// locateWalk runs the visibility walk. A nil ro selects the mutating mode
// (shared RNG for probe order, last-face cache updated); a non-nil ro makes
// the walk read-only, drawing probe order from ro and leaving every shared
// field untouched.
func (t *Triangulation) locateWalk(p geom.Point, start FaceID, ro *walkRng) Location {
	f := start
	// If we start on an infinite face, step to its finite neighbour.
	if !t.isFiniteFace(f) {
		i := t.vertIndex(f, Infinite)
		f = t.faces[f].n[i]
	}
	prev := NoFace
	maxSteps := 8*(t.nFinite+16) + 64
	for step := 0; ; step++ {
		if step > maxSteps {
			// Should be unreachable (the visibility walk terminates on
			// Delaunay triangulations); fall back to an exhaustive scan so a
			// latent bug degrades to O(n) instead of a hang.
			return t.locateExhaustive(p, ro == nil)
		}
		fc := &t.faces[f]
		if fc.v[0] == Infinite || fc.v[1] == Infinite || fc.v[2] == Infinite {
			// We crossed a hull edge strictly: p is outside.
			return Location{Kind: LocOutside, Face: f}
		}
		var orients [3]int
		moved := false
		// Randomise the edge probing order so the walk cannot cycle.
		var r int
		if ro != nil {
			r = ro.intn3()
		} else {
			r = t.rng.Intn(3)
		}
		for j := 0; j < 3; j++ {
			k := (r + j) % 3
			if fc.n[k] == prev && prev != NoFace {
				orients[k] = 1 // entry edge is strictly positive by construction
				continue
			}
			u := t.verts[fc.v[(k+1)%3]].p
			v := t.verts[fc.v[(k+2)%3]].p
			o := geom.Orient2D(u, v, p)
			orients[k] = o
			if o < 0 {
				prev = f
				f = fc.n[k]
				moved = true
				break
			}
		}
		if moved {
			continue
		}
		// p is inside the closed triangle.
		if ro == nil {
			t.lastFace = f
		}
		zeroCount := 0
		zeroIdx := -1
		for k := 0; k < 3; k++ {
			if orients[k] == 0 {
				zeroCount++
				zeroIdx = k
			}
		}
		switch zeroCount {
		case 0:
			return Location{Kind: LocFace, Face: f}
		case 1:
			return Location{Kind: LocEdge, Face: f, Edge: zeroIdx}
		default:
			// On two edge lines at once: p coincides with the shared vertex.
			for k := 0; k < 3; k++ {
				if orients[k] != 0 {
					return Location{Kind: LocVertex, Face: f, Vertex: fc.v[k]}
				}
			}
			// All three zero is impossible for a non-degenerate face.
			return Location{Kind: LocVertex, Face: f, Vertex: fc.v[0]}
		}
	}
}

// locateExhaustive is the O(n) fallback: test every face. record controls
// whether the last-face cache is updated (false on read-only walks).
func (t *Triangulation) locateExhaustive(p geom.Point, record bool) Location {
	for id := range t.faces {
		fc := &t.faces[id]
		if !fc.alive {
			continue
		}
		if fc.v[0] == Infinite || fc.v[1] == Infinite || fc.v[2] == Infinite {
			continue
		}
		var orients [3]int
		inside := true
		for k := 0; k < 3; k++ {
			u := t.verts[fc.v[(k+1)%3]].p
			v := t.verts[fc.v[(k+2)%3]].p
			orients[k] = geom.Orient2D(u, v, p)
			if orients[k] < 0 {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		f := FaceID(id)
		if record {
			t.lastFace = f
		}
		zeroCount, zeroIdx := 0, -1
		for k := 0; k < 3; k++ {
			if orients[k] == 0 {
				zeroCount++
				zeroIdx = k
			}
		}
		switch zeroCount {
		case 0:
			return Location{Kind: LocFace, Face: f}
		case 1:
			return Location{Kind: LocEdge, Face: f, Edge: zeroIdx}
		default:
			for k := 0; k < 3; k++ {
				if orients[k] != 0 {
					return Location{Kind: LocVertex, Face: f, Vertex: fc.v[k]}
				}
			}
		}
	}
	// p is in no finite face: outside the hull. Find a strictly visible
	// hull edge.
	for id := range t.faces {
		fc := &t.faces[id]
		if !fc.alive {
			continue
		}
		i := t.vertIndex(FaceID(id), Infinite)
		if i < 0 {
			continue
		}
		u := t.verts[fc.v[(i+1)%3]].p
		v := t.verts[fc.v[(i+2)%3]].p
		if geom.Orient2D(u, v, p) > 0 {
			return Location{Kind: LocOutside, Face: FaceID(id)}
		}
	}
	// Unreachable in dimension 2: a point outside the hull always has a
	// strictly visible hull edge (tangent locations turn the hull corner).
	panic("delaunay: exhaustive location failed")
}

// NearestSiteRO returns the live site closest to p (ties broken
// arbitrarily but deterministically), using point location from hint's
// face plus greedy descent over Delaunay neighbours. It has no side
// effects: the location walk neither advances the shared RNG nor updates
// the last-face cache, and the neighbour scratch comes from the caller,
// so concurrent goroutines may resolve owners simultaneously on a frozen
// triangulation. It returns the (possibly grown) scratch buffer for reuse.
//
// This is exactly the paper's Obj(Target): the object whose Voronoi region
// contains the point. The greedy descent is sound because in a Delaunay
// triangulation every non-nearest vertex has a neighbour strictly closer
// to the query.
func (t *Triangulation) NearestSiteRO(p geom.Point, hint VertexID, buf []VertexID) (VertexID, []VertexID) {
	if t.nFinite == 0 {
		return NoVertex, buf
	}
	if t.dim < 2 {
		best := NoVertex
		bestD := 0.0
		for _, v := range t.line {
			d := geom.Dist2(p, t.verts[v].p)
			if best == NoVertex || d < bestD {
				best, bestD = v, d
			}
		}
		return best, buf
	}
	loc := t.LocateRO(p, hint)
	var cur VertexID
	switch loc.Kind {
	case LocVertex:
		return loc.Vertex, buf
	default:
		fc := &t.faces[loc.Face]
		cur = NoVertex
		best := 0.0
		for k := 0; k < 3; k++ {
			if fc.v[k] == Infinite {
				continue
			}
			d := geom.Dist2(p, t.verts[fc.v[k]].p)
			if cur == NoVertex || d < best {
				cur, best = fc.v[k], d
			}
		}
	}
	// Greedy descent.
	for {
		buf = t.Neighbors(cur, buf)
		best := cur
		bestD := geom.Dist2(p, t.verts[cur].p)
		for _, u := range buf {
			if d := geom.Dist2(p, t.verts[u].p); d < bestD {
				best, bestD = u, d
			}
		}
		if best == cur {
			return cur, buf
		}
		cur = best
	}
}
