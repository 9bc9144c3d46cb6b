package delaunay

import (
	"fmt"
	"slices"

	"voronet/internal/geom"
)

// Validate checks every structural and geometric invariant of the
// triangulation and returns the first violation found, or nil. It is
// O(n) with exact predicates and intended for tests and debugging.
//
// Checked invariants:
//
//  1. face/neighbour records are mutually consistent and reference live
//     entities;
//  2. every finite face is strictly counterclockwise;
//  3. every infinite face has exactly one infinite vertex;
//  4. vertex→face incidence pointers are valid;
//  5. Euler's formula for the sphere (V − E + F = 2);
//  6. the empty-circumcircle property holds across every internal edge and
//     the hull is convex (local Delaunayhood, which implies global);
//  7. in degenerate mode, the chain is sorted, collinear and complete;
//  8. no vertex is queued for a refill of its neighbour slots, and every
//     live vertex whose fan has at most adjK finite neighbours holds
//     exactly its fan walk in its slots, while a wider fan is marked so
//     Neighbors walks it.
func (t *Triangulation) Validate() error {
	if len(t.queue) != 0 || slices.ContainsFunc(t.verts, func(x vertex) bool { return x.queued }) {
		return fmt.Errorf("vertices queued outside Insert/Remove (queue length %d)", len(t.queue))
	}
	if t.dim < 2 {
		return t.validateLowDim()
	}
	nAliveFaces := 0
	nFiniteFaces := 0
	for id := range t.faces {
		fc := &t.faces[id]
		if !fc.alive {
			continue
		}
		f := FaceID(id)
		nAliveFaces++
		nInf := 0
		for k := 0; k < 3; k++ {
			v := fc.v[k]
			if v == Infinite {
				nInf++
				continue
			}
			if !t.Alive(v) {
				return fmt.Errorf("face %d references dead vertex %d", f, v)
			}
		}
		if fc.v[0] == fc.v[1] || fc.v[1] == fc.v[2] || fc.v[0] == fc.v[2] {
			return fmt.Errorf("face %d has repeated vertices %v", f, fc.v)
		}
		if nInf > 1 {
			return fmt.Errorf("face %d has %d infinite vertices", f, nInf)
		}
		if nInf == 0 {
			nFiniteFaces++
			a, b, c := t.verts[fc.v[0]].p, t.verts[fc.v[1]].p, t.verts[fc.v[2]].p
			if geom.Orient2D(a, b, c) <= 0 {
				return fmt.Errorf("finite face %d %v is not strictly ccw", f, fc.v)
			}
		}
		// Neighbour consistency: the neighbour across edge k shares exactly
		// that edge, reversed.
		for k := 0; k < 3; k++ {
			g := fc.n[k]
			if g < 0 || int(g) >= len(t.faces) || !t.faces[g].alive {
				return fmt.Errorf("face %d neighbour %d across %d is dead", f, g, k)
			}
			a := fc.v[(k+1)%3]
			b := fc.v[(k+2)%3]
			gi := -1
			for kk := 0; kk < 3; kk++ {
				if t.faces[g].n[kk] == f {
					gi = kk
					break
				}
			}
			if gi < 0 {
				return fmt.Errorf("face %d -> %d adjacency is not mutual", f, g)
			}
			ga := t.faces[g].v[(gi+1)%3]
			gb := t.faces[g].v[(gi+2)%3]
			if ga != b || gb != a {
				return fmt.Errorf("face %d edge (%d,%d) mismatches neighbour %d edge (%d,%d)",
					f, a, b, g, ga, gb)
			}
		}
	}
	if nFiniteFaces != t.nFiniteFaces {
		return fmt.Errorf("finite face count: have %d, tracked %d", nFiniteFaces, t.nFiniteFaces)
	}

	// Vertex incidence and count.
	nAliveVerts := 0
	for id := 1; id < len(t.verts); id++ {
		if !t.verts[id].alive {
			continue
		}
		nAliveVerts++
		f := t.verts[id].face
		if f == NoFace || !t.faces[f].alive || t.vertIndex(f, VertexID(id)) < 0 {
			return fmt.Errorf("vertex %d incidence pointer invalid (face %d)", id, f)
		}
	}
	if nAliveVerts != t.nFinite {
		return fmt.Errorf("site count: have %d, tracked %d", nAliveVerts, t.nFinite)
	}
	var walk, got []VertexID
	for id := VertexID(1); int(id) < len(t.verts); id++ {
		if !t.verts[id].alive {
			continue
		}
		walk, got = t.fan(id, walk[:0]), t.Neighbors(id, got)
		if n := t.verts[id].nadj; (n <= adjK) != (len(walk) <= adjK) || !slices.Equal(got, walk) {
			return fmt.Errorf("vertex %d: Neighbors %v (count byte %d), fan walk %v", id, got, n, walk)
		}
	}
	// Euler: V - E + F = 2 with V including the infinite vertex and
	// E = 3F/2 on a closed triangulated sphere.
	if 3*nAliveFaces%2 != 0 {
		return fmt.Errorf("odd edge incidence count")
	}
	v := nAliveVerts + 1
	e := 3 * nAliveFaces / 2
	if v-e+nAliveFaces != 2 {
		return fmt.Errorf("Euler formula violated: V=%d E=%d F=%d", v, e, nAliveFaces)
	}

	// Local Delaunay property across every edge.
	for id := range t.faces {
		fc := &t.faces[id]
		if !fc.alive {
			continue
		}
		fin := fc.v[0] != Infinite && fc.v[1] != Infinite && fc.v[2] != Infinite
		for k := 0; k < 3; k++ {
			g := fc.n[k]
			gi := -1
			for kk := 0; kk < 3; kk++ {
				if t.faces[g].n[kk] == FaceID(id) {
					gi = kk
					break
				}
			}
			d := t.faces[g].v[gi]
			if fin {
				if d == Infinite {
					continue
				}
				a, b, c := t.verts[fc.v[0]].p, t.verts[fc.v[1]].p, t.verts[fc.v[2]].p
				if geom.InCircle(a, b, c, t.verts[d].p) > 0 {
					return fmt.Errorf("face %d is not Delaunay: vertex %d inside circumcircle", id, d)
				}
			} else {
				// Hull convexity: for infinite face (u, w, inf), the finite
				// apex of the neighbouring infinite faces must not lie
				// strictly outside the hull edge.
				ii := t.vertIndex(FaceID(id), Infinite)
				if k == ii {
					continue // finite neighbour across the hull edge
				}
				if d == Infinite {
					return fmt.Errorf("two adjacent faces share the infinite apex improperly")
				}
				u := t.verts[fc.v[(ii+1)%3]].p
				w := t.verts[fc.v[(ii+2)%3]].p
				if geom.Orient2D(u, w, t.verts[d].p) > 0 {
					return fmt.Errorf("hull is not convex at face %d (vertex %d outside edge)", id, d)
				}
			}
		}
	}
	return nil
}

func (t *Triangulation) validateLowDim() error {
	if len(t.line) != t.nFinite {
		return fmt.Errorf("degenerate chain length %d != site count %d", len(t.line), t.nFinite)
	}
	switch {
	case t.nFinite == 0 && t.dim != -1:
		return fmt.Errorf("empty set must have dim -1, has %d", t.dim)
	case t.nFinite == 1 && t.dim != 0:
		return fmt.Errorf("single site must have dim 0, has %d", t.dim)
	case t.nFinite >= 2 && t.dim != 1:
		return fmt.Errorf("chain of %d sites must have dim 1, has %d", t.nFinite, t.dim)
	}
	for i, v := range t.line {
		if !t.Alive(v) {
			return fmt.Errorf("degenerate chain references dead vertex %d", v)
		}
		if i > 0 {
			p, q := t.verts[t.line[i-1]].p, t.verts[v].p
			if !lexLess(p, q) {
				return fmt.Errorf("degenerate chain not sorted at %d", i)
			}
		}
		if i >= 2 {
			a, b := t.verts[t.line[0]].p, t.verts[t.line[1]].p
			if geom.Orient2D(a, b, t.verts[v].p) != 0 {
				return fmt.Errorf("degenerate chain is not collinear at %d", i)
			}
		}
	}
	return nil
}
