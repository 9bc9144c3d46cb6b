package delaunay

import (
	"errors"
	"math"
	"testing"

	"voronet/internal/geom"
)

// removeFromEveryRotation builds pts once per face around the site pts[at],
// starts that site's fan at the face (Remove's ear search starts at its
// first link corner), removes the site, and requires a valid triangulation
// reached without the rebuild fallback. A layout that only one starting
// corner gets wrong is thus caught whichever corner the history left first.
func removeFromEveryRotation(t *testing.T, pts []geom.Point, at int) {
	t.Helper()
	build := func() (*Triangulation, VertexID) {
		tr := New()
		var v VertexID
		for i, p := range pts {
			u := mustInsert(t, tr, p)
			if i == at {
				v = u
			}
		}
		return tr, v
	}
	tr, v := build()
	deg := 0
	tr.facesAround(v, func(_, _, _ VertexID) bool { deg++; return true })
	for r := 0; r < deg; r++ {
		tr, v := build()
		f := tr.verts[v].face
		for i := 0; i < r; i++ {
			f = tr.ccwNextAround(v, f)
		}
		tr.setFace(v, f)
		tr.flush()
		mustValidate(t, tr, "before the removal")
		if err := tr.Remove(v); err != nil {
			t.Fatalf("rotation %d: %v", r, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("rotation %d: %v", r, err)
		}
		if tr.rebuilds != 0 {
			t.Fatalf("rotation %d: the removal fell back to a rebuild", r)
		}
		if tr.NumSites() != len(pts)-1 {
			t.Fatalf("rotation %d: %d sites, want %d", r, tr.NumSites(), len(pts)-1)
		}
	}
}

// TestRemoveHullSiteOverCollinearChain removes a hull site whose finite link
// chain is collinear while other sites lie behind the chain, so the
// dimension stays 2 and the chain becomes hull edges. The infinite ear
// spanning the whole chain has every inner chain corner on its open hull
// edge: only that clause of the ear rule refuses it.
func TestRemoveHullSiteOverCollinearChain(t *testing.T) {
	for _, m := range []int{3, 4, 6} {
		var pts []geom.Point
		for i := 0; i < m; i++ {
			pts = append(pts, geom.Pt(float64(i), 0))
		}
		pts = append(pts, geom.Pt(float64(m-1)/2, 5), geom.Pt(float64(m-1)/2, -1))
		removeFromEveryRotation(t, pts, len(pts)-1)
	}
}

// TestRemoveSiteWithCollinearLinkCorners removes a site whose link has
// three consecutive collinear corners. The flat ear they make conflicts
// with a corner on the removed site's side of their line, so in the hull
// layout, whose other finite corners all lie beyond the line, only the
// strict left turn refuses it; the interior layout has such a corner.
func TestRemoveSiteWithCollinearLinkCorners(t *testing.T) {
	for _, pts := range [][]geom.Point{{
		geom.Pt(1, 0), geom.Pt(0, 0), geom.Pt(-1, 0),
		geom.Pt(3, 0.5), geom.Pt(-3, 0.5), geom.Pt(0, 5),
		geom.Pt(0, -1),
	}, {
		geom.Pt(1, 1), geom.Pt(0, 1), geom.Pt(-1, 1),
		geom.Pt(-1.5, -1), geom.Pt(0, -1.5), geom.Pt(1.5, -1),
		geom.Pt(0, 3), geom.Pt(0, 0),
	}} {
		removeFromEveryRotation(t, pts, len(pts)-1)
	}
}

// ring65 holds the 36 points of integer coordinates on the circle of
// radius 65 about the origin: exactly cocircular in floating point.
var ring65 = func() []geom.Point {
	var ps []geom.Point
	for x := -65; x <= 65; x++ {
		for y := -65; y <= 65; y++ {
			if x*x+y*y == 65*65 {
				ps = append(ps, geom.Pt(float64(x), float64(y)))
			}
		}
	}
	return ps
}()

// churnPoint maps a fuzz byte pair to a site: layout (1 to 5) picks a
// degenerate family, arg the point in it. Repeating arg repeats the point.
func churnPoint(layout, arg byte) geom.Point {
	switch layout {
	case 1: // 16 × 16 lattice: cocircular squares, collinear rows
		return geom.Pt(float64(arg&15), float64(arg>>4))
	case 2: // the cocircular ring and its centre
		if i := int(arg) % (len(ring65) + 1); i < len(ring65) {
			return ring65[i]
		}
		return geom.Pt(0, 0)
	case 3: // one line, exact in floating point
		return geom.Pt(float64(arg), 2*float64(arg)-3)
	case 4: // a sparse lattice 1e9 away: hulls of long, thin faces
		return geom.Pt(1e9*float64(int(arg%5)-2), 1e9*float64(int(arg/5%5)-2)+float64(arg/25))
	default: // irregular points, no exact ties
		return geom.Pt(math.Sin(float64(arg)), math.Cos(1.7*float64(arg)))
	}
}

// churnOps encodes a sequence of (op, arg) pairs for the fuzz corpus.
func churnOps(pairs ...[2]byte) []byte {
	var b []byte
	for _, p := range pairs {
		b = append(b, p[0], p[1])
	}
	return b
}

// churnSeeds is the fuzz corpus: each layout filled and drained, plus
// duplicates and a mix of far and near sites.
func churnSeeds() [][]byte {
	var seeds [][]byte
	fillDrain := func(layout byte, args []byte) []byte {
		var ops [][2]byte
		for _, a := range args {
			ops = append(ops, [2]byte{layout, a})
		}
		for i := range args {
			ops = append(ops, [2]byte{0, byte(7 * i)})
		}
		return churnOps(ops...)
	}
	var lattice, ring, line, far []byte
	for i := 0; i < 36; i++ {
		lattice = append(lattice, byte(i%6+16*(i/6)))
		ring = append(ring, byte((36-i)%37))
		line = append(line, byte(i))
	}
	for i := 0; i < 25; i++ {
		far = append(far, byte(i))
	}
	seeds = append(seeds,
		fillDrain(1, lattice),
		fillDrain(2, ring),
		append(fillDrain(3, line[:12]), churnOps([2]byte{5, 1}, [2]byte{3, 4}, [2]byte{3, 5}, [2]byte{0, 0})...),
		append(fillDrain(1, lattice[:9]), fillDrain(1, lattice[:9])...),
		append(churnOps([2]byte{1, 0x11}, [2]byte{1, 0x22}, [2]byte{1, 0x12}), fillDrain(4, far)...),
	)
	return seeds
}

// FuzzTriangulationChurn runs an insert/remove sequence decoded from the
// input, two bytes (op, arg) per operation: op%6 == 0 removes the live site
// arg indexes, any other op inserts churnPoint(op%6, arg). After every
// operation the triangulation must validate and count the live sites, and
// no removal may have fallen back to a rebuild: some ear of every hole
// passes isEar in exact arithmetic.
func FuzzTriangulationChurn(f *testing.F) {
	for _, s := range churnSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 400
		tr := New()
		var live []VertexID
		for i := 0; i+1 < len(data) && i < 2*maxOps; i += 2 {
			op, arg := data[i]%6, data[i+1]
			if op == 0 {
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				v := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := tr.Remove(v); err != nil {
					t.Fatalf("op %d: Remove: %v", i/2, err)
				}
			} else {
				v, err := tr.Insert(churnPoint(op, arg), NoVertex)
				switch {
				case err == nil:
					live = append(live, v)
				case !errors.Is(err, ErrDuplicate):
					t.Fatalf("op %d: Insert: %v", i/2, err)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if tr.NumSites() != len(live) {
				t.Fatalf("op %d: %d sites, want %d", i/2, tr.NumSites(), len(live))
			}
			if tr.rebuilds != 0 {
				t.Fatalf("op %d: a removal fell back to a rebuild", i/2)
			}
		}
	})
}
