package delaunay

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"voronet/internal/geom"
)

func TestDuplicateErrorMessage(t *testing.T) {
	err := &duplicateError{Existing: 7}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
	if !errors.Is(err, ErrDuplicate) {
		t.Fatal("duplicateError must match ErrDuplicate")
	}
}

func TestNumFiniteFacesEuler(t *testing.T) {
	// For n sites with h of them on the hull: F = 2n - h - 2 finite faces.
	tr := New()
	rng := rand.New(rand.NewSource(21))
	n := 0
	for n < 500 {
		if _, err := tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), NoVertex); err == nil {
			n++
		}
	}
	h := 0
	forEachSite(tr, func(v VertexID, _ geom.Point) bool {
		if isHullVertex(tr, v) {
			h++
		}
		return true
	})
	if want := 2*n - h - 2; tr.numFiniteFaces() != want {
		t.Fatalf("finite faces %d, want %d (n=%d h=%d)", tr.numFiniteFaces(), want, n, h)
	}
}

func TestIsFinite(t *testing.T) {
	if IsFinite(Infinite) {
		t.Fatal("Infinite must not be finite")
	}
	if !IsFinite(3) {
		t.Fatal("3 must be finite")
	}
}

func TestFacesAroundCompleteFan(t *testing.T) {
	tr := New()
	mustInsert(t, tr, geom.Pt(0, 0))
	mustInsert(t, tr, geom.Pt(1, 0))
	mustInsert(t, tr, geom.Pt(1, 1))
	mustInsert(t, tr, geom.Pt(0, 1))
	c := mustInsert(t, tr, geom.Pt(0.5, 0.5))

	// The interior site's fan has exactly Degree faces, all finite, all
	// starting with the site itself.
	count := 0
	tr.facesAround(c, func(a, b, d VertexID) bool {
		if a != c {
			t.Fatalf("fan face does not start at the site: %v", a)
		}
		if b == Infinite || d == Infinite {
			t.Fatal("interior site has an infinite face")
		}
		count++
		return true
	})
	if count != tr.Degree(c) {
		t.Fatalf("fan count %d, degree %d", count, tr.Degree(c))
	}

	// Early termination.
	count = 0
	tr.facesAround(c, func(_, _, _ VertexID) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}

	// Hull site fans include infinite faces.
	hull := VertexID(1)
	sawInfinite := false
	tr.facesAround(hull, func(_, b, d VertexID) bool {
		if b == Infinite || d == Infinite {
			sawInfinite = true
		}
		return true
	})
	if !sawInfinite {
		t.Fatal("hull fan must include infinite faces")
	}
}

func TestLocateExhaustiveAgreesWithWalk(t *testing.T) {
	// Drive the O(n) fallback directly and require the same answers as the
	// walk for every location kind.
	tr := New()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), NoVertex)
	}
	for q := 0; q < 200; q++ {
		p := geom.Pt(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2)
		a := tr.locate(p, NoVertex)
		b := tr.locateExhaustive(p, true)
		if a.Kind != b.Kind {
			t.Fatalf("kind mismatch at %v: walk %v, scan %v", p, a.Kind, b.Kind)
		}
		if a.Kind == LocFace && a.Face != b.Face {
			t.Fatalf("face mismatch at %v", p)
		}
		if a.Kind == LocVertex && a.Vertex != b.Vertex {
			t.Fatalf("vertex mismatch at %v", p)
		}
	}
	// Exact-site queries.
	forEachSite(tr, func(v VertexID, p geom.Point) bool {
		loc := tr.locateExhaustive(p, true)
		if loc.Kind != LocVertex || loc.Vertex != v {
			t.Fatalf("exhaustive locate missed site %d", v)
		}
		return v%20 != 0 // sample
	})
}

func TestQuickDelaunayInvariant(t *testing.T) {
	// Property: any batch of random points yields a structure that passes
	// full validation, has symmetric neighbourhoods, and its neighbour
	// counts obey planarity (sum of degrees = 2 * edges <= 2 * (3n - 6)).
	f := func(seed int64, sizes uint8) bool {
		n := 3 + int(sizes%60)
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		ids := make([]VertexID, 0, n)
		for len(ids) < n {
			// Quantised coordinates provoke collinear/cocircular cases.
			p := geom.Pt(float64(rng.Intn(32))/32+rng.Float64()*1e-9,
				float64(rng.Intn(32))/32+rng.Float64()*1e-9)
			if v, err := tr.Insert(p, NoVertex); err == nil {
				ids = append(ids, v)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		degSum := 0
		for _, v := range ids {
			nb := tr.Neighbors(v, nil)
			degSum += len(nb)
			for _, u := range nb {
				back := tr.Neighbors(u, nil)
				found := false
				for _, w := range back {
					if w == v {
						found = true
						break
					}
				}
				if !found {
					t.Logf("asymmetric edge %d-%d", v, u)
					return false
				}
			}
		}
		return tr.Dimension() < 2 || degSum <= 2*(3*n-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestQuickInsertRemoveRoundTrip(t *testing.T) {
	// Property: inserting a point and removing it restores a structure
	// with identical neighbour sets for all pre-existing sites.
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New()
		var ids []VertexID
		for len(ids) < 30 {
			if v, err := tr.Insert(geom.Pt(r.Float64(), r.Float64()), NoVertex); err == nil {
				ids = append(ids, v)
			}
		}
		before := map[VertexID][]VertexID{}
		for _, v := range ids {
			before[v] = append([]VertexID(nil), tr.Neighbors(v, nil)...)
		}
		v, err := tr.Insert(geom.Pt(r.Float64(), r.Float64()), NoVertex)
		if err != nil {
			return true
		}
		if err := tr.Remove(v); err != nil {
			t.Logf("remove: %v", err)
			return false
		}
		if err := tr.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		for _, u := range ids {
			after := tr.Neighbors(u, nil)
			if len(after) != len(before[u]) {
				t.Logf("site %d degree changed %d -> %d", u, len(before[u]), len(after))
				return false
			}
			set := map[VertexID]bool{}
			for _, w := range before[u] {
				set[w] = true
			}
			for _, w := range after {
				if !set[w] {
					t.Logf("site %d gained neighbour %d", u, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRebuildFallbackCounter(t *testing.T) {
	// The rebuild fallback must not fire on ordinary workloads.
	tr := New()
	rng := rand.New(rand.NewSource(24))
	var ids []VertexID
	for len(ids) < 300 {
		if v, err := tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), NoVertex); err == nil {
			ids = append(ids, v)
		}
	}
	for _, v := range ids[:200] {
		if err := tr.Remove(v); err != nil {
			t.Fatal(err)
		}
	}
	if tr.rebuilds != 0 {
		t.Fatalf("rebuild fallback fired %d times on a random workload", tr.rebuilds)
	}
}

// TestTriangulationsShareNoState builds two triangulations on two
// goroutines from inputs that force the exact-arithmetic fallback of both
// predicates: a cocircular ring (InCircle) and a chain of collinear points
// on its diagonal (Orient2D). Under -race it fails if the package or the
// predicates keep mutable package-level state.
func TestTriangulationsShareNoState(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := New()
			for i := 0; i < 64; i++ {
				a := 2 * math.Pi * float64(i) / 64
				tr.Insert(geom.Pt(0.5+0.4*math.Cos(a), 0.5+0.4*math.Sin(a)), NoVertex)
			}
			for i := 1; i < 32; i++ {
				x := 0.2 + 0.6*float64(i)/32
				tr.Insert(geom.Pt(x, x), NoVertex)
			}
			if err := tr.Validate(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// forEachSite calls fn for every live finite site until fn returns false.
func forEachSite(t *Triangulation, fn func(VertexID, geom.Point) bool) {
	for id := 1; id < len(t.verts); id++ {
		if t.verts[id].alive && !fn(VertexID(id), t.verts[id].p) {
			return
		}
	}
}

// isHullVertex reports whether v lies on the convex hull of the sites.
func isHullVertex(t *Triangulation, v VertexID) bool {
	if !t.Alive(v) {
		return false
	}
	if t.dim < 2 {
		return true
	}
	start := t.verts[v].face
	f := start
	for {
		i := t.vertIndex(f, v)
		fc := &t.faces[f]
		if fc.v[(i+1)%3] == Infinite || fc.v[(i+2)%3] == Infinite {
			return true
		}
		f = t.ccwNextAround(v, f)
		if f == start {
			return false
		}
	}
}
