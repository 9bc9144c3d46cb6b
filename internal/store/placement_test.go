package store

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"voronet/internal/geom"
)

// rankReference is the rule written the slow way: the candidates taking
// part, stably sorted by squared distance to key (stable over index order,
// so ties keep the lower index first), cut at r.
func rankReference(r int, pts []geom.Point, skip map[int]bool, key geom.Point) []int {
	var idx []int
	for i := range pts {
		if !skip[i] {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return geom.Dist2(pts[idx[a]], key) < geom.Dist2(pts[idx[b]], key)
	})
	if r < len(idx) {
		idx = idx[:r]
	}
	return idx
}

func TestClosestMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Positions on a coarse lattice around a lattice key: duplicate
	// distances are the rule, so ties land on every rank boundary.
	lattice := func() geom.Point { return geom.Pt(float64(rng.Intn(5))/4, float64(rng.Intn(5))/4) }
	uniform := func() geom.Point { return geom.Pt(rng.Float64(), rng.Float64()) }
	for trial := 0; trial < 2000; trial++ {
		draw := uniform
		if trial%2 == 1 {
			draw = lattice
		}
		n := rng.Intn(9) // n = 0 included
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = draw()
		}
		skip := map[int]bool{}
		if n > 0 && trial%3 == 0 {
			skip[rng.Intn(n)] = true
		}
		key := draw()
		r := rng.Intn(n + 3) // r = 0 and r >= n included
		at := func(i int) (geom.Point, bool) { return pts[i], !skip[i] }

		want := rankReference(r, pts, skip, key)
		if got := Closest(nil, r, n, key, at); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Closest(r=%d) over %v skip %v key %v = %v, want %v", trial, r, pts, skip, key, got, want)
		}
		wantNearest := -1
		if first := rankReference(1, pts, skip, key); len(first) == 1 {
			wantNearest = first[0]
		}
		if got := Nearest(n, key, at); got != wantNearest {
			t.Fatalf("trial %d: Nearest over %v skip %v key %v = %d, want %d", trial, pts, skip, key, got, wantNearest)
		}
	}
}

// TestClosestTieAtRankBoundary is the case the node's reader and writer
// used to settle differently: four candidates, the third and fourth
// equidistant from the key, r = 3 — the lower index is in, the higher out.
func TestClosestTieAtRankBoundary(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.5, 0.75), geom.Pt(0.25, 0.5), geom.Pt(0.75, 0.5), geom.Pt(0.5, 0.25)}
	key := geom.Pt(0.5625, 0.5625) // nearest 0 and 2 (tied), then 1 and 3 (tied)
	got := Closest(nil, 3, len(pts), key, func(i int) (geom.Point, bool) { return pts[i], true })
	if want := []int{0, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("Closest = %v, want %v", got, want)
	}
}

func TestClosestAllocatesNothing(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.1, 0.2), geom.Pt(0.9, 0.4), geom.Pt(0.5, 0.5), geom.Pt(0.3, 0.8), geom.Pt(0.7, 0.1), geom.Pt(0.2, 0.6)}
	key := geom.Pt(0.4, 0.4)
	sink := 0
	allocs := testing.AllocsPerRun(200, func() {
		var buf [DefaultReplication]int
		at := func(i int) (geom.Point, bool) { return pts[i], i != 2 }
		for _, i := range Closest(buf[:0], DefaultReplication, len(pts), key, at) {
			sink += i
		}
		sink += Nearest(len(pts), key, at)
	})
	if allocs != 0 {
		t.Fatalf("Closest + Nearest on a stack buffer: %v allocs per run, want 0", allocs)
	}
}
