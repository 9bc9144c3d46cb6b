package delaunay

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"voronet/internal/geom"
)

// InsertBulkParallel inserts many sites at once in a locality-aware order
// (Hilbert-curve sort, the core of a BRIO build): consecutive insertions
// land near each other, so the remembering walk from the previous site is
// O(1) steps and the whole build is close to linear time. Results are
// returned in the order of the input points; duplicates yield the existing
// site's ID.
//
// The structural outcome is identical to inserting the points one by one
// in any order — the Delaunay triangulation of a point set is unique (up
// to co-circular retriangulation) — so this is purely a construction-time
// optimisation: the experiment engine uses it to build 300 000-object
// overlays in seconds.
//
// The construction's embarrassingly parallel prefix — Hilbert key
// computation and the locality sort — is spread over `workers` goroutines
// (0 selects GOMAXPROCS). The insertion loop
// itself stays serial: the triangulation's face/vertex arenas are a single
// mutable structure and the hinted Bowyer–Watson insert is already O(1)
// expected, so the sort is the part worth parallelising here (the overlay
// layer parallelises everything it builds on top — long links, grid, back
// references — in core.BulkLoad). The sort uses a total order (key, then
// coordinates, then input index), so the insertion sequence — and therefore
// the resulting structure — is bit-identical for every worker count. The
// neighbour slots are filled once, after the last insertion.
func (t *Triangulation) InsertBulkParallel(points []geom.Point, workers int) []VertexID {
	ids := make([]VertexID, len(points))
	order := hilbertOrderParallel(points, workers)
	// n sites close into 2n - 2 faces on the sphere; the last cavity's
	// faces wait on the free list beside them.
	t.verts = slices.Grow(t.verts, len(points))
	t.adj = slices.Grow(t.adj, len(points))
	t.faces = slices.Grow(t.faces, 2*len(points)+64)
	hint := t.lastInsertedHint()
	for _, idx := range order {
		v, err := t.insert(points[idx], hint)
		ids[idx] = v
		if err == nil {
			hint = v
		}
	}
	t.flush()
	t.queue = nil // every vertex passed through it; do not keep its capacity
	return ids
}

func (t *Triangulation) lastInsertedHint() VertexID {
	if t.lastFace == NoFace || int(t.lastFace) >= len(t.faces) || !t.faces[t.lastFace].alive {
		return NoVertex
	}
	for _, v := range t.faces[t.lastFace].v {
		if v != Infinite {
			return v
		}
	}
	return NoVertex
}

// hilbertOrderParallel returns a permutation of indices sorting the points
// along a Hilbert curve over their bounding box. Key computation and the
// sort fan out over `workers` goroutines; the comparison is the total
// order (key, X, Y, input index), so the permutation is independent of the
// worker count and of sort stability.
func hilbertOrderParallel(points []geom.Point, workers int) []int {
	n := len(points)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if n < 3 {
		return order
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n/1024 {
		// Below ~1k points per worker the goroutine overhead wins.
		workers = n/1024 + 1
	}
	minX, minY := points[0].X, points[0].Y
	maxX, maxY := minX, minY
	for _, p := range points {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	spanX := maxX - minX
	spanY := maxY - minY
	if spanX == 0 {
		spanX = 1
	}
	if spanY == 0 {
		spanY = 1
	}
	const bits = 16
	const side = 1 << bits
	keys := make([]uint64, n)
	fillKeys := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := points[i]
			x := uint32((p.X - minX) / spanX * (side - 1))
			y := uint32((p.Y - minY) / spanY * (side - 1))
			keys[i] = hilbertD(bits, x, y)
		}
	}
	less := func(a, b int) bool {
		if keys[a] != keys[b] {
			return keys[a] < keys[b]
		}
		if points[a].X != points[b].X {
			return points[a].X < points[b].X
		}
		if points[a].Y != points[b].Y {
			return points[a].Y < points[b].Y
		}
		return a < b
	}
	if workers <= 1 {
		fillKeys(0, n)
		sort.Slice(order, func(a, b int) bool { return less(order[a], order[b]) })
		return order
	}

	// Parallel keys, then a chunked parallel sort merged pairwise.
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	bounds := make([][2]int, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds = append(bounds, [2]int{lo, hi})
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fillKeys(lo, hi)
			part := order[lo:hi]
			sort.Slice(part, func(a, b int) bool { return less(part[a], part[b]) })
		}(lo, hi)
	}
	wg.Wait()
	tmp := make([]int, n)
	for len(bounds) > 1 {
		next := bounds[:0:cap(bounds)]
		var mwg sync.WaitGroup
		for i := 0; i < len(bounds); i += 2 {
			if i+1 == len(bounds) {
				next = append(next, bounds[i])
				break
			}
			a, b := bounds[i], bounds[i+1]
			next = append(next, [2]int{a[0], b[1]})
			mwg.Add(1)
			go func(lo, mid, hi int) {
				defer mwg.Done()
				mergeRuns(order, tmp, lo, mid, hi, less)
			}(a[0], b[0], b[1])
		}
		mwg.Wait()
		bounds = next
	}
	return order
}

// mergeRuns merges the sorted runs order[lo:mid] and order[mid:hi] into
// order[lo:hi] via the scratch slice tmp (disjoint slices per call).
func mergeRuns(order, tmp []int, lo, mid, hi int, less func(a, b int) bool) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if less(order[j], order[i]) {
			tmp[k] = order[j]
			j++
		} else {
			tmp[k] = order[i]
			i++
		}
		k++
	}
	copy(tmp[k:], order[i:mid])
	k += mid - i
	copy(tmp[k:], order[j:hi])
	copy(order[lo:hi], tmp[lo:hi])
}

// hilbertD maps grid cell (x, y) on a 2^order × 2^order grid to its
// distance along the Hilbert curve (the classical rot/flip formulation).
func hilbertD(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
