package core

import (
	"math/rand"
	"testing"

	"voronet/internal/geom"
)

func bulkTestPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

func TestBulkLoadInvariants(t *testing.T) {
	pts := bulkTestPoints(3000, 11)
	// Plant duplicates: they must come back as NoObject, once each.
	pts[100] = pts[50]
	pts[2999] = pts[0]
	o := New(Config{NMax: 10000, Seed: 3, LongLinks: 2})
	ids, err := o.BulkLoad(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(pts) {
		t.Fatalf("got %d ids for %d points", len(ids), len(pts))
	}
	if ids[100] != NoObject || ids[2999] != NoObject {
		t.Fatalf("duplicates not rejected: ids[100]=%d ids[2999]=%d", ids[100], ids[2999])
	}
	if o.Len() != len(pts)-2 {
		t.Fatalf("Len = %d, want %d", o.Len(), len(pts)-2)
	}
	for i, id := range ids {
		if i == 100 || i == 2999 {
			continue
		}
		if id == NoObject {
			t.Fatalf("point %d unexpectedly rejected", i)
		}
		if pos := o.objs[id].Pos; pos != pts[i] {
			t.Fatalf("object %d at %v, want %v", id, pos, pts[i])
		}
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatalf("invariants after bulk load: %v", err)
	}
}

func TestBulkLoadWorkerCountInvariant(t *testing.T) {
	pts := bulkTestPoints(4000, 17)
	build := func(workers int) *Overlay {
		o := New(Config{NMax: 10000, Seed: 5, LongLinks: 1})
		if _, err := o.BulkLoad(pts, workers); err != nil {
			t.Fatal(err)
		}
		return o
	}
	ref := build(1)

	// Against the same points inserted one by one: the target draws differ
	// (per-chunk streams), the bookkeeping must not — same IDs at the same
	// positions, one BLRn entry per link, and both pass the deep check,
	// which holds every entry's object pointer, inline target and slot.
	serial := New(Config{NMax: 10000, Seed: 5, LongLinks: 1})
	for _, p := range pts {
		if _, err := serial.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for name, o := range map[string]*Overlay{"BulkLoad": ref, "Insert": serial} {
		if err := o.CheckInvariants(true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		entries := 0
		for _, id := range o.ids {
			entries += len(o.objs[id].back)
		}
		if entries != o.Len()*o.cfg.LongLinks {
			t.Fatalf("%s: %d BLRn entries for %d links", name, entries, o.Len()*o.cfg.LongLinks)
		}
	}
	if serial.Len() != ref.Len() {
		t.Fatalf("Insert built %d objects, BulkLoad %d", serial.Len(), ref.Len())
	}
	for _, id := range ref.ids {
		if b := serial.objs[id]; b == nil || b.Pos != ref.objs[id].Pos {
			t.Fatalf("object %d differs between BulkLoad and Insert", id)
		}
	}

	for _, w := range []int{2, 4, 8} {
		o := build(w)
		if o.Len() != ref.Len() {
			t.Fatalf("workers=%d: Len %d != %d", w, o.Len(), ref.Len())
		}
		for _, id := range ref.ids {
			a, b := ref.objs[id], o.objs[id]
			if b == nil || a.Pos != b.Pos {
				t.Fatalf("workers=%d: object %d differs", w, id)
			}
			if len(a.longTargets) != len(b.longTargets) {
				t.Fatalf("workers=%d: object %d link count differs", w, id)
			}
			for j := range a.longTargets {
				if a.longTargets[j] != b.longTargets[j] || ref.longNeighbor(a, j) != o.longNeighbor(b, j) {
					t.Fatalf("workers=%d: object %d link %d differs: (%v,%d) vs (%v,%d)",
						w, id, j, a.longTargets[j], ref.longNeighbor(a, j), b.longTargets[j], o.longNeighbor(b, j))
				}
			}
		}
	}
}

func TestBulkLoadNonEmptyFallback(t *testing.T) {
	o := New(Config{NMax: 10000, Seed: 9})
	if _, err := o.Insert(geom.Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	pts := bulkTestPoints(500, 23)
	ids, err := o.BulkLoad(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() != 501 {
		t.Fatalf("Len = %d, want 501", o.Len())
	}
	for i, id := range ids {
		if id == NoObject {
			t.Fatalf("point %d rejected on fallback path", i)
		}
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatalf("invariants after fallback bulk load: %v", err)
	}
}
