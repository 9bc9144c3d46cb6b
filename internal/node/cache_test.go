package node

import (
	"fmt"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

func info(addr string, p geom.Point) proto.NodeInfo {
	return proto.NodeInfo{Addr: addr, Pos: p}
}

func TestRouteCacheLRUEviction(t *testing.T) {
	rc := newRouteCache(3, 0.05)
	// Four well-separated points: distinct cells at grid 0.05.
	pts := []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.3, 0.3), geom.Pt(0.5, 0.5), geom.Pt(0.7, 0.7)}
	for i := 0; i < 3; i++ {
		rc.insert(pts[i], info(fmt.Sprintf("n%d", i), pts[i]))
	}
	// Touch the oldest entry so the middle one becomes LRU.
	if _, ok := rc.Lookup(pts[0]); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	rc.insert(pts[3], info("n3", pts[3]))
	if _, ok := rc.Lookup(pts[1]); ok {
		t.Fatal("LRU entry 1 survived the eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if owner, ok := rc.Lookup(pts[i]); !ok || owner.Addr != fmt.Sprintf("n%d", i) {
			t.Fatalf("entry %d = %+v (present %v)", i, owner, ok)
		}
	}
}

func TestRouteCacheCellQuantisation(t *testing.T) {
	rc := newRouteCache(8, 0.1)
	// Two keys inside the same 0.1-cell share one entry: the second
	// insert overwrites, and both look up to the latest owner.
	a, b := geom.Pt(0.51, 0.52), geom.Pt(0.53, 0.58)
	rc.insert(a, info("first", a))
	rc.insert(b, info("second", b))
	for _, k := range []geom.Point{a, b} {
		if owner, ok := rc.Lookup(k); !ok || owner.Addr != "second" {
			t.Fatalf("lookup(%v) = %+v, want the one overwritten entry", k, owner)
		}
	}
	// A key in the neighbouring cell is independent.
	c := geom.Pt(0.61, 0.52)
	if _, ok := rc.Lookup(c); ok {
		t.Fatal("neighbouring cell unexpectedly cached")
	}
	rc.insert(c, info("third", c))
	if owner, _ := rc.Lookup(a); owner.Addr != "second" {
		t.Fatalf("lookup(a) = %+v after the neighbouring insert, want second", owner)
	}
	if owner, _ := rc.Lookup(c); owner.Addr != "third" {
		t.Fatalf("lookup(c) = %+v, want third", owner)
	}
	// The quantisation floor: a tiny DMin never coarsens below 1/256,
	// and a NaN DMin (unset config) falls back to it too.
	floor := newRouteCache(4, 1e-9)
	floor.insert(geom.Pt(0.5001, 0.5001), info("floor", geom.Pt(0.5001, 0.5001)))
	if owner, ok := floor.Lookup(geom.Pt(0.5003, 0.5003)); !ok || owner.Addr != "floor" {
		t.Fatal("points 0.0002 apart missed each other: the grid went finer than the 1/256 floor")
	}
	// Slightly-negative excursions (long-link targets overshoot the unit
	// square) quantise without panicking and stay distinct from cell 0.
	neg := geom.Pt(-0.01, 0.5)
	rc.insert(neg, info("edge", neg))
	if owner, ok := rc.Lookup(neg); !ok || owner.Addr != "edge" {
		t.Fatalf("negative-coordinate entry = %+v (present %v)", owner, ok)
	}
	if owner, _ := rc.Lookup(geom.Pt(0.01, 0.5)); owner.Addr == "edge" {
		t.Fatal("negative cell collided with positive cell")
	}
}

func TestRouteCacheInvalidateOwner(t *testing.T) {
	rc := newRouteCache(8, 0.05)
	pts := []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.3, 0.3), geom.Pt(0.5, 0.5)}
	rc.insert(pts[0], info("dead", pts[0]))
	rc.insert(pts[1], info("alive", pts[1]))
	rc.insert(pts[2], info("dead", pts[2]))
	if removed := rc.invalidateOwner("dead"); removed != 2 {
		t.Fatalf("invalidateOwner removed %d, want 2", removed)
	}
	for _, p := range []geom.Point{pts[0], pts[2]} {
		if _, ok := rc.Lookup(p); ok {
			t.Fatalf("dead owner's entry at %v survived", p)
		}
	}
	if owner, ok := rc.Lookup(pts[1]); !ok || owner.Addr != "alive" {
		t.Fatalf("unrelated entry dropped: %+v (present %v)", owner, ok)
	}
	if removed := rc.invalidateOwner("dead"); removed != 0 {
		t.Fatalf("second invalidation removed %d, want 0", removed)
	}
}

func TestRouteCacheInvalidateTakenOver(t *testing.T) {
	rc := newRouteCache(8, 0.05)
	// Entry A: owner sits on its key (unbeatable). Entry B: owner far
	// from its key, so a newcomer near the key takes the region over.
	keyA, keyB := geom.Pt(0.2, 0.2), geom.Pt(0.8, 0.8)
	rc.insert(keyA, info("a", keyA))
	rc.insert(keyB, info("b", geom.Pt(0.6, 0.6)))
	newcomer := geom.Pt(0.79, 0.79)
	if removed := rc.invalidateTakenOver(newcomer); removed != 1 {
		t.Fatalf("invalidateTakenOver removed %d, want 1", removed)
	}
	if _, ok := rc.Lookup(keyB); ok {
		t.Fatal("taken-over region still cached")
	}
	if owner, ok := rc.Lookup(keyA); !ok || owner.Addr != "a" {
		t.Fatalf("unaffected region dropped: %+v (present %v)", owner, ok)
	}
}

func TestRouteCacheClear(t *testing.T) {
	rc := newRouteCache(4, 0.05)
	rc.insert(geom.Pt(0.1, 0.1), info("x", geom.Pt(0.1, 0.1)))
	rc.insert(geom.Pt(0.9, 0.9), info("y", geom.Pt(0.9, 0.9)))
	rc.Clear()
	for _, p := range []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.9, 0.9)} {
		if _, ok := rc.Lookup(p); ok {
			t.Fatalf("entry at %v survived the clear", p)
		}
	}
	// The cache stays usable after a clear (re-join after leave).
	rc.insert(geom.Pt(0.5, 0.5), info("z", geom.Pt(0.5, 0.5)))
	if owner, ok := rc.Lookup(geom.Pt(0.5, 0.5)); !ok || owner.Addr != "z" {
		t.Fatalf("re-inserted entry = %+v (present %v)", owner, ok)
	}
}
