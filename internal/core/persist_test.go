package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"voronet/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	o := New(Config{NMax: 2000, Seed: 71, LongLinks: 2})
	rng := rand.New(rand.NewSource(72))
	ids := fill(t, o, workload.NewPowerLaw(2, rng), 400)
	// Some churn so the snapshot is not a pristine build.
	for i := 0; i < 50; i++ {
		o.Remove(ids[i])
	}
	ids = ids[50:]

	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	o2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := o2.CheckInvariants(true); err != nil {
		t.Fatalf("loaded overlay invalid: %v", err)
	}
	if o2.Len() != o.Len() {
		t.Fatalf("len %d vs %d", o2.Len(), o.Len())
	}

	// Views must be identical object for object.
	for _, id := range ids {
		p1, _ := o.Position(id)
		p2, err := o2.Position(id)
		if err != nil || p1 != p2 {
			t.Fatalf("object %d position %v vs %v (%v)", id, p1, p2, err)
		}
		v1, _ := o.VoronoiNeighbors(id, nil)
		v2, _ := o2.VoronoiNeighbors(id, nil)
		sortIDs(v1)
		sortIDs(v2)
		if !reflect.DeepEqual(v1, v2) {
			t.Fatalf("object %d vn %v vs %v", id, v1, v2)
		}
		l1, _ := o.LongNeighbors(id)
		l2, _ := o2.LongNeighbors(id)
		if !reflect.DeepEqual(l1, l2) {
			t.Fatalf("object %d LRn %v vs %v", id, l1, l2)
		}
		t1, _ := o.LongTargets(id)
		t2, _ := o2.LongTargets(id)
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("object %d targets differ", id)
		}
		// BLRn is not saved: Load re-derives it, target included.
		if b1, b2 := sortedBackRefs(o, id), sortedBackRefs(o2, id); !reflect.DeepEqual(b1, b2) {
			t.Fatalf("object %d BLRn %v vs %v", id, b1, b2)
		}
		c1, _ := o.CloseNeighbors(id, nil)
		c2, _ := o2.CloseNeighbors(id, nil)
		sortIDs(c1)
		sortIDs(c2)
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("object %d cn %v vs %v", id, c1, c2)
		}
	}

	// Routing behaves identically.
	for q := 0; q < 100; q++ {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		h1, e1 := o.RouteToObject(a, b)
		h2, e2 := o2.RouteToObject(a, b)
		if h1 != h2 || (e1 == nil) != (e2 == nil) {
			t.Fatalf("route %d->%d: %d/%v vs %d/%v", a, b, h1, e1, h2, e2)
		}
	}

	// The loaded overlay remains fully operational (insert, remove, join).
	nid, err := o2.Insert(workload.NewPowerLaw(2, rng).Next())
	if err != nil {
		t.Fatal(err)
	}
	if nid < 400 {
		t.Fatalf("ID allocation resumed too low: %d", nid)
	}
	if err := o2.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := o2.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage must not load")
	}
	var buf bytes.Buffer
	o := New(Config{NMax: 10, Seed: 1})
	o.Insert(workload.NewPowerLaw(1, rand.New(rand.NewSource(2))).Next())
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version.
	b := buf.Bytes()
	b[len(b)-1] ^= 0xFF
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Log("note: tail corruption not always detectable by gob; acceptable")
	}
}

func sortIDs(s []ObjectID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
