package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/store"
)

func growUniform(t testing.TB, n int, seed int64) (*Overlay, []ObjectID, *rand.Rand) {
	t.Helper()
	ov := New(Config{NMax: n, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1))
	var ids []ObjectID
	for len(ids) < n {
		id, err := ov.Insert(geom.Pt(rng.Float64(), rng.Float64()))
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	return ov, ids, rng
}

func TestStorePutGetDelete(t *testing.T) {
	ov, ids, rng := growUniform(t, 200, 51)
	st := NewStore(ov, 3)

	key := geom.Pt(0.42, 0.13)
	if _, _, err := st.Get(ids[0], key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	owner, hops, err := st.Put(ids[3], key, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if hops < 0 {
		t.Fatalf("hops = %d", hops)
	}
	trueOwner, _ := ov.Owner(key, NoObject)
	if owner != trueOwner {
		t.Fatalf("put owner %d, tessellation owner %d", owner, trueOwner)
	}
	for i := 0; i < 10; i++ {
		v, _, err := st.Get(ids[rng.Intn(len(ids))], key)
		if err != nil || !bytes.Equal(v, []byte("hello")) {
			t.Fatalf("get: %q, %v", v, err)
		}
	}
	if _, err := st.Delete(ids[7], key); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(ids[9], key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if _, err := st.Delete(ids[2], key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestStoreReplication(t *testing.T) {
	ov, ids, rng := growUniform(t, 300, 53)
	st := NewStore(ov, 3)
	for i := 0; i < 30; i++ {
		key := geom.Pt(rng.Float64(), rng.Float64())
		owner, _, err := st.Put(ids[rng.Intn(len(ids))], key, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		deg, _ := ov.Degree(owner)
		want := 1 + min(3, deg)
		if got := st.Copies(key); got < want {
			t.Fatalf("key %v: %d copies, want >= %d", key, got, want)
		}
	}
}

func TestStoreChurnHandoff(t *testing.T) {
	ov, ids, rng := growUniform(t, 150, 57)
	st := NewStore(ov, 3)

	type kv struct {
		key   geom.Point
		value []byte
	}
	var keys []kv
	for i := 0; i < 120; i++ {
		e := kv{key: geom.Pt(rng.Float64(), rng.Float64()), value: []byte(fmt.Sprintf("v%03d", i))}
		if _, _, err := st.Put(ids[rng.Intn(len(ids))], e.key, e.value); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, e)
	}
	check := func(phase string) {
		live := ids[:0:0]
		for _, id := range ids {
			if ov.objs[id] != nil {
				live = append(live, id)
			}
		}
		for _, e := range keys {
			v, _, err := st.Get(live[rng.Intn(len(live))], e.key)
			if err != nil || !bytes.Equal(v, e.value) {
				t.Fatalf("%s: key %v: %q, %v", phase, e.key, v, err)
			}
		}
	}
	check("pre-churn")

	// Joins: every new region must inherit the records it now owns.
	for i := 0; i < 15; i++ {
		id, err := st.InsertObject(geom.Pt(rng.Float64(), rng.Float64()))
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	check("post-join")

	// Leaves: records must migrate to the next owner before removal.
	removed := 0
	for removed < 15 {
		id := ids[rng.Intn(len(ids))]
		if ov.objs[id] == nil {
			continue
		}
		if err := st.RemoveObject(id); err != nil {
			t.Fatal(err)
		}
		removed++
	}
	check("post-leave")
}

// TestStorePutCopiesCallerBuffer pins the ownership contract on both sides
// of the store: Put copies the caller's value (the caller may reuse its
// buffer at once), and the copy survives the owner's departure at the new
// owner, a former replica.
func TestStorePutCopiesCallerBuffer(t *testing.T) {
	ov, ids, _ := growUniform(t, 200, 59)
	st := NewStore(ov, 3)
	key := geom.Pt(0.61, 0.27)
	buf := []byte("original")
	owner, _, err := st.Put(ids[0], key, buf)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	from := ids[0]
	if from == owner {
		from = ids[1]
	}
	if v, _, err := st.Get(from, key); err != nil || string(v) != "original" {
		t.Fatalf("get after the caller reused its buffer: %q, %v", v, err)
	}
	if err := st.RemoveObject(owner); err != nil {
		t.Fatal(err)
	}
	next, err := ov.Owner(key, NoObject)
	if err != nil || next == owner {
		t.Fatalf("owner after removal: %d, %v", next, err)
	}
	if v, _, err := st.Get(from, key); err != nil || string(v) != "original" {
		t.Fatalf("get at the new owner %d: %q, %v", next, v, err)
	}
}

// TestStoreBytesPerCopy prices one stored copy of a 16-byte key in the
// simulator's store: the heap growth across 5 000 PUTs of 128-byte values
// onto a 20 000-object overlay, measured as benchmark/sim.go measures
// mem_mb, divided by the copies held. The replicas share the owner's
// value, so a copy costs its record slot, its share of a Local and of the
// buckets map, and a quarter of the value.
func TestStoreBytesPerCopy(t *testing.T) {
	skipUnderRace(t)
	const objects, keys = 20000, 5000
	ov := newTestOverlay(objects)
	ids, err := ov.BulkLoad(bulkTestPoints(objects, 61), 2)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(ov, 0)
	rng := rand.New(rand.NewSource(62))
	val := make([]byte, 128)
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	before := heapInuse()
	for i := 0; i < keys; i++ {
		rng.Read(val)
		if _, _, err := st.Put(ids[rng.Intn(len(ids))], geom.Pt(rng.Float64(), rng.Float64()), val); err != nil {
			t.Fatal(err)
		}
	}
	grown := float64(heapInuse()) - float64(before)
	copies := 0
	for _, b := range st.snapshotBuckets() {
		copies += b.Len()
	}
	if want := keys * (st.Replication() + 1); copies != want {
		t.Fatalf("%d copies, want %d", copies, want)
	}
	perCopy := grown / float64(copies)
	t.Logf("%d copies in %d buckets: %.0f B of heap, %.1f B per copy", copies, len(st.snapshotBuckets()), grown, perCopy)
	if perCopy > 200 {
		t.Errorf("a stored copy costs %.1f B of heap, want at most 200", perCopy)
	}
}
