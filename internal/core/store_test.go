package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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
			if ov.Object(id) != nil {
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
		if ov.Object(id) == nil {
			continue
		}
		if err := st.RemoveObject(id); err != nil {
			t.Fatal(err)
		}
		removed++
	}
	check("post-leave")
}
