package voronet_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"voronet"
)

// TestQuickstart exercises the public API exactly as the README shows it.
func TestQuickstart(t *testing.T) {
	ov := voronet.New(voronet.Config{NMax: 100000, Seed: 1})
	a, err := ov.Insert(voronet.Point{X: 0.25, Y: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ov.Insert(voronet.Point{X: 0.80, Y: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Insert(voronet.Point{X: 0.25, Y: 0.75}); !errors.Is(err, voronet.ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	hops, err := ov.RouteToObject(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 1 {
		t.Fatalf("two objects are mutual neighbours: %d hops", hops)
	}
	owner, err := ov.Owner(voronet.Point{X: 0.3, Y: 0.7}, a)
	if err != nil {
		t.Fatal(err)
	}
	if owner != a {
		t.Fatalf("owner of a point near a: %d", owner)
	}
	if d := voronet.DefaultDMin(100000); d <= 0 || d >= 1 {
		t.Fatalf("DefaultDMin: %g", d)
	}
}

func TestPublicJoinLeaveQuery(t *testing.T) {
	ov := voronet.New(voronet.Config{NMax: 5000, Seed: 2, LongLinks: 2})
	rng := rand.New(rand.NewSource(3))
	var ids []voronet.ObjectID
	var last voronet.ObjectID = voronet.NoObject
	for i := 0; i < 300; i++ {
		id, err := ov.Join(voronet.Point{X: rng.Float64(), Y: rng.Float64()}, last)
		if err != nil {
			if errors.Is(err, voronet.ErrDuplicate) {
				continue
			}
			t.Fatal(err)
		}
		ids = append(ids, id)
		last = id
	}
	res, err := ov.NewRouter().RouteToPoint(ids[0], voronet.Point{X: 0.5, Y: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ov.Owner(voronet.Point{X: 0.5, Y: 0.5}, voronet.NoObject)
	if res.Owner != want {
		t.Fatalf("query owner %d, want %d", res.Owner, want)
	}
	for i := 0; i < 100; i++ {
		if err := ov.Remove(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if ov.Len() != len(ids)-100 {
		t.Fatalf("Len after removals: %d", ov.Len())
	}
	c := ov.Counters()
	if c.Joins == 0 || c.Leaves != 100 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestPublicParallelRoutes(t *testing.T) {
	ov := voronet.New(voronet.Config{NMax: 2000, Seed: 6})
	rng := rand.New(rand.NewSource(7))
	var ids []voronet.ObjectID
	for len(ids) < 300 {
		if id, err := ov.Insert(voronet.Point{X: rng.Float64(), Y: rng.Float64()}); err == nil {
			ids = append(ids, id)
		}
	}
	pairs := make([]voronet.RoutePair, 100)
	for i := range pairs {
		pairs[i] = voronet.RoutePair{From: ids[rng.Intn(len(ids))], To: ids[rng.Intn(len(ids))]}
	}
	h1, _, err := ov.MeasureRoutes(pairs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if h, err := ov.RouteToObject(p.From, p.To); err != nil || h != h1[i] {
			t.Fatalf("pair %d: %d hops serially (%v), %d measured in parallel", i, h, err, h1[i])
		}
	}
}

// TestStorePublicAPI exercises the object store exactly as the README
// shows it: put, get from another origin, delete, and churn handoff.
func TestStorePublicAPI(t *testing.T) {
	ov := voronet.New(voronet.Config{NMax: 1000, Seed: 9})
	rng := rand.New(rand.NewSource(9))
	var ids []voronet.ObjectID
	for len(ids) < 200 {
		id, err := ov.Insert(voronet.Point{X: rng.Float64(), Y: rng.Float64()})
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	st := voronet.NewStore(ov, voronet.DefaultReplication)

	key := voronet.Point{X: 0.42, Y: 0.13}
	if _, _, err := st.Get(ids[0], key); !errors.Is(err, voronet.ErrKeyNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	owner, hops, err := st.Put(ids[1], key, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if trueOwner, _ := ov.Owner(key, voronet.NoObject); owner != trueOwner {
		t.Fatalf("stored at %d, owner is %d (route took %d hops)", owner, trueOwner, hops)
	}
	val, _, err := st.Get(ids[2], key)
	if err != nil || !bytes.Equal(val, []byte("payload")) {
		t.Fatalf("get: %q, %v", val, err)
	}

	// The owner leaves; the record must be handed to the next owner.
	if err := st.RemoveObject(owner); err != nil {
		t.Fatal(err)
	}
	val, _, err = st.Get(ids[3], key)
	if err != nil || !bytes.Equal(val, []byte("payload")) {
		t.Fatalf("get after owner left: %q, %v", val, err)
	}

	if _, err := st.Delete(ids[4], key); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(ids[5], key); !errors.Is(err, voronet.ErrKeyNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
}
