package store

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

func TestLocalPutGetDelete(t *testing.T) {
	l := NewLocal()
	k := geom.Pt(0.3, 0.7)
	if _, ok := l.Get(k); ok {
		t.Fatal("empty store must miss")
	}
	r1 := l.Put(k, []byte("one"))
	if r1.Version != 1 {
		t.Fatalf("first version = %d", r1.Version)
	}
	got, ok := l.Get(k)
	if !ok || !bytes.Equal(got.Value, []byte("one")) {
		t.Fatalf("get after put: %+v ok=%v", got, ok)
	}
	r2 := l.Put(k, []byte("two"))
	if r2.Version != 2 {
		t.Fatalf("second version = %d", r2.Version)
	}
	tomb, ok := l.Delete(k)
	if !ok || !tomb.Deleted || tomb.Version != 3 {
		t.Fatalf("delete: %+v ok=%v", tomb, ok)
	}
	if _, ok := l.Get(k); ok {
		t.Fatal("tombstoned key must miss")
	}
	if _, ok := l.Lookup(k); !ok {
		t.Fatal("tombstone must remain visible to Lookup")
	}
	if _, ok := l.Delete(k); ok {
		t.Fatal("double delete must report not found")
	}
	// A put over the tombstone resurrects with a higher version.
	r4 := l.Put(k, []byte("three"))
	if r4.Version != 4 || r4.Deleted {
		t.Fatalf("resurrect: %+v", r4)
	}
	if l.Len() != 1 {
		t.Fatalf("live records = %d", l.Len())
	}
}

func TestLocalApplyNewerWins(t *testing.T) {
	l := NewLocal()
	k := geom.Pt(0.1, 0.2)
	if !l.Apply(proto.StoreRecord{Key: k, Value: []byte("v3"), Version: 3}) {
		t.Fatal("fresh apply must change state")
	}
	if l.Apply(proto.StoreRecord{Key: k, Value: []byte("v2"), Version: 2}) {
		t.Fatal("stale apply must be dropped")
	}
	if l.Apply(proto.StoreRecord{Key: k, Value: []byte("v3b"), Version: 3}) {
		t.Fatal("equal-version apply must keep the resident record")
	}
	got, _ := l.Get(k)
	if !bytes.Equal(got.Value, []byte("v3")) {
		t.Fatalf("value after merges: %q", got.Value)
	}
	// A newer tombstone shadows the value; an even newer value resurrects.
	if !l.Apply(proto.StoreRecord{Key: k, Version: 4, Deleted: true}) {
		t.Fatal("newer tombstone must apply")
	}
	if _, ok := l.Get(k); ok {
		t.Fatal("tombstone must hide the value")
	}
	// Put continues the version chain past the tombstone.
	if r := l.Put(k, []byte("v5")); r.Version != 5 {
		t.Fatalf("put over tombstone: %+v", r)
	}
}

func TestLocalCollect(t *testing.T) {
	l := NewLocal()
	l.Put(geom.Pt(0.1, 0.1), []byte("a"))
	l.Put(geom.Pt(0.9, 0.9), []byte("b"))
	l.Delete(geom.Pt(0.9, 0.9))
	left := l.Collect(func(k geom.Point) bool { return k.X < 0.5 })
	if len(left) != 1 || left[0].Deleted {
		t.Fatalf("collect left: %+v", left)
	}
	right := l.Collect(func(k geom.Point) bool { return k.X > 0.5 })
	if len(right) != 1 || !right[0].Deleted {
		t.Fatalf("collect must include tombstones: %+v", right)
	}
	if n := len(l.Snapshot()); n != 2 {
		t.Fatalf("snapshot size = %d", n)
	}
	l.Clear()
	if n := len(l.Snapshot()); n != 0 {
		t.Fatalf("snapshot after clear = %d", n)
	}
}

func TestInflightResolve(t *testing.T) {
	f := NewInflight(0)
	var got Reply
	id, _ := f.Add(func(r Reply) { got = r }, 0)
	if len(f.pending) != 1 {
		t.Fatalf("pending = %d", len(f.pending))
	}
	if !f.Resolve(id, Reply{Found: true, Value: []byte("x"), Hops: 4}) {
		t.Fatal("resolve must find the request")
	}
	if !got.Found || got.Hops != 4 || !bytes.Equal(got.Value, []byte("x")) {
		t.Fatalf("reply: %+v", got)
	}
	if f.Resolve(id, Reply{}) {
		t.Fatal("duplicate resolve must be dropped")
	}
	if len(f.pending) != 0 {
		t.Fatalf("pending after resolve = %d", len(f.pending))
	}
}

func TestInflightLimit(t *testing.T) {
	f := NewInflight(1)
	id, ok := f.Add(func(Reply) {}, 0)
	if !ok {
		t.Fatal("first add refused under a limit of 1")
	}
	if _, ok := f.Add(func(Reply) {}, 0); ok || len(f.pending) != 1 {
		t.Fatalf("add at the limit: admitted=%v pending=%d", ok, len(f.pending))
	}
	f.Resolve(id, Reply{})
	if next, ok := f.Add(func(Reply) {}, 0); !ok || next != id+1 {
		t.Fatalf("add after resolve: id %d admitted=%v; a refusal must not consume an ID", next, ok)
	}
}

func TestInflightTimeout(t *testing.T) {
	f := NewInflight(0)
	done := make(chan Reply, 1)
	f.Add(func(r Reply) { done <- r }, 10*time.Millisecond)
	select {
	case r := <-done:
		if r.Err != ErrTimeout {
			t.Fatalf("timeout reply: %+v", r)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout never fired")
	}
	if len(f.pending) != 0 {
		t.Fatalf("pending after timeout = %d", len(f.pending))
	}
}

func TestLocalConcurrentAccess(t *testing.T) {
	l := NewLocal()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := geom.Pt(float64(g)/8, 0.5)
			for i := 0; i < 200; i++ {
				l.Put(k, []byte{byte(i)})
				l.Get(k)
				l.Apply(proto.StoreRecord{Key: k, Version: uint64(i)})
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 8 {
		t.Fatalf("live records = %d", l.Len())
	}
}
