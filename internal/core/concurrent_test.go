package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/store"
	"voronet/internal/workload"
)

// TestConcurrentReadersWithWriter is the read/write discipline under the
// race detector: many goroutines route, resolve owners and read and write
// the store through independent Routers while a single writer churns
// the overlay with joins, inserts and removes (plus the store handoff).
// Run with -race; any shared-state leak on the read path shows up here.
func TestConcurrentReadersWithWriter(t *testing.T) {
	o := New(Config{NMax: 4000, Seed: 301})
	rng := rand.New(rand.NewSource(302))
	// A stable core of objects the writer never removes: readers route
	// from these without racing against their disappearance.
	stable := fill(t, o, &workload.Uniform{Rand: rng}, 400)

	st := NewStore(o, 3)
	keys := make([]geom.Point, 120)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = geom.Pt(rng.Float64(), rng.Float64())
		vals[i] = []byte(fmt.Sprintf("v%04d", i))
		if _, _, err := st.Put(stable[rng.Intn(len(stable))], keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}

	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerErr atomic.Value
	fail := func(err error) {
		readerErr.CompareAndSwap(nil, err)
	}
	tolerated := func(err error) bool {
		// A concurrent writer may remove a reader's destination object or
		// hand a key's bucket over mid-operation; those are legitimate
		// outcomes, not races.
		return err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, store.ErrNotFound)
	}
	// Each reader also writes its own key; the last acknowledged value must
	// survive all churn (RemoveObject migrates buckets atomically with the
	// tessellation surgery, so an acked PUT can never die with its owner).
	ownKeys := make([]geom.Point, readers)
	lastWritten := make([]int32, readers)
	for w := range ownKeys {
		ownKeys[w] = geom.Pt(0.05+0.9*float64(w)/readers, 0.91)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int, seed int64) {
			defer wg.Done()
			r := o.NewRouter()
			rng := rand.New(rand.NewSource(seed))
			writes := int32(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				from := stable[rng.Intn(len(stable))]
				switch rng.Intn(5) {
				case 0:
					if _, err := r.routeToObject(from, stable[rng.Intn(len(stable))]); !tolerated(err) {
						fail(err)
						return
					}
				case 1:
					if _, err := r.RouteToPoint(from, geom.Pt(rng.Float64(), rng.Float64())); !tolerated(err) {
						fail(err)
						return
					}
				case 2:
					if _, err := r.Owner(geom.Pt(rng.Float64(), rng.Float64()), from); !tolerated(err) {
						fail(err)
						return
					}
				case 3:
					i := rng.Intn(len(keys))
					v, _, err := st.Get(from, keys[i])
					if !tolerated(err) {
						fail(err)
						return
					}
					if err == nil && !bytes.Equal(v, vals[i]) {
						fail(fmt.Errorf("key %d: got %q want %q", i, v, vals[i]))
						return
					}
				case 4:
					writes++
					_, _, err := st.Put(from, ownKeys[w], []byte(fmt.Sprintf("w%d-%d", w, writes)))
					if !tolerated(err) {
						fail(err)
						return
					}
					if err == nil {
						atomic.StoreInt32(&lastWritten[w], writes)
					}
				}
			}
		}(w, 400+int64(w))
	}

	// The single writer: join, insert, remove — with the store handoff —
	// while the readers run.
	wrng := rand.New(rand.NewSource(500))
	var churn []ObjectID
	for step := 0; step < 300; step++ {
		if len(churn) < 10 || wrng.Float64() < 0.6 {
			p := geom.Pt(wrng.Float64(), wrng.Float64())
			var id ObjectID
			var err error
			// Atomic insert/join + handoff: a concurrent PUT acked by the
			// newcomer can never be clobbered by the records it inherits.
			if wrng.Float64() < 0.5 {
				id, err = st.JoinObject(p, stable[wrng.Intn(len(stable))])
			} else {
				id, err = st.InsertObject(p)
			}
			if err != nil {
				if errors.Is(err, ErrDuplicate) {
					continue
				}
				t.Errorf("writer step %d: %v", step, err)
				break
			}
			churn = append(churn, id)
		} else {
			i := wrng.Intn(len(churn))
			id := churn[i]
			churn[i] = churn[len(churn)-1]
			churn = churn[:len(churn)-1]
			// Atomic handoff + surgery: concurrent Puts can never land in
			// the drained bucket of a disappearing owner.
			if err := st.RemoveObject(id); err != nil {
				t.Errorf("writer remove: %v", err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := readerErr.Load(); err != nil {
		t.Fatalf("reader failed: %v", err)
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	// Quiescent correctness: every key answers with its value again.
	for i, k := range keys {
		v, _, err := st.Get(stable[0], k)
		if err != nil || !bytes.Equal(v, vals[i]) {
			t.Fatalf("post-churn key %d: %q, %v", i, v, err)
		}
	}
	// Durability: the last acknowledged write of every reader survived the
	// churn (or a later write of the same reader superseded it).
	for w := range ownKeys {
		last := atomic.LoadInt32(&lastWritten[w])
		if last == 0 {
			continue // this reader never drew the write op
		}
		v, _, err := st.Get(stable[0], ownKeys[w])
		if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("w%d-%d", w, last))) {
			t.Fatalf("reader %d: acked write %d lost: %q, %v", w, last, v, err)
		}
	}
}

// TestStoreDoParallel drives the store from 8 goroutines at once: a mixed
// put/get/delete batch must leave exactly the same store state as the
// serial replay of the same per-key operation sequences.
func TestStoreDoParallel(t *testing.T) {
	o := New(Config{NMax: 2000, Seed: 311})
	rng := rand.New(rand.NewSource(312))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 400)
	st := NewStore(o, 3)

	// fanOut runs op(0..n-1) in contiguous chunks across 8 goroutines and
	// returns one error per op, order-aligned.
	fanOut := func(n int, op func(i int) error) []error {
		const workers = 8
		errs := make([]error, n)
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					errs[i] = op(i)
				}
			}(lo, min(lo+chunk, n))
		}
		wg.Wait()
		return errs
	}

	keys := make([]geom.Point, 64)
	for i := range keys {
		keys[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	putFrom := make([]ObjectID, len(keys))
	for i := range keys {
		putFrom[i] = ids[rng.Intn(len(ids))]
	}
	for i, err := range fanOut(len(keys), func(i int) error {
		_, _, err := st.Put(putFrom[i], keys[i], []byte(fmt.Sprintf("p%03d", i)))
		return err
	}) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Second wave: one get per key plus deletes of every fourth key. Gets
	// race the deletes of their key across workers; per-key
	// linearisability is all the distributed store promises, so only the
	// final state is asserted.
	type storeOp struct {
		del  bool // a delete; otherwise a get
		from ObjectID
		key  geom.Point
	}
	var ops []storeOp
	for i, k := range keys {
		ops = append(ops, storeOp{from: ids[rng.Intn(len(ids))], key: k})
		if i%4 == 0 {
			ops = append(ops, storeOp{del: true, from: ids[rng.Intn(len(ids))], key: k})
		}
	}
	for i, err := range fanOut(len(ops), func(i int) error {
		if ops[i].del {
			_, err := st.Delete(ops[i].from, ops[i].key)
			return err
		}
		_, _, err := st.Get(ops[i].from, ops[i].key)
		return err
	}) {
		if err != nil && !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("op %d (delete=%v): %v", i, ops[i].del, err)
		}
	}
	// Final state: deleted keys answer not-found, the rest their payload.
	for i, k := range keys {
		v, _, err := st.Get(ids[0], k)
		if i%4 == 0 {
			if !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("deleted key %d still answers: %q, %v", i, v, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("p%03d", i))) {
			t.Fatalf("key %d: %q, %v", i, v, err)
		}
	}
}

// TestRouterQueriesMatchSerial pins the Router read engine to the
// serially-accounted Overlay implementations: owners and point routes must
// be identical on a frozen overlay.
func TestRouterQueriesMatchSerial(t *testing.T) {
	o := New(Config{NMax: 3000, Seed: 321})
	rng := rand.New(rand.NewSource(322))
	ids := fill(t, o, workload.ByName("alpha2", rng), 600)
	r := o.NewRouter()

	for q := 0; q < 150; q++ {
		from := ids[rng.Intn(len(ids))]
		p := geom.Pt(rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1)

		so, err1 := o.Owner(p, from)
		ro, err2 := r.Owner(p, from)
		if err1 != nil || err2 != nil {
			t.Fatalf("owner errors: %v, %v", err1, err2)
		}
		if so != ro && !o.equidistantOwners(p, so, ro) {
			t.Fatalf("owner of %v: serial %d, router %d", p, so, ro)
		}

		sres, err1 := o.handleQuery(from, p)
		rres, err2 := r.RouteToPoint(from, p)
		if err1 != nil || err2 != nil {
			t.Fatalf("route errors: %v, %v", err1, err2)
		}
		if sres.Stop != rres.Stop || sres.Hops != rres.Hops {
			t.Fatalf("route to %v: serial stop=%d hops=%d, router stop=%d hops=%d",
				p, sres.Stop, sres.Hops, rres.Stop, rres.Hops)
		}
		if sres.Owner != rres.Owner && !o.equidistantOwners(p, sres.Owner, rres.Owner) {
			t.Fatalf("route owner of %v: serial %d, router %d", p, sres.Owner, rres.Owner)
		}
	}
}

// TestReadEntryPointsAgree pins the one resolve behind every read: for
// drawn (from, target) pairs — exterior targets included, on a full
// overlay and on collinear and two-object ones (dim < 2) —
// Router.RouteToPoint and handleQuery return the same Stop, Owner and
// Hops, and Store.Put / Store.Get route the same hops to the same owner.
func TestReadEntryPointsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(913))
	full := New(Config{NMax: 3000, Seed: 912})
	fill(t, full, workload.ByName("alpha2", rng), 600)
	line := New(Config{NMax: 100, Seed: 911})
	for _, x := range []float64{0.1, 0.35, 0.5, 0.9} {
		if _, err := line.Insert(geom.Pt(x, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	pair := New(Config{NMax: 100, Seed: 910})
	for _, p := range []geom.Point{{X: 0.25, Y: 0.4}, {X: 0.75, Y: 0.6}} {
		if _, err := pair.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		o     *Overlay
		pairs int
	}{{"full", full, 400}, {"collinear", line, 50}, {"pair", pair, 50}} {
		o := tc.o
		ids := o.ids
		r := o.NewRouter()
		st := NewStore(o, 0)
		for q := 0; q < tc.pairs; q++ {
			from := ids[rng.Intn(len(ids))]
			p := geom.Pt(rng.Float64(), rng.Float64())
			if q%3 == 0 {
				p = geom.Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
			}
			want, err := r.RouteToPoint(from, p)
			if err != nil {
				t.Fatalf("%s: Router.RouteToPoint(%d, %v): %v", tc.name, from, p, err)
			}
			if got, err := o.handleQuery(from, p); err != nil || got != want {
				t.Fatalf("%s: handleQuery(%d, %v) = %+v, %v; RouteToPoint says %+v", tc.name, from, p, got, err, want)
			}
			owner, hops, err := st.Put(from, p, []byte{byte(q)})
			if err != nil || owner != want.Owner || hops != want.Hops {
				t.Fatalf("%s: Store.Put(%d, %v) = owner %d, %d hops, %v; RouteToPoint says %+v", tc.name, from, p, owner, hops, err, want)
			}
			val, hops, err := st.Get(from, p)
			if err != nil || hops != want.Hops || len(val) != 1 || val[0] != byte(q) {
				t.Fatalf("%s: Store.Get(%d, %v) = %v, %d hops, %v; want the value put at owner %d over %d hops", tc.name, from, p, val, hops, err, want.Owner, want.Hops)
			}
		}
	}
}
