package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"voronet/internal/geom"
)

// TestConcurrentChurnMatchesSerialBuild is the write path's concurrency
// property test: joins, inserts and leaves from four goroutines, crowded
// onto the fifteen lines x = k/16 so that their conflict cavities overlap,
// race against each other and against store traffic in distant regions.
// Afterwards the overlay must pass the deep invariant battery and every
// object's Voronoi view must equal the reference tessellation built by
// one goroutine from the surviving positions — i.e. racing surgery
// committed exactly the structure a single writer would have.
func TestConcurrentChurnMatchesSerialBuild(t *testing.T) {
	o := New(Config{NMax: 100000, Seed: 42})
	st := NewStore(o, 2)

	// Seed population: a stable backbone the churn never removes.
	seedRng := rand.New(rand.NewSource(1))
	var backbone []ObjectID
	for i := 0; i < 400; i++ {
		id, err := o.Insert(geom.Pt(seedRng.Float64(), seedRng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		backbone = append(backbone, id)
	}

	// Distant acked PUTs: keys pinned away from the churn band edges.
	keys := make([]geom.Point, 32)
	for i := range keys {
		keys[i] = geom.Pt(0.03+0.9*seedRng.Float64(), 0.03+0.9*seedRng.Float64())
	}

	const workers = 4
	const opsPerWorker = 150
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var mine []ObjectID
			for i := 0; i < opsPerWorker; i++ {
				// x within ±1e-3 of a random multiple of 1/16, y anywhere:
				// all workers draw from the same fifteen thin columns, so
				// one worker's cavity is routinely another's.
				edge := float64(1+rng.Intn(15)) / 16
				p := geom.Pt(edge+(rng.Float64()-0.5)*2e-3, rng.Float64())
				// Store-aware churn ops: surgery plus bucket handoff in
				// one atomic step, so records owned by a departing churn
				// object migrate instead of dying.
				var id ObjectID
				var err error
				if i%3 == 0 {
					id, err = st.JoinObject(p, backbone[rng.Intn(len(backbone))])
				} else {
					id, err = st.InsertObject(p)
				}
				if err == ErrDuplicate {
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
				mine = append(mine, id)
				// Remove an earlier object of ours half the time, so the
				// population churns rather than only growing.
				if len(mine) > 4 && rng.Intn(2) == 0 {
					victim := rng.Intn(len(mine))
					if err := st.RemoveObject(mine[victim]); err != nil {
						errs <- fmt.Errorf("worker %d remove: %v", w, err)
						return
					}
					mine[victim] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
			}
		}(w)
	}
	// Store traffic concurrent with the churn: every PUT that returns
	// without error must be readable afterwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for round := 0; round < 40; round++ {
			for i, key := range keys {
				val := []byte{byte(round), byte(i)}
				if _, _, err := st.Put(backbone[rng.Intn(len(backbone))], key, val); err != nil {
					errs <- fmt.Errorf("put round %d key %d: %v", round, i, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := o.CheckInvariants(true); err != nil {
		t.Fatalf("invariants after concurrent churn: %v", err)
	}

	// Acked writes survived the churn.
	for i, key := range keys {
		val, _, err := st.Get(backbone[0], key)
		if err != nil {
			t.Fatalf("key %d lost after churn: %v", i, err)
		}
		if len(val) != 2 || val[0] != 39 || val[1] != byte(i) {
			t.Fatalf("key %d: got %v, want [39 %d]", i, val, i)
		}
	}

	// Structure equals the serial reference build of the final point set.
	ref := New(Config{NMax: 100000, Seed: 42, DisableLongLinks: true})
	refID := make(map[geom.Point]ObjectID)
	var finals []*Object
	o.ForEachObject(func(obj *Object) bool { finals = append(finals, obj); return true })
	for _, obj := range finals {
		id, err := ref.Insert(obj.Pos)
		if err != nil {
			t.Fatalf("reference insert %v: %v", obj.Pos, err)
		}
		refID[obj.Pos] = id
	}
	nbrPositions := func(ov *Overlay, id ObjectID) []geom.Point {
		nbrs, err := ov.VoronoiNeighbors(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]geom.Point, len(nbrs))
		for i, nid := range nbrs {
			pos, err := ov.Position(nid)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = pos
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].X != out[b].X {
				return out[a].X < out[b].X
			}
			return out[a].Y < out[b].Y
		})
		return out
	}
	for _, obj := range finals {
		got := nbrPositions(o, obj.ID)
		want := nbrPositions(ref, refID[obj.Pos])
		if len(got) != len(want) {
			t.Fatalf("object at %v: %d Voronoi neighbours, reference has %d", obj.Pos, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("object at %v: neighbour %d is %v, reference %v", obj.Pos, i, got[i], want[i])
			}
		}
	}
}
