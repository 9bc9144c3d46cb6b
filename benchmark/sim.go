package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"voronet"
	"voronet/internal/geom"
)

// simEnv is the single-process simulator at paper scale: one overlay
// built with BulkLoad, an object store riding on it, and two workers that
// call the store directly from two fixed origin objects. No codec, no
// transport, no log: what sim-store-300k and sim-churn measure is routing
// and surgery over the tessellation.
type simEnv struct {
	sc      scale
	churn   bool
	putFrac float64

	ov      *voronet.Overlay
	st      *voronet.Store
	points  []geom.Point
	origins [generators][]voronet.ObjectID // each worker's origin objects, used in rotation
	turn    [generators]int
	ks      *keySet
	scratch [generators][]byte

	// sim-churn: the objects generator 0 joins and removes in turn.
	pool     []churnObj
	joined   []int // indices into pool currently in the overlay
	free     []int
	nextJoin bool

	hops hopBook

	buildSeconds   float64 // BulkLoad alone
	bytesPerObject float64 // heap growth across BulkLoad ÷ objects (traced pass)
}

// simOrigins is how many origin objects each worker routes from. With one
// origin per worker, whether its single long link happens to be a useful
// one moves hops per operation by ±10 % from seed to seed; rotating over
// this many averages that out and leaves the routing work the same.
const simOrigins = 64

// origin returns worker g's next origin object.
func (e *simEnv) origin(g int) voronet.ObjectID {
	e.turn[g]++
	return e.origins[g][e.turn[g]%len(e.origins[g])]
}

type churnObj struct {
	pos geom.Point
	id  voronet.ObjectID
}

// buildSim constructs the overlay and preloads the store. measureHeap
// brackets BulkLoad with forced collections to price an object in bytes;
// it costs time, so only the traced pass asks for it.
func buildSim(name string, sc scale, seed int64, measureHeap bool) (*simEnv, time.Duration, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	e := &simEnv{sc: sc, churn: name == wlSimChurn}
	if !e.churn {
		e.putFrac = 0.1
	}
	e.points = make([]geom.Point, sc.simObjects)
	for i := range e.points {
		e.points[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	e.ks = newKeySet(rng, sc.simKeys, smallValue)

	var before uint64
	if measureHeap {
		before = heapInuse()
	}
	e.ov = voronet.New(voronet.Config{NMax: sc.simObjects, Seed: seed})
	t0 := time.Now()
	ids, err := e.ov.BulkLoad(e.points, generators)
	if err != nil {
		return nil, 0, fmt.Errorf("bulk load: %w", err)
	}
	e.buildSeconds = time.Since(t0).Seconds()
	if measureHeap {
		e.bytesPerObject = (float64(heapInuse()) - float64(before)) / float64(sc.simObjects)
	}
	for _, id := range ids {
		if id == voronet.NoObject {
			return nil, 0, fmt.Errorf("bulk load: duplicate position in a uniform draw")
		}
	}
	e.st = voronet.NewStore(e.ov, 0)
	for g := range e.origins {
		for i := 0; i < simOrigins; i++ {
			e.origins[g] = append(e.origins[g], ids[sc.churnPool+rng.Intn(len(ids)-sc.churnPool)]) // never a pool object
		}
		e.scratch[g] = make([]byte, smallValue)
	}

	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(e.ks.keys); k += generators {
				if _, _, err := e.st.Put(e.origin(g), e.ks.keys[k], e.ks.preloadValue(k)); err != nil {
					failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return nil, 0, fmt.Errorf("preload: %d of %d PUTs failed", n, len(e.ks.keys))
	}

	if e.churn {
		// The first half of the pool is the first bulk-loaded objects, so the
		// writer starts with objects of its own to remove and set-up pays for
		// no routed joins; the second half are fresh positions to join.
		e.pool = make([]churnObj, sc.churnPool)
		for i := range e.pool {
			if i < sc.churnPool/2 {
				e.pool[i] = churnObj{pos: e.points[i], id: ids[i]}
				e.joined = append(e.joined, i)
				continue
			}
			e.pool[i] = churnObj{pos: geom.Pt(rng.Float64(), rng.Float64()), id: voronet.NoObject}
			e.free = append(e.free, i)
		}
		e.nextJoin = true
	}
	return e, time.Since(start), nil
}

func heapInuse() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

func (e *simEnv) hopsPerOp() float64 { return e.hops.mean() }

func (e *simEnv) shape() loadShape {
	if e.churn {
		// Generator 0 churns, generator 1 reads beside it; the c1 phase and
		// the open phase's schedule are the writer's.
		return loadShape{c1: []int{0}, closed: []int{0, 1}, open: []int{0}, openBeside: []int{1}, window: 1}
	}
	return loadShape{c1: []int{0}, closed: []int{0, 1}, open: []int{0, 1}, window: 1}
}

// churnStep joins a free pool object through one of worker 0's origins or
// removes a joined one, picked at random.
func (e *simEnv) churnStep(rng *rand.Rand, join bool) bool {
	if join {
		i := rng.Intn(len(e.free))
		slot := e.free[i]
		id, err := e.st.JoinObject(e.pool[slot].pos, e.origin(0))
		if err != nil {
			return false
		}
		e.pool[slot].id = id
		e.free[i] = e.free[len(e.free)-1]
		e.free = e.free[:len(e.free)-1]
		e.joined = append(e.joined, slot)
		return true
	}
	i := rng.Intn(len(e.joined))
	slot := e.joined[i]
	if err := e.st.RemoveObject(e.pool[slot].id); err != nil {
		return false
	}
	e.pool[slot].id = voronet.NoObject
	e.joined[i] = e.joined[len(e.joined)-1]
	e.joined = e.joined[:len(e.joined)-1]
	e.free = append(e.free, slot)
	return true
}

// issue runs generator g's next operation to completion.
func (e *simEnv) issue(g int, rng *rand.Rand, done func(opKind, bool)) {
	if e.churn && g == 0 {
		join := e.nextJoin
		e.nextJoin = !join
		kind := opRemove
		if join {
			kind = opJoin
		}
		done(kind, e.churnStep(rng, join))
		return
	}
	if e.putFrac > 0 && rng.Float64() < e.putFrac {
		k, counter := e.ks.beginPut(g, rng, e.scratch[g])
		_, _, err := e.st.Put(e.origin(g), e.ks.keys[k], e.scratch[g])
		e.ks.endPut(k, counter, err == nil)
		done(opPut, err == nil)
		return
	}
	k := rng.Intn(len(e.ks.keys))
	lo := e.ks.acked[k].Load()
	v, hops, err := e.st.Get(e.origin(g), e.ks.keys[k])
	ok := false
	if err == nil {
		ok, _ = e.ks.checkGet(k, v, lo, 0) // the simulator applies replicas inside Put: no lag to allow for
	}
	if ok {
		e.hops.add(hops)
	}
	done(opGet, ok)
}

// audit checks the structure and the data the run left behind: the
// overlay's invariants, every key readable with a valid value, and R+1
// live copies of a sample of keys (Store.Copies walks every bucket, so
// the full key set would take minutes at 300k objects). Under churn the
// count is reported, not required: the store keeps a former owner's copy
// as an extra replica, and a departing replica holder whose successor
// already has the record is not replaced, so keys legitimately end the
// run with R, R+1 or R+2 copies (see README.md, "What the runs showed").
func (e *simEnv) audit() auditResult {
	var res auditResult
	res.Checked++
	if err := e.ov.CheckInvariants(false); err != nil {
		res.Failed++
		res.Notes = append(res.Notes, "CheckInvariants: "+err.Error())
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(e.ks.keys); k += generators {
				v, _, err := e.st.Get(e.origin(g), e.ks.keys[k])
				if ok, _ := e.ks.checkGet(k, v, e.ks.acked[k].Load(), 0); err != nil || !ok {
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	res.Checked += len(e.ks.keys)
	if n := int(bad.Load()); n > 0 {
		res.Failed += n
		res.Notes = append(res.Notes, fmt.Sprintf("%d keys unreadable or wrong in the final read-back", n))
	}
	want := e.st.Replication() + 1
	step := max(1, len(e.ks.keys)/e.sc.copiesAudit)
	lo, hi := want, want
	for k := 0; k < len(e.ks.keys); k += step {
		got := e.st.Copies(e.ks.keys[k])
		lo, hi = min(lo, got), max(hi, got)
		if e.churn {
			continue
		}
		res.Checked++
		if got != want {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("key %d: %d live copies, want %d", k, got, want))
		}
	}
	res.CopiesMin, res.CopiesMax = lo, hi
	return res
}

func (e *simEnv) close() {
	e.ov, e.st, e.points, e.pool = nil, nil, nil, nil
}
