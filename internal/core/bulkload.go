package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
)

// bulkChunk is the fixed work-granule of the parallel long-link phase.
// Chunking by a constant size — not by worker count — is what makes the
// build's RNG streams (and therefore the resulting overlay) identical for
// every worker count: chunk c always draws from the same seeded stream,
// whichever goroutine happens to process it.
const bulkChunk = 512

// bulkLink is one resolved long link awaiting serial registration.
type bulkLink struct {
	tgt   geom.Point
	owner delaunay.VertexID
}

// BulkLoad builds the overlay from a point set in one parallel pass:
// locality-sorted tessellation construction (delaunay.InsertBulkParallel),
// then the per-object link state — long-link target draws and their
// owner resolution — fanned out over `workers` goroutines (0 selects
// GOMAXPROCS). It returns one ObjectID per input point, order-aligned;
// duplicate positions yield NoObject.
//
// The structural outcome matches inserting the points one by one with
// Insert, except that the long-link targets come from per-chunk RNG
// streams derived from Config.Seed rather than the overlay's single
// sequential stream — a different but equally distributed draw. The
// result is bit-identical for every worker count (see bulkChunk).
//
// BulkLoad is a bootstrap operation: it holds the overlay write lock for
// the duration. On a non-empty overlay it falls back to serial insertion
// (the takeover exchange with existing objects' links has no batched
// equivalent). A point with a NaN or infinite coordinate fails the whole
// call, naming its index, before anything is built.
func (o *Overlay) BulkLoad(points []geom.Point, workers int) ([]ObjectID, error) {
	for i, p := range points {
		if err := checkFinite(p); err != nil {
			return nil, fmt.Errorf("voronet: bulk load: point %d: %w", i, err)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	o.mu.Lock()
	defer o.mu.Unlock()

	ids := make([]ObjectID, len(points))
	if len(o.ids) > 0 {
		for i, p := range points {
			id, err := o.insert(p, delaunay.NoVertex)
			if err != nil {
				id = NoObject
			}
			ids[i] = id
		}
		return ids, nil
	}

	// Phase 1: tessellation. Serial hinted insertion over the parallel
	// Hilbert sort; duplicates map to the already-claimed vertex.
	verts := o.tr.InsertBulkParallel(points, workers)

	// Phase 2: serial bookkeeping in input order (maps and the ids slice
	// are single mutable structures; this pass is linear and cheap). The
	// object records live in one arena so a million-object build costs one
	// allocation, not a million.
	arena := make([]Object, 0, len(points))
	for i, p := range points {
		v := verts[i]
		if v == delaunay.NoVertex || o.vertexObject(v) != NoObject {
			ids[i] = NoObject
			continue
		}
		id := o.nextID
		o.nextID++
		arena = append(arena, Object{ID: id, Pos: p, vert: v, slot: int32(len(o.ids))})
		obj := &arena[len(arena)-1]
		o.objs[id] = obj
		o.setVertexObject(v, id)
		o.ids = append(o.ids, id)
		o.grid.add(v)
		ids[i] = id
	}

	if o.cfg.DisableLongLinks || len(o.ids) == 0 {
		return ids, nil
	}

	// Phase 3: long links. Target draws and owner resolution are
	// read-only against the finished tessellation and grid (NearestSiteRO
	// is the same walk concurrent Routers run, and it starts beside the
	// target: walkStart), so chunks of objects fan out across workers.
	// Since every object's links are resolved against the *final* point
	// set, no takeover exchange is needed: the owner found here is the
	// owner the incremental exchange would have converged to.
	k := o.cfg.LongLinks
	live := o.ids
	nChunks := (len(live) + bulkChunk - 1) / bulkChunk
	links := make([][]bulkLink, nChunks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for c := 0; c < nChunks; c++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(c int) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(o.cfg.Seed + 1 + int64(c)))
			lo := c * bulkChunk
			hi := min(lo+bulkChunk, len(live))
			out := make([]bulkLink, 0, (hi-lo)*k)
			var vbuf []delaunay.VertexID
			for _, id := range live[lo:hi] {
				obj := o.objs[id]
				for j := 0; j < k; j++ {
					tgt := o.chooseLRTWith(rng, obj.Pos)
					var owner delaunay.VertexID
					owner, vbuf = o.tr.NearestSiteRO(tgt, o.walkStart(tgt, obj.vert), vbuf)
					out = append(out, bulkLink{tgt: tgt, owner: owner})
				}
			}
			links[c] = out
		}(c)
	}
	wg.Wait()

	// Serial registration in chunk order — i.e. insertion order — so the
	// back sets come out in a deterministic order too.
	for c, out := range links {
		lo := c * bulkChunk
		for i, l := range out {
			obj := o.objs[live[lo+i/k]]
			holder := o.objs[o.byVertex[l.owner]]
			obj.longTargets = append(obj.longTargets, l.tgt)
			o.setLong(obj, i%k, holder)
			holder.addBack(obj, i%k)
		}
	}
	return ids, nil
}
