package core

import (
	"runtime"
	"sync"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/voronoi"
)

// Router is the overlay's concurrent read engine: it performs greedy
// routing and mutation-free owner resolution without touching any shared
// overlay state — it owns its scratch buffers, its Voronoi scratch view
// and its own step counter. Every Router method takes the overlay's read
// lock, so any number of
// Routers can run concurrently on different goroutines, including while a
// single writer joins, inserts and removes objects (the writer holds the
// write lock and serialises against all readers).
//
// This is how the experiment engine uses every core for the paper's
// route-length measurements (100 000 samples per checkpoint in §5) and how
// the Store fast path fans Put/Get/Delete across workers.
type Router struct {
	o *Overlay
	// Steps counts Greedyneighbour invocations performed by this router.
	Steps uint64

	// rt feeds the very same walk implementations the serial overlay path
	// runs (Overlay.greedyNeighbor / routeToPoint / routeToObject), just
	// charged to this router's private scratch and Steps counter - the two
	// paths cannot drift apart.
	rt   routeState
	nbuf []delaunay.VertexID
}

// NewRouter returns a router bound to the overlay.
func (o *Overlay) NewRouter() *Router {
	r := &Router{o: o}
	r.rt = routeState{vor: voronoi.New(o.tr), steps: &r.Steps}
	return r
}

// routeToObject greedily routes from one object to another and returns the
// hop count, exactly like Overlay.RouteToObject but safe to call from
// multiple goroutines concurrently.
func (r *Router) routeToObject(from, to ObjectID) (int, error) {
	r.o.mu.RLock()
	defer r.o.mu.RUnlock()
	return r.o.routeToObject(&r.rt, from, to)
}

// RouteToPoint routes from object `from` towards target per Algorithm 5
// and names the owner of target's region (see resolve).
func (r *Router) RouteToPoint(from ObjectID, target geom.Point) (RouteResult, error) {
	r.o.mu.RLock()
	defer r.o.mu.RUnlock()
	return r.o.resolve(&r.rt, from, target)
}

// Owner resolves Obj(p) with a read-only nearest-site walk that starts
// beside p; hint's object is the start only when the close-neighbour grid
// has no vertex near p. The concurrent, allocation-free equivalent of
// Overlay.Owner.
func (r *Router) Owner(p geom.Point, hint ObjectID) (ObjectID, error) {
	r.o.mu.RLock()
	defer r.o.mu.RUnlock()
	var id ObjectID
	var err error
	id, r.nbuf, err = r.o.owner(p, hint, r.nbuf)
	return id, err
}

// voronoiNeighbors appends vn(id) to buf using the router's private vertex
// scratch. The caller holds the overlay's lock.
func (r *Router) voronoiNeighbors(id ObjectID, buf []ObjectID) ([]ObjectID, error) {
	obj := r.o.objs[id]
	if obj == nil {
		return buf[:0], ErrNotFound
	}
	buf = buf[:0]
	r.nbuf = r.o.tr.Neighbors(obj.vert, r.nbuf)
	for _, v := range r.nbuf {
		buf = append(buf, r.o.byVertex[v])
	}
	return buf, nil
}

// RoutePair is one sampled couple for MeasureRoutes.
type RoutePair struct {
	From, To ObjectID
}

// MeasureRoutes routes every pair over `workers` goroutines (0 selects
// GOMAXPROCS) and returns the hop count per pair plus the total
// Greedyneighbour count. Each worker is an independent Router, so the
// measurement runs concurrently with other readers.
func (o *Overlay) MeasureRoutes(pairs []RoutePair, workers int) ([]int, uint64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers == 0 {
		return nil, 0, nil
	}
	hops := make([]int, len(pairs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var steps uint64
	chunk := (len(pairs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			r := o.NewRouter()
			for i := lo; i < hi; i++ {
				h, err := r.routeToObject(pairs[i].From, pairs[i].To)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				hops[i] = h
			}
			mu.Lock()
			steps += r.Steps
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, steps, firstErr
	}
	return hops, steps, nil
}
