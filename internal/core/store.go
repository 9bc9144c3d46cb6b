package core

import (
	"sync"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
)

// Store is the simulator mirror of the distributed object store
// (internal/node + internal/store): one process holds the per-object
// record buckets the distributed protocol maintains collectively. The
// placement rules are identical — a record lives at the owner of its key's
// Voronoi region and on the owner's Replication Voronoi neighbours closest
// to the key — so a workload driven through both implementations must
// agree key for key (see internal/sim's equivalence test).
//
// Concurrency: Put, Get and Delete are safe for any number of concurrent
// callers. By default they ride the overlay's read lock — each operation
// borrows a pooled Router, resolves the key's owner with a mutation-free
// nearest-site walk, and touches only the independently-locked buckets —
// so reads and writes to *different keys* run genuinely in parallel, and
// all of them run in parallel with each other while a single overlay
// writer proceeds serially. Objects that come and go while a store is
// attached do so through InsertObject, JoinObject and RemoveObject, which
// run the tessellation surgery and the store handoff under one hold of
// the overlay write lock.
type Store struct {
	ov  *Overlay
	rep int

	mu      sync.RWMutex // guards buckets (the map, not the Locals)
	buckets map[ObjectID]*store.Local

	clients sync.Pool // *storeClient
}

// storeClient is the per-goroutine scratch of one in-flight store
// operation: a Router for owner resolution and a neighbour buffer for
// replica placement.
type storeClient struct {
	r   *Router
	vns []ObjectID
}

// NewStore attaches an empty object store to ov. replication <= 0 selects
// store.DefaultReplication.
func NewStore(ov *Overlay, replication int) *Store {
	if replication <= 0 {
		replication = store.DefaultReplication
	}
	s := &Store{
		ov:      ov,
		rep:     replication,
		buckets: make(map[ObjectID]*store.Local),
	}
	s.clients.New = func() any { return &storeClient{r: ov.NewRouter()} }
	return s
}

// Replication returns the replication factor R.
func (s *Store) Replication() int { return s.rep }

func (s *Store) bucket(id ObjectID) *store.Local {
	s.mu.RLock()
	b := s.buckets[id]
	s.mu.RUnlock()
	if b != nil {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b = s.buckets[id]; b == nil {
		b = store.NewLocal()
		s.buckets[id] = b
	}
	return b
}

// Put routes a PUT from object `from` to the owner of key, which stores
// value and replicates it. It returns the owner and the route's hop count.
func (s *Store) Put(from ObjectID, key geom.Point, value []byte) (owner ObjectID, hops int, err error) {
	c := s.client()
	defer s.clients.Put(c)
	s.ov.mu.RLock()
	defer s.ov.mu.RUnlock()
	res, err := s.ov.resolve(&c.r.rt, from, key)
	if err != nil {
		return NoObject, res.Hops, err
	}
	rec := s.bucket(res.Owner).Put(key, value)
	s.replicateLocked(c, res.Owner, NoObject, rec)
	return res.Owner, res.Hops, nil
}

// Get routes a GET from object `from` and returns the owner's record
// value, or store.ErrNotFound for a missing or deleted key. The value is
// the stored slice itself, shared with the store and with the key's R
// replicas, which hold the same backing array: the caller must not
// modify it.
func (s *Store) Get(from ObjectID, key geom.Point) (value []byte, hops int, err error) {
	c := s.client()
	defer s.clients.Put(c)
	s.ov.mu.RLock()
	defer s.ov.mu.RUnlock()
	res, err := s.ov.resolve(&c.r.rt, from, key)
	if err != nil {
		return nil, res.Hops, err
	}
	rec, ok := s.bucket(res.Owner).Get(key)
	if !ok {
		return nil, res.Hops, store.ErrNotFound
	}
	return rec.Value, res.Hops, nil
}

// Delete routes a DELETE from object `from` to the owner of key, which
// tombstones the record and replicates the tombstone. It returns
// store.ErrNotFound when the owner had no live record.
func (s *Store) Delete(from ObjectID, key geom.Point) (hops int, err error) {
	c := s.client()
	defer s.clients.Put(c)
	s.ov.mu.RLock()
	defer s.ov.mu.RUnlock()
	res, err := s.ov.resolve(&c.r.rt, from, key)
	if err != nil {
		return res.Hops, err
	}
	tomb, ok := s.bucket(res.Owner).Delete(key)
	if !ok {
		return res.Hops, store.ErrNotFound
	}
	s.replicateLocked(c, res.Owner, NoObject, tomb)
	return res.Hops, nil
}

func (s *Store) client() *storeClient { return s.clients.Get().(*storeClient) }

// replicateLocked pushes rec to the rep Voronoi neighbours of owner
// nearest to the record's key (store.Closest), skipping `exclude` (a
// departing object), under a held overlay lock; the neighbour list lives
// in the client's private scratch.
func (s *Store) replicateLocked(c *storeClient, owner, exclude ObjectID, rec proto.StoreRecord) {
	vns, err := c.r.voronoiNeighbors(owner, c.vns)
	c.vns = vns[:0]
	if err != nil {
		return
	}
	var rank [8]int
	for _, i := range store.Closest(rank[:0], s.rep, len(vns), rec.Key, func(i int) (geom.Point, bool) {
		return s.ov.objs[vns[i]].Pos, vns[i] != exclude
	}) {
		s.bucket(vns[i]).Apply(rec)
	}
}

// onInsertLocked performs the store side of AddVoronoiRegion for a
// freshly inserted object: each new Voronoi neighbour hands over the
// records whose key now falls in the newcomer's region (keeping its copy
// as a replica), and the newcomer re-replicates them. The caller holds the
// overlay write lock since before the insertion.
func (s *Store) onInsertLocked(c *storeClient, id ObjectID) {
	obj := s.ov.objs[id]
	if obj == nil {
		return
	}
	vnsBuf, err := c.r.voronoiNeighbors(id, c.vns)
	c.vns = vnsBuf[:0]
	if err != nil {
		return
	}
	// Copy: replicateLocked below reuses the client's neighbour buffer.
	vns := append([]ObjectID(nil), vnsBuf...)
	for _, nid := range vns {
		s.mu.RLock()
		b := s.buckets[nid]
		s.mu.RUnlock()
		if b == nil {
			continue
		}
		npos := s.ov.objs[nid].Pos
		moved := b.Collect(func(k geom.Point) bool {
			return geom.Dist2(obj.Pos, k) < geom.Dist2(npos, k)
		})
		for _, rec := range moved {
			if s.bucket(id).Apply(rec) {
				s.replicateLocked(c, id, NoObject, rec)
			}
		}
	}
}

// InsertObject inserts an object at p together with its store handoff,
// atomically with respect to concurrent Put/Get/Delete: surgery and
// handoff run under one hold of the overlay write lock. Were the lock
// released between them, a PUT acked by the fresh owner (whose bucket
// restarts the key's version chain) could be clobbered by the handoff
// delivering an older value with a higher version; one hold keeps every
// key's version chain continuous across ownership changes.
func (s *Store) InsertObject(p geom.Point) (ObjectID, error) {
	c := s.client()
	defer s.clients.Put(c)
	s.ov.mu.Lock()
	defer s.ov.mu.Unlock()
	id, err := s.ov.insert(p, delaunay.NoVertex)
	if err != nil {
		return NoObject, err
	}
	s.onInsertLocked(c, id)
	return id, nil
}

// JoinObject is InsertObject through the full routed join protocol
// (Algorithm 1): protocol join plus store handoff in one atomic step
// (see InsertObject).
func (s *Store) JoinObject(p geom.Point, via ObjectID) (ObjectID, error) {
	c := s.client()
	defer s.clients.Put(c)
	s.ov.mu.Lock()
	defer s.ov.mu.Unlock()
	id, err := s.ov.join(p, via)
	if err != nil {
		return NoObject, err
	}
	s.onInsertLocked(c, id)
	return id, nil
}

// RemoveObject removes object id from the overlay together with its store
// handoff, atomically with respect to concurrent Put/Get/Delete: the
// bucket drain and the surgery run under one hold of the overlay write
// lock, so no fast-path PUT can re-create the drained bucket and lose an
// acknowledged write when the object disappears.
func (s *Store) RemoveObject(id ObjectID) error {
	c := s.client()
	defer s.clients.Put(c)
	s.ov.mu.Lock()
	defer s.ov.mu.Unlock()
	s.onRemoveLocked(c, id)
	return s.ov.remove(id)
}

// onRemoveLocked performs the store side of RemoveVoronoiRegion for a
// departing object, while the tessellation still holds it: every record in
// its bucket is handed to the Voronoi neighbour closest to its key — the
// region's next owner — which re-replicates it. The caller holds the
// overlay write lock and removes the object under the same hold.
func (s *Store) onRemoveLocked(c *storeClient, id ObjectID) {
	s.mu.Lock()
	b := s.buckets[id]
	delete(s.buckets, id)
	s.mu.Unlock()
	if b == nil || s.ov.objs[id] == nil {
		return
	}
	vnsBuf, err := c.r.voronoiNeighbors(id, c.vns)
	c.vns = vnsBuf[:0]
	if err != nil || len(vnsBuf) == 0 {
		return
	}
	// Copy: replicateLocked below reuses the client's neighbour buffer.
	vns := append([]ObjectID(nil), vnsBuf...)
	pos := make([]geom.Point, len(vns))
	for i, nid := range vns {
		pos[i] = s.ov.objs[nid].Pos
	}
	at := func(i int) (geom.Point, bool) { return pos[i], true }
	for _, rec := range b.Snapshot() {
		i := store.Nearest(len(vns), rec.Key, at)
		if i >= 0 && s.bucket(vns[i]).Apply(rec) {
			s.replicateLocked(c, vns[i], id, rec)
		}
	}
}

// Copies returns the number of objects holding a live record for key.
func (s *Store) Copies(key geom.Point) int {
	n := 0
	for _, b := range s.snapshotBuckets() {
		if _, ok := b.Get(key); ok {
			n++
		}
	}
	return n
}

// snapshotBuckets copies the bucket list so diagnostics can iterate
// without holding the map lock across per-bucket work.
func (s *Store) snapshotBuckets() []*store.Local {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*store.Local, 0, len(s.buckets))
	for _, b := range s.buckets {
		out = append(out, b)
	}
	return out
}
