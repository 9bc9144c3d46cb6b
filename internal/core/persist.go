package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
)

// Snapshot format version; bump on incompatible layout changes.
const snapshotVersion = 1

type snapshot struct {
	Version int
	Config  Config
	DMin    float64
	NextID  ObjectID
	Objects []objectSnapshot
}

type objectSnapshot struct {
	ID          ObjectID
	Pos         geom.Point
	LongTargets []geom.Point
	LongNbrs    []ObjectID
}

// Save serialises the overlay — configuration, objects, long-link state —
// with encoding/gob. The tessellation, close-neighbour index and BLRn sets
// are derived state and are rebuilt on Load.
//
// The private RNG position is not part of the snapshot: a loaded overlay
// draws *future* long-link targets from a fresh stream seeded by
// Config.Seed. All existing links and targets are preserved exactly.
func (o *Overlay) Save(w io.Writer) error {
	o.mu.RLock()
	defer o.mu.RUnlock()
	s := snapshot{
		Version: snapshotVersion,
		Config:  o.cfg,
		DMin:    o.dmin,
		NextID:  o.nextID,
	}
	for _, id := range o.ids {
		obj := o.objs[id]
		os := objectSnapshot{ID: obj.ID, Pos: obj.Pos, LongTargets: obj.longTargets}
		for j := range obj.longTargets {
			os.LongNbrs = append(os.LongNbrs, o.longNeighbor(obj, j))
		}
		s.Objects = append(s.Objects, os)
	}
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("voronet: save: %w", err)
	}
	return nil
}

// Load reconstructs an overlay from a Save snapshot: objects are
// re-inserted into a fresh tessellation (Hilbert-ordered bulk
// construction), the close-neighbour index is rebuilt, and the BLRn sets
// are re-derived from the saved long links.
func Load(r io.Reader) (*Overlay, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("voronet: load: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("voronet: load: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if s.Config.NMax <= 0 || !(s.DMin > 0) {
		return nil, fmt.Errorf("voronet: load: NMax %d, dmin %v", s.Config.NMax, s.DMin)
	}
	o := New(s.Config)
	o.dmin = s.DMin
	o.grid = newCloseIndex(o.tr, s.DMin, s.Config.NMax)
	o.nextID = s.NextID

	// Rebuild the tessellation with locality-sorted bulk insertion. The
	// sort's total order makes the build identical for any worker count,
	// so parallelism is safe to apply unconditionally here.
	pts := make([]geom.Point, len(s.Objects))
	for i, os := range s.Objects {
		pts[i] = os.Pos
	}
	verts := o.tr.InsertBulkParallel(pts, 0)
	for i, os := range s.Objects {
		v := verts[i]
		if v == delaunay.NoVertex || !o.tr.Alive(v) {
			return nil, fmt.Errorf("voronet: load: object %d could not be re-inserted", os.ID)
		}
		if o.vertexObject(v) != NoObject {
			return nil, fmt.Errorf("voronet: load: duplicate position for object %d", os.ID)
		}
		if len(os.LongNbrs) != len(os.LongTargets) || len(os.LongNbrs) > o.cfg.LongLinks {
			return nil, fmt.Errorf("voronet: load: object %d has %d long links for %d targets, configured %d",
				os.ID, len(os.LongNbrs), len(os.LongTargets), o.cfg.LongLinks)
		}
		obj := &Object{
			ID:          os.ID,
			Pos:         os.Pos,
			vert:        v,
			slot:        int32(len(o.ids)),
			longTargets: os.LongTargets,
		}
		o.objs[os.ID] = obj
		o.setVertexObject(v, os.ID)
		o.ids = append(o.ids, os.ID)
		o.grid.add(v)
		if os.ID >= o.nextID {
			o.nextID = os.ID + 1
		}
	}
	// Write the saved links into the arena and re-derive the back
	// long-range sets from them.
	for _, os := range s.Objects {
		obj := o.objs[os.ID]
		for j, nid := range os.LongNbrs {
			if nid == NoObject {
				continue
			}
			holder := o.objs[nid]
			if holder == nil {
				return nil, fmt.Errorf("voronet: load: object %d link %d names missing object %d", os.ID, j, nid)
			}
			o.setLong(obj, j, holder)
			holder.addBack(obj, j)
		}
	}
	return o, nil
}
