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
		s.Objects = append(s.Objects, objectSnapshot{
			ID:          obj.ID,
			Pos:         obj.Pos,
			LongTargets: obj.longTargets,
			LongNbrs:    obj.longNbrs,
		})
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
	o := New(s.Config)
	o.dmin = s.DMin
	o.grid = newCloseIndex(s.DMin)
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
		obj := &Object{
			ID:          os.ID,
			Pos:         os.Pos,
			vert:        v,
			slot:        int32(len(o.ids)),
			longTargets: os.LongTargets,
			longNbrs:    os.LongNbrs,
		}
		o.objs[os.ID] = obj
		o.setVertexObject(v, os.ID)
		o.ids = append(o.ids, os.ID)
		o.grid.add(os.Pos, os.ID)
		if os.ID >= o.nextID {
			o.nextID = os.ID + 1
		}
	}
	// Re-derive the back long-range sets from the saved links.
	for _, id := range o.ids {
		obj := o.objs[id]
		for j, nid := range obj.longNbrs {
			if nid == NoObject {
				continue
			}
			holder := o.objs[nid]
			if holder == nil {
				return nil, fmt.Errorf("voronet: load: object %d link %d names missing object %d", id, j, nid)
			}
			holder.addBack(obj, j)
		}
	}
	return o, nil
}
