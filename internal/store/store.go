// Package store implements the attribute-addressed object store that rides
// on the VoroNet overlay: values are keyed by points of the 2-D attribute
// space and live at the node whose Voronoi region contains the key, with
// replicas on the owner's Voronoi neighbours.
//
// The package holds the machinery shared by the distributed node
// (internal/node) and the simulator mirror (internal/core): Local, a
// versioned keyed store with tombstones and newer-wins merge, and Inflight,
// the request/response correlation table with per-request timeouts used by
// the routed PUT/GET/DELETE operations.
//
// Placement follows the paper's object model: a key is an attribute vector,
// so the object responsible for it is Obj(key) — the owner of the Voronoi
// region containing the key — and churn handoff is the storage face of
// AddVoronoiRegion / RemoveVoronoiRegion (§4.2): when the tessellation
// changes, records migrate so the invariant "Obj(key) holds key" is
// restored, exactly as BLRn entries migrate with their targets.
package store

import (
	"errors"
	"sort"
	"sync"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

// DefaultReplication is the default replication factor R: besides the
// owner, a record is pushed to the R Voronoi neighbours of the owner
// closest to the key.
const DefaultReplication = 3

// MaxValueBytes bounds a single stored value. Routed operations travel in
// one wire envelope (capped at proto.MaxEnvelopeBytes ≈ 1 MiB, matching
// the TCP frame limit), so oversized values are rejected loudly at Put
// instead of being dropped silently by the frame decoder.
const MaxValueBytes = 512 << 10

// Errors returned by store operations.
var (
	// ErrNotFound reports a GET or DELETE for a key with no live record.
	ErrNotFound = errors.New("store: key not found")
	// ErrTimeout reports a routed operation whose reply did not arrive
	// within the request timeout.
	ErrTimeout = errors.New("store: request timed out")
	// ErrValueTooLarge reports a PUT whose value exceeds MaxValueBytes.
	ErrValueTooLarge = errors.New("store: value exceeds MaxValueBytes")
	// ErrOverloaded reports an operation shed by admission control — at
	// the origin (inflight budget exhausted, node draining) or at the
	// owner (concurrent store work above budget). The operation was NOT
	// performed; retry after a backoff.
	ErrOverloaded = errors.New("store: overloaded, retry later")
)

// Local is a thread-safe keyed store holding the records (live and
// tombstoned) a single node is responsible for, as owner or replica. It
// does not distinguish the two roles: responsibility is derived from the
// tessellation at message-handling time, never cached.
type Local struct {
	mu   sync.Mutex
	recs []proto.StoreRecord // arrival order, except that a dropped record's slot takes the last one
	idx  map[geom.Point]int  // key → position in recs; nil until len(recs) > indexAbove
}

// indexAbove is the record count past which find uses idx: a scan of up to
// 8 contiguous 56-byte records costs no more than a hash, and even a
// one-entry Go map costs a whole 8-slot table group (≈ 640 B).
const indexAbove = 8

// NewLocal returns an empty local store.
func NewLocal() *Local { return &Local{} }

// find returns key's position in recs and its record, or -1 when absent
// (keys compare as map keys do); set stores rec there, appending for -1.
func (l *Local) find(key geom.Point) (int, proto.StoreRecord) {
	if l.idx == nil {
		for i := range l.recs {
			if l.recs[i].Key == key {
				return i, l.recs[i]
			}
		}
	} else if i, ok := l.idx[key]; ok {
		return i, l.recs[i]
	}
	return -1, proto.StoreRecord{}
}

func (l *Local) set(i int, rec proto.StoreRecord) {
	if i >= 0 {
		l.recs[i] = rec
		return
	}
	l.recs = append(l.recs, rec)
	if l.idx != nil {
		l.idx[rec.Key] = len(l.recs) - 1
	} else if len(l.recs) > indexAbove {
		l.idx = make(map[geom.Point]int, 2*len(l.recs))
		for j, r := range l.recs {
			l.idx[r.Key] = j
		}
	}
}

// Get returns the live record for key. ok is false when the key is absent
// or tombstoned.
func (l *Local) Get(key geom.Point) (proto.StoreRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, rec := l.find(key)
	if i < 0 || rec.Deleted {
		return proto.StoreRecord{}, false
	}
	return rec, true
}

// Lookup returns the record for key even if tombstoned (a tombstone is an
// authoritative "deleted" answer, distinct from "never seen").
func (l *Local) Lookup(key geom.Point) (proto.StoreRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, rec := l.find(key)
	return rec, i >= 0
}

// Put writes value under key with the next version and returns the stored
// record. Called by the key's region owner.
func (l *Local) Put(key geom.Point, value []byte) proto.StoreRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, old := l.find(key)
	rec := proto.StoreRecord{
		Key:     key,
		Value:   append([]byte(nil), value...),
		Version: old.Version + 1,
	}
	l.set(i, rec)
	return rec
}

// Delete tombstones key with the next version and returns the tombstone.
// ok is false (and no tombstone is written) when the key has no live
// record.
func (l *Local) Delete(key geom.Point) (proto.StoreRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, old := l.find(key)
	if i < 0 || old.Deleted {
		return proto.StoreRecord{}, false
	}
	rec := proto.StoreRecord{Key: key, Version: old.Version + 1, Deleted: true}
	l.set(i, rec)
	return rec, true
}

// Apply merges a replicated or handed-off record, newer version wins.
// Equal versions keep the resident record (owner writes are the only
// version sources, so equal versions carry equal content). It reports
// whether the local state changed.
func (l *Local) Apply(rec proto.StoreRecord) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, old := l.find(rec.Key)
	if i >= 0 && old.Version >= rec.Version {
		return false
	}
	l.set(i, rec)
	return true
}

// DropTombstone removes the tombstone for key, but only if it still sits
// at exactly the given version — a newer tombstone (or a resurrection)
// must survive. Used by WAL compaction's two-phase tombstone GC: a
// tombstone that persisted unchanged across a whole compaction interval
// has had anti-entropy time to reach every replica and can be purged.
func (l *Local) DropTombstone(key geom.Point, version uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, rec := l.find(key)
	if i < 0 || !rec.Deleted || rec.Version != version {
		return false
	}
	last := len(l.recs) - 1
	if l.idx != nil { // the last record moves to slot i; when i is last, the delete undoes the move
		l.idx[l.recs[last].Key] = i
		delete(l.idx, key)
	}
	l.recs[i], l.recs[last] = l.recs[last], proto.StoreRecord{}
	l.recs = l.recs[:last]
	return true
}

// Clear discards every record (a node that left the overlay hands its
// records off first and must not retain state a later rejoin could leak).
func (l *Local) Clear() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs, l.idx = nil, nil
}

// Len returns the number of live (non-tombstoned) records.
func (l *Local) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, rec := range l.recs {
		if !rec.Deleted {
			n++
		}
	}
	return n
}

// Snapshot returns every record, tombstones included, sorted by key so
// that message sequences derived from it are deterministic.
func (l *Local) Snapshot() []proto.StoreRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append(make([]proto.StoreRecord, 0, len(l.recs)), l.recs...)
	sortRecords(out)
	return out
}

// Collect returns the records whose key satisfies pred, tombstones
// included (a tombstone must migrate like a value, or a stale replica
// could resurrect the deleted key at the new owner). The result is sorted
// by key so that message sequences derived from it are deterministic.
func (l *Local) Collect(pred func(key geom.Point) bool) []proto.StoreRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []proto.StoreRecord
	for _, rec := range l.recs {
		if pred(rec.Key) {
			out = append(out, rec)
		}
	}
	sortRecords(out)
	return out
}

// sortRecords orders records by key, X before Y (storage order must never
// leak into the wire: replayable chaos transcripts depend on it).
func sortRecords(recs []proto.StoreRecord) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i].Key, recs[j].Key
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
}
