package node

import (
	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/transport"
	"voronet/internal/wal"
)

// The durability face of the node: a write-ahead log under
// Config.WALDir records every store mutation this node acks or applies —
// owner-side PUT/DELETE before the ack leaves, replica applies as they
// merge — so a crashed node restarted at the same address recovers every
// record it held and reconverges through the ordinary anti-entropy
// sweep. The log is segmented; once it spans walCompactSegments segments
// it is compacted down to a snapshot of the live store, and tombstones
// that survived a full compaction interval unchanged are garbage
// collected (two-phase: anti-entropy has had a whole interval to push
// the tombstone to every replica, so dropping it cannot resurrect the
// key — the same grace-period reasoning as Cassandra's gc_grace).

// walCompactSegments is the compaction trigger: once the log spans this
// many segments, the next append folds it into a snapshot segment.
const walCompactSegments = 3

// NewDurable creates a node like New and attaches a write-ahead log
// under cfg.WALDir: the log is replayed into the store before the
// message handler is installed (recovery races with nothing), and every
// subsequent store mutation is logged. The returned stats describe the
// replay; a torn tail or corrupt frames are recovery facts, not errors.
func NewDurable(ep transport.Endpoint, pos geom.Point, cfg Config) (*Node, wal.ReplayStats, error) {
	n := newNode(ep, pos, cfg)
	l, stats, err := wal.Open(wal.Options{
		Dir:          cfg.WALDir,
		Policy:       cfg.WALSync,
		FsyncObserve: n.reg.HistogramAt(walFsyncSeconds).Observe,
	}, func(rec proto.StoreRecord) { n.kv.Apply(rec) })
	if err != nil {
		return nil, stats, err
	}
	n.wal = l
	// Adopt the persisted incarnation number before any message leaves:
	// peers that tombstoned the previous incarnation admit this one only
	// because its generation is higher.
	n.self.Gen = stats.Generation
	n.reg.CounterAt(walReplayedTotal).Add(uint64(stats.Records))
	n.reg.CounterAt(walCorruptTotal).Add(uint64(stats.CorruptFrames))
	if stats.Truncated {
		n.reg.CounterAt(walTornTotal).Inc()
	}
	ep.SetHandler(n.handle)
	return n, stats, nil
}

// walAppend logs store mutations. On a non-durable node it is free (wal
// is nil forever, set once before the handler was installed). Append
// errors are counted, never propagated: a full or failing disk degrades
// durability, not availability — the in-memory store stays correct and
// the operator sees wal_errors_total climb.
func (n *Node) walAppend(recs ...proto.StoreRecord) {
	if n.wal == nil {
		return
	}
	n.walMu.Lock()
	for _, rec := range recs {
		if err := n.wal.Append(rec); err != nil {
			n.reg.CounterAt(walErrorsTotal).Inc()
			n.walMu.Unlock()
			return
		}
		n.reg.CounterAt(walAppendsTotal).Inc()
	}
	compact := n.wal.Segments() >= walCompactSegments
	n.walMu.Unlock()
	if compact {
		n.compactWAL()
	}
}

// compactWAL folds the log into a snapshot of the current store and runs
// the two-phase tombstone GC: a tombstone still present at the same
// version as at the previous compaction has been stable for a full
// interval — long enough for anti-entropy to have delivered it
// everywhere — and is purged from both the snapshot and the store.
func (n *Node) compactWAL() {
	n.walMu.Lock()
	defer n.walMu.Unlock()
	// The snapshot must be taken while holding walMu: handlers run
	// concurrently, and a record logged by another handler between an
	// early snapshot and the lock would be missing from the snapshot yet
	// have its only WAL frame in a segment Compact deletes — an acked
	// write lost on the next crash. Under walMu the ordering is safe:
	// every mutation is kv-applied before walAppend, so any append that
	// completed before we got the lock is already in this snapshot (lock
	// order walMu → store lock is deadlock-free; walAppend never runs
	// with the store lock held).
	snap := n.kv.Snapshot()
	prev := n.walGC
	next := make(map[geom.Point]uint64)
	kept := snap[:0]
	for _, rec := range snap {
		if rec.Deleted {
			if v, seen := prev[rec.Key]; seen && v == rec.Version && n.kv.DropTombstone(rec.Key, rec.Version) {
				n.reg.CounterAt(walTombsGCedTotal).Inc()
				continue
			}
			next[rec.Key] = rec.Version
		}
		kept = append(kept, rec)
	}
	n.walGC = next
	if err := n.wal.Compact(kept); err != nil {
		n.reg.CounterAt(walErrorsTotal).Inc()
		return
	}
	n.reg.CounterAt(walCompactionsTotal).Inc()
}

// walReset discards the log after a graceful Leave handed every record
// off (safe on any node: nil wal is a no-op).
func (n *Node) walReset() {
	if n.wal == nil {
		return
	}
	n.walMu.Lock()
	defer n.walMu.Unlock()
	n.walGC = nil
	if err := n.wal.Reset(); err != nil {
		n.reg.CounterAt(walErrorsTotal).Inc()
	}
}

// WALSync flushes outstanding WAL appends to disk — the periodic flush
// hook for Config.WALSync == wal.SyncBatch.
func (n *Node) WALSync() {
	if n.wal == nil {
		return
	}
	n.walMu.Lock()
	defer n.walMu.Unlock()
	if err := n.wal.Sync(); err != nil {
		n.reg.CounterAt(walErrorsTotal).Inc()
	}
}

// Shutdown leaves the overlay gracefully, durably: stop admitting new
// origin-side store operations, flush the WAL (so even a failure later
// in the sequence loses nothing acked), hand every record off via Leave,
// then close the log. After a completed Leave the log is empty — the
// records now live (and are logged) at the surviving nodes.
func (n *Node) Shutdown() error {
	n.draining.Store(true)
	n.WALSync()
	err := n.Leave()
	if n.wal != nil {
		n.walMu.Lock()
		if cerr := n.wal.Close(); cerr != nil {
			n.reg.CounterAt(walErrorsTotal).Inc()
		}
		n.walMu.Unlock()
	}
	return err
}
