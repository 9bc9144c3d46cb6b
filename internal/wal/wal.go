// Package wal is an append-only, segmented write-ahead log for store
// records. Every acked PUT/DELETE on a node is framed, CRC-protected and
// appended here before the ack leaves the process, so a crash loses at
// most the unsynced tail — never an acknowledged write (under SyncAlways).
//
// Layout: a directory of fixed-prefix segment files
//
//	seg-00000001.wal, seg-00000002.wal, ...
//
// each holding a sequence of frames
//
//	[length uint32 LE][crc32(IEEE) uint32 LE][payload]
//
// where payload is a fixed 29-byte record header plus the value bytes:
//
//	key.X float64 bits (8) | key.Y float64 bits (8) | version (8) |
//	flags (1, bit0 = tombstone) | value length (4) | value
//
// Replay applies records in file order; the store's newest-wins Apply
// makes duplicate and out-of-date records harmless, so compaction can
// simply write a fresh snapshot segment and delete the older ones.
//
// Corruption policy: a torn frame at the tail of the FINAL segment is the
// normal signature of a crash mid-append — replay stops there, reports
// Truncated, and Open truncates the file so subsequent appends stay
// readable. A bad CRC or absurd length anywhere else is real corruption:
// replay counts it, abandons the rest of that segment, and continues with
// later segments (safe, again, because Apply is newest-wins).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acked write is on disk
	// before the ack. The durable default.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs only on explicit Sync() calls — the caller
	// (e.g. a periodic loop or graceful shutdown) drives the cadence.
	SyncBatch
	// SyncNever leaves flushing entirely to the OS. Fastest, weakest.
	SyncNever
)

// ParsePolicy maps the CLI spelling to a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|batch|never)", s)
}

const (
	segPrefix = "seg-"
	segSuffix = ".wal"

	headerBytes = 29 // fixed record header inside the payload
	frameBytes  = 8  // length + crc preceding every payload

	// maxPayloadBytes bounds the length field during replay so a
	// corrupt frame cannot make us allocate gigabytes. Store values are
	// capped well below this (store.MaxValueBytes = 512 KiB).
	maxPayloadBytes = 1 << 20

	// defaultSegmentBytes is the segment rotation threshold.
	defaultSegmentBytes = 4 << 20
)

// Options configures a Log.
type Options struct {
	// Dir is the segment directory; created if missing.
	Dir string
	// segmentBytes rotates to a new segment once the current one
	// reaches this size (defaultSegmentBytes when zero); the rotation
	// tests set it small.
	segmentBytes int64
	// Policy selects the fsync cadence (default SyncAlways).
	Policy SyncPolicy
	// FsyncObserve, if non-nil, receives the wall-clock seconds of
	// every fsync (feeds the wal_fsync_seconds histogram).
	FsyncObserve func(seconds float64)
}

// ReplayStats summarises what a replay recovered and what it skipped.
type ReplayStats struct {
	// Records is the number of valid records applied.
	Records int
	// Segments is the number of segment files visited.
	Segments int
	// Truncated reports a torn frame at the tail of the final segment
	// (the benign crash-mid-append signature).
	Truncated bool
	// CorruptFrames counts bad frames elsewhere: each one abandons the
	// remainder of its segment.
	CorruptFrames int
	// Generation is this open's incarnation number: a counter persisted
	// beside the segments (file "gen") and bumped by every Open. The
	// node carries it in its NodeInfo so that departure gossip about a
	// crashed incarnation cannot kill its restarted successor.
	Generation uint64
}

// Log is an open write-ahead log positioned for appending. Methods are
// not safe for concurrent use; callers serialise (the node holds walMu).
type Log struct {
	opt      Options
	f        *os.File // current (last) segment
	size     int64    // bytes written to f
	seq      int      // sequence number of f
	firstSeq int      // sequence number of the oldest live segment
	dirty    bool     // unsynced appends outstanding
	closed   bool
	failed   bool   // torn frame left in place (truncate failed); appends refused
	buf      []byte // frame scratch, reused across appends
}

// Open replays every segment under opt.Dir through apply (oldest segment
// first, in-file order) and returns a Log positioned to append after the
// last valid record. A torn tail on the final segment is truncated away
// so the next append produces a readable file.
func Open(opt Options, apply func(proto.StoreRecord)) (*Log, ReplayStats, error) {
	if opt.segmentBytes <= 0 {
		opt.segmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, ReplayStats{}, err
	}
	segs, err := listSegments(opt.Dir)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	var stats ReplayStats
	if stats.Generation, err = bumpGeneration(opt.Dir); err != nil {
		return nil, stats, err
	}
	lastSeq := 0
	lastValid := int64(0)
	for i, s := range segs {
		final := i == len(segs)-1
		valid, err := replaySegment(filepath.Join(opt.Dir, s.name), final, apply, &stats)
		if err != nil {
			return nil, stats, err
		}
		lastSeq = s.seq
		lastValid = valid
	}
	l := &Log{opt: opt}
	if len(segs) == 0 {
		if err := l.openSegment(1, 0); err != nil {
			return nil, stats, err
		}
		l.firstSeq = 1
		return l, stats, nil
	}
	// Reopen the final segment for appending, dropping any torn tail.
	path := filepath.Join(opt.Dir, segmentName(lastSeq))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, stats, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > lastValid {
		if err := f.Truncate(lastValid); err != nil {
			f.Close()
			return nil, stats, err
		}
	}
	if _, err := f.Seek(lastValid, io.SeekStart); err != nil {
		f.Close()
		return nil, stats, err
	}
	l.f, l.size, l.seq = f, lastValid, lastSeq
	l.firstSeq = segs[0].seq
	return l, stats, nil
}

// bumpGeneration reads, increments and rewrites the incarnation counter
// file beside the segments, fsyncing so the bump survives the crash it
// exists to disambiguate. The rewrite is atomic (temp file + rename):
// the old counter must stay readable until the new one fully replaces
// it, because an empty or missing file restarts the counter at 1 and a
// restarted node with a lower generation than its own tombstones can
// never rejoin.
func bumpGeneration(dir string) (uint64, error) {
	path := filepath.Join(dir, "gen")
	var gen uint64
	if b, err := os.ReadFile(path); err == nil {
		gen, _ = strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	}
	gen++
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.WriteString(strconv.FormatUint(gen, 10)); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return gen, syncDir(dir)
}

// syncDir fsyncs a directory so that entry-level changes (segment
// creation, removal, the gen-file rename) are themselves durable —
// fsyncing a file persists its contents, not the directory entry that
// names it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay reads every segment under dir through apply without opening the
// log for writing. Missing directories replay as empty.
func Replay(dir string, apply func(proto.StoreRecord)) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return stats, nil
		}
		return stats, err
	}
	for i, s := range segs {
		final := i == len(segs)-1
		if _, err := replaySegment(filepath.Join(dir, s.name), final, apply, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// Append frames rec and writes it to the current segment, rotating first
// if the segment is full. Under SyncAlways the record is fsynced before
// Append returns.
func (l *Log) Append(rec proto.StoreRecord) error {
	if l.closed {
		return errors.New("wal: append on closed log")
	}
	if l.failed {
		return errors.New("wal: log failed (torn frame could not be removed)")
	}
	if l.size >= l.opt.segmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if err := l.writeFrame(rec); err != nil {
		return err
	}
	l.dirty = true
	if l.opt.Policy == SyncAlways {
		return l.fsync()
	}
	return nil
}

// writeFrame frames rec onto the current segment. A failed write may
// leave a partial frame in place; replay stops at the first bad frame,
// so any record appended after it would be silently lost on restart.
// writeFrame therefore truncates the segment back to the pre-write
// offset on error — and if even that fails, marks the whole log failed
// so later appends are refused instead of being unreplayable.
func (l *Log) writeFrame(rec proto.StoreRecord) error {
	l.buf = appendFrame(l.buf[:0], rec)
	off := l.size
	n, err := l.f.Write(l.buf)
	if err != nil {
		if n > 0 && !l.restoreTo(off) {
			l.failed = true
			l.size = off + int64(n)
		}
		return err
	}
	l.size = off + int64(n)
	return nil
}

// restoreTo cuts the current segment back to off, removing a torn frame
// left by a failed write. The seek matters for segments reopened by Open
// (no O_APPEND): their writes land at the file offset, which the partial
// write advanced.
func (l *Log) restoreTo(off int64) bool {
	if err := l.f.Truncate(off); err != nil {
		return false
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return false
	}
	l.size = off
	return true
}

// Sync flushes outstanding appends to stable storage (a no-op when
// nothing is dirty or the policy is SyncNever).
func (l *Log) Sync() error {
	if l.closed || !l.dirty || l.opt.Policy == SyncNever {
		return nil
	}
	return l.fsync()
}

// Close syncs (per policy) and closes the current segment. The log is
// unusable afterwards.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	err := l.Sync()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Compact writes recs as a fresh snapshot segment and deletes every
// older segment, bounding replay work and log size. The ordering is
// create → fsync data → fsync dir → unlink old → fsync dir: the
// snapshot (contents AND directory entry) is durable before any old
// segment disappears, so a crash at any point leaves a replayable (at
// worst duplicated) log. Compaction also recovers a failed log: the
// snapshot supersedes whatever the torn segment held.
func (l *Log) Compact(recs []proto.StoreRecord) error {
	if l.closed {
		return errors.New("wal: compact on closed log")
	}
	oldSeq := l.seq
	if err := l.f.Close(); err != nil {
		return err
	}
	if err := l.openSegment(oldSeq+1, 0); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := l.writeFrame(rec); err != nil {
			return err
		}
	}
	l.dirty = true
	if err := l.fsync(); err != nil {
		return err
	}
	if err := l.removeSegmentsBefore(l.seq); err != nil {
		return err
	}
	if err := syncDir(l.opt.Dir); err != nil {
		return err
	}
	l.firstSeq = l.seq
	l.failed = false
	return nil
}

// Reset discards every segment and starts an empty log — used after a
// graceful Leave has handed all records off to the surviving nodes.
func (l *Log) Reset() error {
	if l.closed {
		return errors.New("wal: reset on closed log")
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	segs, err := listSegments(l.opt.Dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(filepath.Join(l.opt.Dir, s.name)); err != nil {
			return err
		}
	}
	if err := l.openSegment(1, 0); err != nil {
		return err
	}
	l.firstSeq = 1
	return nil
}

// Segments reports how many segment files the log currently spans (the
// compaction trigger input). O(1): segment sequence numbers are dense,
// so the span is the live sequence range.
func (l *Log) Segments() int {
	return l.seq - l.firstSeq + 1
}

func (l *Log) fsync() error {
	start := time.Now()
	err := l.f.Sync()
	if err == nil {
		l.dirty = false
		if l.opt.FsyncObserve != nil {
			l.opt.FsyncObserve(time.Since(start).Seconds())
		}
	}
	return err
}

// rotate closes the current segment and opens the next. The closing
// segment is synced first: openSegment clears dirty, so appends a batch
// policy has not synced yet would otherwise never reach stable storage.
func (l *Log) rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(l.seq+1, 0)
}

// openSegment creates (or reopens) segment seq and makes its directory
// entry durable before any append can be acked against it — fsyncing the
// file alone would leave the first records of a fresh segment pointing
// at a name a crash can forget.
func (l *Log) openSegment(seq int, size int64) error {
	path := filepath.Join(l.opt.Dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.opt.Dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.size, l.seq, l.dirty = f, size, seq, false
	return nil
}

func (l *Log) removeSegmentsBefore(seq int) error {
	segs, err := listSegments(l.opt.Dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.seq < seq {
			if err := os.Remove(filepath.Join(l.opt.Dir, s.name)); err != nil {
				return err
			}
		}
	}
	return nil
}

type segment struct {
	name string
	seq  int
}

func segmentName(seq int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(strings.TrimSuffix(name, segSuffix), segPrefix+"%d", &seq); err != nil || seq <= 0 {
			continue
		}
		segs = append(segs, segment{name: name, seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// appendFrame encodes rec as [len][crc][payload] onto buf.
func appendFrame(buf []byte, rec proto.StoreRecord) []byte {
	payloadLen := headerBytes + len(rec.Value)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	crcAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Key.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Key.Y))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Version)
	var flags byte
	if rec.Deleted {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Value)))
	buf = append(buf, rec.Value...)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.ChecksumIEEE(buf[start:]))
	return buf
}

// decodePayload rebuilds a StoreRecord from a frame payload. The length
// consistency check (inner value length vs frame length) guards against
// a frame whose CRC happens to validate garbage lengths.
func decodePayload(p []byte) (proto.StoreRecord, bool) {
	if len(p) < headerBytes {
		return proto.StoreRecord{}, false
	}
	vlen := binary.LittleEndian.Uint32(p[25:29])
	if int(vlen) != len(p)-headerBytes {
		return proto.StoreRecord{}, false
	}
	rec := proto.StoreRecord{
		Key: geom.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(p[0:8])),
			math.Float64frombits(binary.LittleEndian.Uint64(p[8:16])),
		),
		Version: binary.LittleEndian.Uint64(p[16:24]),
		Deleted: p[24]&1 != 0,
	}
	if vlen > 0 {
		rec.Value = append([]byte(nil), p[29:]...)
	}
	return rec, true
}

// replaySegment streams one segment through apply and returns the offset
// just past the last valid frame. final marks the last segment, where an
// incomplete tail frame is the benign crash signature (Truncated) rather
// than corruption.
func replaySegment(path string, final bool, apply func(proto.StoreRecord), stats *ReplayStats) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	stats.Segments++
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, nil
		}
		if len(rest) < frameBytes {
			// Tail shorter than a frame header: torn write.
			if final {
				stats.Truncated = true
			} else {
				stats.CorruptFrames++
			}
			return off, nil
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		if plen < headerBytes || plen > maxPayloadBytes {
			// Nonsense length: corruption, even at the tail —
			// a torn append can truncate a frame but not write
			// a full garbage header with valid-looking bytes
			// beyond it.
			stats.CorruptFrames++
			return off, nil
		}
		if int64(len(rest)) < frameBytes+int64(plen) {
			// Frame extends past EOF: torn write.
			if final {
				stats.Truncated = true
			} else {
				stats.CorruptFrames++
			}
			return off, nil
		}
		payload := rest[frameBytes : frameBytes+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			stats.CorruptFrames++
			return off, nil
		}
		rec, ok := decodePayload(payload)
		if !ok {
			stats.CorruptFrames++
			return off, nil
		}
		if apply != nil {
			apply(rec)
		}
		stats.Records++
		off += frameBytes + int64(plen)
	}
}
