package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

func rec(x, y float64, ver uint64, val string) proto.StoreRecord {
	r := proto.StoreRecord{Key: geom.Pt(x, y), Version: ver}
	if val == "" {
		r.Deleted = true
	} else {
		r.Value = []byte(val)
	}
	return r
}

func collect(t *testing.T, dir string) ([]proto.StoreRecord, ReplayStats) {
	t.Helper()
	var recs []proto.StoreRecord
	stats, err := Replay(dir, func(r proto.StoreRecord) { recs = append(recs, r) })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, stats
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, stats, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if stats.Records != 0 || stats.Truncated || stats.CorruptFrames != 0 {
		t.Fatalf("fresh log stats = %+v", stats)
	}
	want := []proto.StoreRecord{
		rec(0.1, 0.2, 1, "hello"),
		rec(0.3, 0.4, 2, ""),
		rec(0.1, 0.2, 2, "world"),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, stats := collect(t, dir)
	if stats.Records != len(want) || stats.Truncated || stats.CorruptFrames != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Version != want[i].Version ||
			got[i].Deleted != want[i].Deleted || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Append(rec(0.1, 0.1, 1, "a")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var replayed int
	l, stats, err := Open(Options{Dir: dir}, func(proto.StoreRecord) { replayed++ })
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if replayed != 1 || stats.Records != 1 {
		t.Fatalf("replayed %d, stats %+v", replayed, stats)
	}
	if err := l.Append(rec(0.2, 0.2, 1, "b")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	l.Close()
	got, _ := collect(t, dir)
	if len(got) != 2 {
		t.Fatalf("got %d records after reopen-append, want 2", len(got))
	}
}

// A frame cut mid-payload at the tail of the final segment is the normal
// crash signature: replay recovers everything before it, reports
// Truncated, and reopening truncates the torn bytes so new appends land
// in a readable file.
func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append(rec(0.1, 0.1, 1, "keep-me"))
	l.Append(rec(0.2, 0.2, 1, "torn"))
	l.Close()

	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatalf("tear segment: %v", err)
	}

	got, stats := collect(t, dir)
	if len(got) != 1 || got[0].Version != 1 || string(got[0].Value) != "keep-me" {
		t.Fatalf("torn replay got %+v", got)
	}
	if !stats.Truncated || stats.CorruptFrames != 0 {
		t.Fatalf("torn stats = %+v", stats)
	}

	// Reopen must truncate the tear and accept new appends.
	l, stats, err = Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if !stats.Truncated {
		t.Fatalf("reopen stats = %+v", stats)
	}
	if err := l.Append(rec(0.3, 0.3, 1, "after-tear")); err != nil {
		t.Fatalf("append after tear: %v", err)
	}
	l.Close()
	got, stats = collect(t, dir)
	if len(got) != 2 || stats.Truncated || stats.CorruptFrames != 0 {
		t.Fatalf("after-tear replay: %d records, stats %+v", len(got), stats)
	}
	if string(got[1].Value) != "after-tear" {
		t.Fatalf("appended record = %+v", got[1])
	}
}

// A flipped byte mid-segment fails the CRC: replay stops that segment at
// the last valid record, counts the corruption, and still replays later
// segments in full.
func TestCorruptCRCMidSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, segmentBytes: 64}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Segment 1 gets two records (rotation threshold is checked before
	// appending, so the second lands in seg 1 too), then seg 2 starts.
	l.Append(rec(0.1, 0.1, 1, "seg1-a"))
	l.Append(rec(0.2, 0.2, 1, "seg1-b"))
	l.Append(rec(0.3, 0.3, 1, "seg2-a"))
	l.Close()
	if got := l.Segments(); got != 2 {
		t.Fatalf("segments = %d, want 2", got)
	}

	// Corrupt the second record of segment 1 (flip a payload byte).
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	first := frameBytes + headerBytes + len("seg1-a")
	data[first+frameBytes+headerBytes] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	got, stats := collect(t, dir)
	if stats.CorruptFrames != 1 || stats.Truncated {
		t.Fatalf("stats = %+v", stats)
	}
	if len(got) != 2 || string(got[0].Value) != "seg1-a" || string(got[1].Value) != "seg2-a" {
		vals := make([]string, len(got))
		for i, r := range got {
			vals[i] = string(r.Value)
		}
		t.Fatalf("replayed %v; want [seg1-a seg2-a]", vals)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, segmentBytes: 128}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(rec(float64(i)/100, 0.5, uint64(i+1), "padding-padding-padding")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", segs)
	}

	// Compact down to a two-record snapshot.
	snap := []proto.StoreRecord{rec(0.9, 0.9, 7, "live"), rec(0.8, 0.8, 3, "")}
	if err := l.Compact(snap); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if segs := l.Segments(); segs != 1 {
		t.Fatalf("after compact segments = %d, want 1", segs)
	}
	// Appends continue after compaction and replay sees snapshot+tail.
	if err := l.Append(rec(0.7, 0.7, 1, "tail")); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	l.Close()
	got, stats := collect(t, dir)
	if len(got) != 3 || stats.CorruptFrames != 0 || stats.Truncated {
		t.Fatalf("after compact replay: %d records, stats %+v", len(got), stats)
	}
	if !got[1].Deleted || string(got[2].Value) != "tail" {
		t.Fatalf("replayed %+v", got)
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append(rec(0.1, 0.1, 1, "gone"))
	if err := l.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	l.Append(rec(0.2, 0.2, 1, "fresh"))
	l.Close()
	got, _ := collect(t, dir)
	if len(got) != 1 || string(got[0].Value) != "fresh" {
		t.Fatalf("after reset replay %+v", got)
	}
}

func TestSyncBatchPolicy(t *testing.T) {
	dir := t.TempDir()
	var syncs int
	l, _, err := Open(Options{
		Dir:          dir,
		Policy:       SyncBatch,
		FsyncObserve: func(float64) { syncs++ },
	}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append(rec(0.1, 0.1, 1, "a"))
	l.Append(rec(0.2, 0.2, 1, "b"))
	if syncs != 0 {
		t.Fatalf("batch policy fsynced on append: %d", syncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if syncs != 1 {
		t.Fatalf("explicit sync count = %d, want 1", syncs)
	}
	// No dirty appends => Sync is a no-op.
	l.Sync()
	if syncs != 1 {
		t.Fatalf("idle sync count = %d, want 1", syncs)
	}
	l.Close()
}

// Rotation under SyncBatch syncs the segment it closes: the appends
// made since the last Sync live only there, and the next segment starts
// clean, so no later Sync would reach them.
func TestRotationSyncsClosedSegment(t *testing.T) {
	dir := t.TempDir()
	var syncs int
	l, _, err := Open(Options{
		Dir:          dir,
		segmentBytes: 64,
		Policy:       SyncBatch,
		FsyncObserve: func(float64) { syncs++ },
	}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Two records fill segment 1 (the threshold is checked before an
	// append); the third rotates.
	l.Append(rec(0.1, 0.1, 1, "seg1-a"))
	l.Append(rec(0.2, 0.2, 1, "seg1-b"))
	if syncs != 0 {
		t.Fatalf("batch policy fsynced on append: %d", syncs)
	}
	l.Append(rec(0.3, 0.3, 1, "seg2-a"))
	if got := l.Segments(); got != 2 {
		t.Fatalf("segments = %d, want 2", got)
	}
	if syncs != 1 {
		t.Fatalf("rotation fsynced %d times, want 1 (the closed segment)", syncs)
	}
	// The new segment's append is still outstanding: Sync reaches it.
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if syncs != 2 {
		t.Fatalf("sync count = %d, want 2", syncs)
	}
	l.Close()

	// Under SyncNever a rotation syncs nothing.
	syncs = 0
	l, _, err = Open(Options{
		Dir:          t.TempDir(),
		segmentBytes: 64,
		Policy:       SyncNever,
		FsyncObserve: func(float64) { syncs++ },
	}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		l.Append(rec(float64(i)/10, 0.5, 1, "never"))
	}
	l.Close()
	if syncs != 0 {
		t.Fatalf("SyncNever fsynced %d times", syncs)
	}
}

// A partial frame left by a failed write must not poison the log: after
// restoreTo cuts it away, later appends replay cleanly; and when the cut
// itself fails the log refuses appends rather than writing records that
// replay would silently drop.
func TestTornFrameRestoredOrRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Append(rec(0.1, 0.1, 1, "before")); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Simulate the residue of a failed Append: garbage bytes after the
	// last good frame, as a partial write would leave them.
	good := l.size
	if _, err := l.f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	if !l.restoreTo(good) {
		t.Fatal("restoreTo failed on a healthy file")
	}
	if l.size != good {
		t.Fatalf("size after restore = %d, want %d", l.size, good)
	}
	if err := l.Append(rec(0.2, 0.2, 1, "after")); err != nil {
		t.Fatalf("append after restore: %v", err)
	}
	l.Close()
	got, stats := collect(t, dir)
	if len(got) != 2 || stats.Truncated || stats.CorruptFrames != 0 {
		t.Fatalf("after restore: %d records, stats %+v", len(got), stats)
	}
	if string(got[1].Value) != "after" {
		t.Fatalf("replayed %+v", got[1])
	}

	// A log whose torn frame could not be removed refuses appends...
	l2, _, err := Open(Options{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l2.failed = true
	if err := l2.Append(rec(0.3, 0.3, 1, "lost")); err == nil {
		t.Fatal("append on failed log succeeded")
	}
	// ...but a successful Compact rewrites a fresh segment and recovers.
	if err := l2.Compact([]proto.StoreRecord{rec(0.4, 0.4, 2, "snap")}); err != nil {
		t.Fatalf("compact on failed log: %v", err)
	}
	if l2.failed {
		t.Fatal("compact did not clear the failed state")
	}
	if err := l2.Append(rec(0.5, 0.5, 1, "resumed")); err != nil {
		t.Fatalf("append after recovery compact: %v", err)
	}
	l2.Close()
}

// The generation bump must be atomic: the counter is rewritten via a
// temp file + rename, so a stale temp from a crashed bump is harmless
// and the visible gen file always holds a complete value.
func TestGenerationBumpAtomic(t *testing.T) {
	dir := t.TempDir()
	l, stats, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if stats.Generation != 1 {
		t.Fatalf("first generation = %d, want 1", stats.Generation)
	}
	l.Close()

	// Simulate a crash mid-bump: a leftover temp file, gen intact.
	if err := os.WriteFile(filepath.Join(dir, "gen.tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, stats, err = Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("reopen with stale tmp: %v", err)
	}
	if stats.Generation != 2 {
		t.Fatalf("generation after stale tmp = %d, want 2", stats.Generation)
	}
	l.Close()
	if _, err := os.Stat(filepath.Join(dir, "gen.tmp")); !os.IsNotExist(err) {
		t.Fatal("bump left its temp file behind")
	}
	b, err := os.ReadFile(filepath.Join(dir, "gen"))
	if err != nil || string(b) != "2" {
		t.Fatalf("gen file = %q, %v; want \"2\"", b, err)
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	stats, err := Replay(filepath.Join(t.TempDir(), "never-created"), nil)
	if err != nil {
		t.Fatalf("replay missing dir: %v", err)
	}
	if stats.Records != 0 || stats.Segments != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// FuzzWALReplay feeds hostile bytes as a single segment: replay must
// never panic, never allocate unboundedly, and always terminate.
func FuzzWALReplay(f *testing.F) {
	// Seed corpus: a valid frame, a torn frame, a bad-CRC frame, a
	// huge-length frame, and a zero-length file.
	valid := appendFrame(nil, proto.StoreRecord{Key: geom.Pt(0.1, 0.2), Version: 3, Value: []byte("v")})
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	badCRC := append([]byte(nil), valid...)
	badCRC[4] ^= 0xff
	f.Add(badCRC)
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31)
	huge = append(huge, 0, 0, 0, 0)
	f.Add(huge)
	f.Add([]byte{})
	// A frame whose CRC validates but whose inner value length lies.
	lying := make([]byte, frameBytes+headerBytes)
	binary.LittleEndian.PutUint32(lying[0:4], headerBytes)
	binary.LittleEndian.PutUint32(lying[frameBytes+25:], 99)
	binary.LittleEndian.PutUint32(lying[4:8], crc32.ChecksumIEEE(lying[frameBytes:]))
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var n int
		stats, err := Replay(dir, func(r proto.StoreRecord) {
			n++
			if len(r.Value) > maxPayloadBytes {
				t.Fatalf("oversized value survived replay: %d", len(r.Value))
			}
		})
		if err != nil {
			t.Fatalf("replay errored on hostile input: %v", err)
		}
		if stats.Records != n {
			t.Fatalf("stats.Records=%d but apply ran %d times", stats.Records, n)
		}
		// Opening hostile bytes for append must also be safe, and the
		// resulting log must accept a write and replay it back.
		l, _, err := Open(Options{Dir: dir}, nil)
		if err != nil {
			t.Fatalf("open on hostile input: %v", err)
		}
		if err := l.Append(proto.StoreRecord{Key: geom.Pt(0.5, 0.5), Version: 1, Value: []byte("x")}); err != nil {
			t.Fatalf("append after hostile open: %v", err)
		}
		l.Close()
		found := false
		if _, err := Replay(dir, func(r proto.StoreRecord) {
			if r.Version == 1 && string(r.Value) == "x" {
				found = true
			}
		}); err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		if !found {
			t.Fatal("append after hostile open not replayable")
		}
	})
}
