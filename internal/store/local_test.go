package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

// mapLocal is the map-per-store implementation of Local, kept verbatim as
// the reference TestLocalMatchesReference holds the slice-backed Local to.
type mapLocal struct {
	mu   sync.Mutex
	recs map[geom.Point]proto.StoreRecord
}

func newMapLocal() *mapLocal {
	return &mapLocal{recs: make(map[geom.Point]proto.StoreRecord)}
}

func (l *mapLocal) Get(key geom.Point) (proto.StoreRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.recs[key]
	if !ok || rec.Deleted {
		return proto.StoreRecord{}, false
	}
	return rec, true
}

func (l *mapLocal) Lookup(key geom.Point) (proto.StoreRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.recs[key]
	return rec, ok
}

func (l *mapLocal) Put(key geom.Point, value []byte) proto.StoreRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := proto.StoreRecord{
		Key:     key,
		Value:   append([]byte(nil), value...),
		Version: l.recs[key].Version + 1,
	}
	l.recs[key] = rec
	return rec
}

func (l *mapLocal) Delete(key geom.Point) (proto.StoreRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	old, ok := l.recs[key]
	if !ok || old.Deleted {
		return proto.StoreRecord{}, false
	}
	rec := proto.StoreRecord{Key: key, Version: old.Version + 1, Deleted: true}
	l.recs[key] = rec
	return rec, true
}

func (l *mapLocal) Apply(rec proto.StoreRecord) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, ok := l.recs[rec.Key]; ok && old.Version >= rec.Version {
		return false
	}
	l.recs[rec.Key] = rec
	return true
}

func (l *mapLocal) DropTombstone(key geom.Point, version uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.recs[key]
	if !ok || !rec.Deleted || rec.Version != version {
		return false
	}
	delete(l.recs, key)
	return true
}

func (l *mapLocal) Clear() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = make(map[geom.Point]proto.StoreRecord)
}

func (l *mapLocal) Len() int {
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

func (l *mapLocal) Snapshot() []proto.StoreRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]proto.StoreRecord, 0, len(l.recs))
	for _, rec := range l.recs {
		out = append(out, rec)
	}
	sortRecords(out)
	return out
}

func (l *mapLocal) Collect(pred func(key geom.Point) bool) []proto.StoreRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []proto.StoreRecord
	for k, rec := range l.recs {
		if pred(k) {
			out = append(out, rec)
		}
	}
	sortRecords(out)
	return out
}

// sameRecord compares two records bit for bit, so that a NaN key equals
// itself and +0 differs from -0.
func sameRecord(a, b proto.StoreRecord) bool {
	return math.Float64bits(a.Key.X) == math.Float64bits(b.Key.X) &&
		math.Float64bits(a.Key.Y) == math.Float64bits(b.Key.Y) &&
		bytes.Equal(a.Value, b.Value) && a.Version == b.Version && a.Deleted == b.Deleted
}

// sameRecords compares two sorted outputs. A NaN key compares neither
// below nor above anything, so sortRecords leaves input order showing
// around it; such outputs are compared as multisets.
func sameRecords(got, want []proto.StoreRecord) bool {
	if len(got) != len(want) {
		return false
	}
	for _, rec := range want {
		if math.IsNaN(rec.Key.X) || math.IsNaN(rec.Key.Y) {
			got, want = canonical(got), canonical(want)
			break
		}
	}
	for i := range got {
		if !sameRecord(got[i], want[i]) {
			return false
		}
	}
	return true
}

func canonical(recs []proto.StoreRecord) []proto.StoreRecord {
	out := append([]proto.StoreRecord(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if x, y := math.Float64bits(a.Key.X), math.Float64bits(b.Key.X); x != y {
			return x < y
		}
		if x, y := math.Float64bits(a.Key.Y), math.Float64bits(b.Key.Y); x != y {
			return x < y
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		if c := bytes.Compare(a.Value, b.Value); c != 0 {
			return c < 0
		}
		return !a.Deleted && b.Deleted
	})
	return out
}

// checkAgainst fails the test unless l and ref answer every read alike for
// every key in keys, and l's index (once built) names every record's slot.
func checkAgainst(t *testing.T, step string, l *Local, ref *mapLocal, keys []geom.Point) {
	t.Helper()
	for _, k := range keys {
		got, gok := l.Get(k)
		want, wok := ref.Get(k)
		if gok != wok || !sameRecord(got, want) {
			t.Fatalf("%s: Get(%v) = %+v, %v; reference %+v, %v", step, k, got, gok, want, wok)
		}
		got, gok = l.Lookup(k)
		want, wok = ref.Lookup(k)
		if gok != wok || !sameRecord(got, want) {
			t.Fatalf("%s: Lookup(%v) = %+v, %v; reference %+v, %v", step, k, got, gok, want, wok)
		}
	}
	if got, want := l.Len(), ref.Len(); got != want {
		t.Fatalf("%s: Len = %d; reference %d", step, got, want)
	}
	if got, want := l.Snapshot(), ref.Snapshot(); !sameRecords(got, want) {
		t.Fatalf("%s: Snapshot = %+v; reference %+v", step, got, want)
	}
	for _, pred := range []func(geom.Point) bool{
		func(k geom.Point) bool { return k.X < 0.5 },
		func(k geom.Point) bool { return k.Y >= 0.5 },
	} {
		if got, want := l.Collect(pred), ref.Collect(pred); !sameRecords(got, want) {
			t.Fatalf("%s: Collect = %+v; reference %+v", step, got, want)
		}
	}
	if l.idx == nil {
		if len(l.recs) > indexAbove {
			t.Fatalf("%s: %d records and no index", step, len(l.recs))
		}
		return
	}
	for i, rec := range l.recs {
		if math.IsNaN(rec.Key.X) || math.IsNaN(rec.Key.Y) {
			continue // never found, by map semantics
		}
		if j, ok := l.idx[rec.Key]; !ok || j != i {
			t.Fatalf("%s: record %d (%v) indexed at %d, %v", step, i, rec.Key, j, ok)
		}
	}
}

// TestLocalMatchesReference drives Local and the map-based reference
// through the same seeded sequences of every write — Put, Delete, Apply
// with stale, equal and newer versions, DropTombstone at the resident and
// at a wrong version, Clear — over a small and a large key pool, and
// compares every read after every step. Both pools hold +0 and -0 (one
// key under map semantics) and a NaN key (never found, so each Put of it
// adds a record). Put reads its value from one scratch buffer that is
// overwritten after every call, as benchmark/sim.go's workers do.
func TestLocalMatchesReference(t *testing.T) {
	specials := []geom.Point{geom.Pt(0, 0.5), geom.Pt(math.Copysign(0, -1), 0.5), geom.Pt(math.NaN(), 0.5)}
	for _, size := range []int{3, 40} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			keys := append([]geom.Point(nil), specials...)
			for len(keys) < size+len(specials) {
				keys = append(keys, geom.Pt(rng.Float64(), rng.Float64()))
			}
			l, ref := NewLocal(), newMapLocal()
			scratch := make([]byte, 16)
			indexed := false
			for step := 0; step < 3000; step++ {
				k := keys[rng.Intn(len(keys))]
				cur, _ := ref.Lookup(k)
				name := fmt.Sprintf("pool %d seed %d step %d", size, seed, step)
				switch op := rng.Intn(100); {
				case op < 30:
					buf := scratch[:rng.Intn(len(scratch)+1)]
					rng.Read(buf)
					got, want := l.Put(k, buf), ref.Put(k, buf)
					rng.Read(scratch)
					if !sameRecord(got, want) {
						t.Fatalf("%s: Put = %+v; reference %+v", name, got, want)
					}
				case op < 45:
					got, gok := l.Delete(k)
					want, wok := ref.Delete(k)
					if gok != wok || !sameRecord(got, want) {
						t.Fatalf("%s: Delete = %+v, %v; reference %+v, %v", name, got, gok, want, wok)
					}
				case op < 75:
					rec := proto.StoreRecord{Key: k, Version: cur.Version + uint64(rng.Intn(3)), Deleted: rng.Intn(4) == 0}
					if cur.Version > 0 && rng.Intn(4) == 0 {
						rec.Version = cur.Version - 1
					}
					if !rec.Deleted {
						rec.Value = []byte(name)
					}
					if got, want := l.Apply(rec), ref.Apply(rec); got != want {
						t.Fatalf("%s: Apply(%+v) = %v; reference %v", name, rec, got, want)
					}
				case op < 98:
					v := cur.Version
					if rng.Intn(4) == 0 {
						v++
					}
					if got, want := l.DropTombstone(k, v), ref.DropTombstone(k, v); got != want {
						t.Fatalf("%s: DropTombstone(%v, %d) = %v; reference %v", name, k, v, got, want)
					}
				default:
					l.Clear()
					ref.Clear()
				}
				indexed = indexed || l.idx != nil
				checkAgainst(t, name, l, ref, keys)
			}
			if size > indexAbove && !indexed {
				t.Fatalf("pool %d seed %d: the Local never built its index", size, seed)
			}
		}
	}

	// Swap-remove the first, a middle and the last record of an indexed
	// Local, then re-add the key.
	for _, pos := range []int{0, 6, 11} {
		l, ref := NewLocal(), newMapLocal()
		var keys []geom.Point
		for j := 0; j < 12; j++ {
			keys = append(keys, geom.Pt(float64(j)/12, 0.25))
			l.Put(keys[j], []byte{byte(j)})
			ref.Put(keys[j], []byte{byte(j)})
		}
		if l.idx == nil {
			t.Fatalf("%d records and no index", len(l.recs))
		}
		k := l.recs[pos].Key
		tomb, _ := l.Delete(k)
		ref.Delete(k)
		if !l.DropTombstone(k, tomb.Version) || !ref.DropTombstone(k, tomb.Version) {
			t.Fatalf("slot %d: tombstone not dropped", pos)
		}
		checkAgainst(t, fmt.Sprintf("drop slot %d", pos), l, ref, keys)
		l.Put(k, []byte("again"))
		ref.Put(k, []byte("again"))
		checkAgainst(t, fmt.Sprintf("re-put slot %d", pos), l, ref, keys)
	}
}

// skipUnderRace skips a test whose allocation counts the race detector's
// instrumentation would void.
func skipUnderRace(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under -race")
			}
		}
	}
}

// TestLocalFootprint pins what a Local holding one replicated record
// costs: the simulator keeps one per object, and most hold one record.
func TestLocalFootprint(t *testing.T) {
	skipUnderRace(t)
	const n = 10000
	rec := proto.StoreRecord{Key: geom.Pt(0.3, 0.7), Value: make([]byte, 128), Version: 1}
	keep := make([]*Local, n)
	fill := func(i int) {
		l := NewLocal()
		l.Apply(rec)
		keep[i] = l
	}
	i := 0
	allocs := testing.AllocsPerRun(n-1, func() { fill(i); i++ })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		fill(i)
	}
	runtime.ReadMemStats(&after)
	perLocal := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("NewLocal + Apply: %.2f allocations, %.1f B", allocs, perLocal)
	if allocs > 2 {
		t.Errorf("NewLocal + Apply allocates %.2f times, want at most 2", allocs)
	}
	if perLocal > 128 {
		t.Errorf("NewLocal + Apply allocates %.1f B, want at most 128", perLocal)
	}
}

// BenchmarkLocal prices Get, Put and Apply on Locals of 1 to 4096 records,
// on both sides of indexAbove, with the benchmark's 128-byte values.
func BenchmarkLocal(b *testing.B) {
	val := make([]byte, 128)
	for _, n := range []int{1, 4, 8, 9, 64, 4096} {
		rng := rand.New(rand.NewSource(int64(n)))
		keys := make([]geom.Point, n)
		l := NewLocal()
		for i := range keys {
			keys[i] = geom.Pt(rng.Float64(), rng.Float64())
			l.Put(keys[i], val)
		}
		b.Run(fmt.Sprintf("%d/Get", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := l.Get(keys[i%n]); !ok {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("%d/Put", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Put(keys[i%n], val)
			}
		})
		b.Run(fmt.Sprintf("%d/Apply", n), func(b *testing.B) {
			replica := NewLocal()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replica.Apply(proto.StoreRecord{Key: keys[i%n], Value: val, Version: uint64(i/n + 1)})
			}
		})
	}
}
