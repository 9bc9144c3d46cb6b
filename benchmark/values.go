package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync/atomic"

	"voronet/internal/geom"
)

// Stored values describe themselves so that every GET can be checked
// without a shadow copy of the store:
//
//	[0:8)   hash of the key
//	[8:12)  writer (the generator that owns the key)
//	[12:16) counter (the writer's version of this key, 0 = preload)
//	[16:)   padding derived from hash and counter
const valueHeader = 16

func keyHash(k geom.Point) uint64 {
	h := math.Float64bits(k.X)*0x9E3779B97F4A7C15 ^ math.Float64bits(k.Y)
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>32
}

func padByte(h uint64, counter uint32, i int) byte {
	return byte(h>>(uint(i&7)*8)) ^ byte(counter) ^ byte(i)
}

// fillValue writes the value for (key, writer, counter) into buf.
func fillValue(buf []byte, k geom.Point, writer, counter uint32) {
	h := keyHash(k)
	binary.LittleEndian.PutUint64(buf[0:8], h)
	binary.LittleEndian.PutUint32(buf[8:12], writer)
	binary.LittleEndian.PutUint32(buf[12:16], counter)
	for i := valueHeader; i < len(buf); i++ {
		buf[i] = padByte(h, counter, i)
	}
}

// parseValue checks a value's integrity against its key and size and
// returns its writer and counter.
func parseValue(v []byte, k geom.Point, size int) (writer, counter uint32, ok bool) {
	if len(v) != size || size < valueHeader {
		return 0, 0, false
	}
	h := keyHash(k)
	if binary.LittleEndian.Uint64(v[0:8]) != h {
		return 0, 0, false
	}
	writer = binary.LittleEndian.Uint32(v[8:12])
	counter = binary.LittleEndian.Uint32(v[12:16])
	for i := valueHeader; i < len(v); i++ {
		if v[i] != padByte(h, counter, i) {
			return 0, 0, false
		}
	}
	return writer, counter, true
}

// keySet is the workload's key population and what the generators know
// about each key. Key k belongs to writer k % generators, and only that
// generator PUTs it, one PUT at a time, so per key: issued is the last
// counter sent, acked the last counter acknowledged, and a correct GET
// returns a counter in [acked at issue, issued at completion].
type keySet struct {
	keys   []geom.Point
	size   int // value bytes
	issued []atomic.Uint32
	acked  []atomic.Uint32
	busy   []atomic.Bool // a PUT for the key is in flight
}

func newKeySet(rng *rand.Rand, n, size int) *keySet {
	ks := &keySet{
		keys:   make([]geom.Point, n),
		size:   size,
		issued: make([]atomic.Uint32, n),
		acked:  make([]atomic.Uint32, n),
		busy:   make([]atomic.Bool, n),
	}
	for i := range ks.keys {
		ks.keys[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return ks
}

func (ks *keySet) writerOf(k int) uint32 { return uint32(k % generators) }

// preloadValue is the counter-0 value every key starts with.
func (ks *keySet) preloadValue(k int) []byte {
	buf := make([]byte, ks.size)
	fillValue(buf, ks.keys[k], ks.writerOf(k), 0)
	return buf
}

// beginPut picks a key owned by generator g with no PUT in flight,
// starting from a random one, and fills buf with its next value.
func (ks *keySet) beginPut(g int, rng *rand.Rand, buf []byte) (k int, counter uint32) {
	per := len(ks.keys) / generators
	k = rng.Intn(per)*generators + g
	for !ks.busy[k].CompareAndSwap(false, true) {
		k += generators
		if k >= per*generators {
			k = g
		}
	}
	counter = ks.issued[k].Add(1)
	fillValue(buf, ks.keys[k], uint32(g), counter)
	return k, counter
}

// endPut records the outcome of the PUT beginPut started.
func (ks *keySet) endPut(k int, counter uint32, ok bool) {
	if ok {
		ks.acked[k].Store(counter)
	}
	ks.busy[k].Store(false)
}

// checkGet verifies a GET's value: intact, written by the key's owner,
// not newer than anything ever sent, and no older than what was
// acknowledged when the GET was issued (lo) — or, where lag is 1, one
// version older, reported as stale. Over TCP a GET can be answered by a
// replica on its path, and the owner acknowledges a PUT as soon as it has
// sent the replica pushes, not once they are applied; DESIGN.md promises
// consistent reads at quiescence only, so the phases tolerate that one
// version and the quiescent read-back at the end of the run does not.
func (ks *keySet) checkGet(k int, v []byte, lo, lag uint32) (ok, stale bool) {
	w, c, intact := parseValue(v, ks.keys[k], ks.size)
	if !intact || w != ks.writerOf(k) || c > ks.issued[k].Load() || c+lag < lo {
		return false, false
	}
	return true, c < lo
}
