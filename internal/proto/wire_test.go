package proto

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"voronet/internal/geom"
)

// randEnvelope draws a random envelope of the given kind, populating the
// fields that kind legitimately carries (plus, occasionally, ones it does
// not — the codec is kind-agnostic and must round-trip any field mix).
// Slices are left nil when empty, matching what Decode produces, so a
// decoded envelope can be compared to its source with DeepEqual.
func randEnvelope(rng *rand.Rand, k Kind) *Envelope {
	pt := func() geom.Point { return geom.Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5) }
	str := func() string {
		n := rng.Intn(24)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte(rng.Intn(256)))
		}
		return sb.String()
	}
	ninfo := func() NodeInfo {
		n := NodeInfo{Addr: str(), Pos: pt()}
		if rng.Intn(2) == 0 {
			n.Gen = rng.Uint64()
		}
		return n
	}
	ninfos := func(max int) []NodeInfo {
		n := rng.Intn(max + 1)
		if n == 0 {
			return nil
		}
		out := make([]NodeInfo, n)
		for i := range out {
			out[i] = ninfo()
		}
		return out
	}
	bs := func(max int) []byte {
		n := rng.Intn(max + 1)
		if n == 0 {
			return nil
		}
		out := make([]byte, n)
		rng.Read(out)
		return out
	}

	e := &Envelope{Type: k, From: ninfo()}
	switch k {
	case KindRoute, KindRangeForward:
		e.Purpose = RoutedPurpose(rng.Intn(7))
		e.Target, e.TargetB = pt(), pt()
		e.Origin = ninfo()
		e.Link = rng.Intn(8)
		e.Hops = rng.Intn(64)
		e.QueryID = rng.Uint64()
		if e.Purpose == PurposeStorePut {
			e.Value = bs(256)
		}
	case KindJoinGrant, KindSetNeighbors, KindNeighborList, KindLeave:
		e.Neighbors = ninfos(6)
		if k == KindJoinGrant {
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				e.TwoHop = append(e.TwoHop, NeighborRecord{Node: ninfo(), VN: ninfos(4)})
			}
			e.CloseCand = ninfos(4)
			for i := rng.Intn(3); i > 0; i-- {
				e.Back = append(e.Back, BackEntry{Origin: ninfo(), Link: rng.Intn(8), Target: pt()})
			}
		}
	case KindLongLinkGrant, KindLongLinkUpdate, KindBackWithdraw:
		e.Granter = ninfo()
		e.Link = rng.Intn(8)
		e.Hops = rng.Intn(64)
	case KindBackTransfer:
		for i := rng.Intn(5); i > 0; i-- {
			e.Back = append(e.Back, BackEntry{Origin: ninfo(), Link: rng.Intn(8), Target: pt()})
		}
	case KindQueryAnswer, KindRangeHit:
		e.QueryID = rng.Uint64()
		e.Hops = rng.Intn(64)
	case KindStoreReply:
		e.QueryID = rng.Uint64()
		e.Found = rng.Intn(2) == 0
		e.Shed = rng.Intn(4) == 0
		e.Version = rng.Uint64()
		e.Value = bs(512)
		e.Hops = rng.Intn(64)
	case KindReplicaSync:
		for i := rng.Intn(5); i > 0; i-- {
			e.Records = append(e.Records, StoreRecord{
				Key: pt(), Value: bs(128), Version: rng.Uint64(), Deleted: rng.Intn(3) == 0,
			})
		}
		e.Handoff = rng.Intn(2) == 0
	case KindSyncDigest, KindSyncPull:
		e.Digest = bs(32 * 8)
		if len(e.Digest)%8 != 0 {
			e.Digest = e.Digest[:len(e.Digest)/8*8]
			if len(e.Digest) == 0 {
				e.Digest = nil
			}
		}
		e.Handoff = rng.Intn(2) == 0
	}
	// Cross-cutting extras any kind may carry.
	if rng.Intn(3) == 0 {
		e.Trace = true
		for i := rng.Intn(4); i > 0; i-- {
			e.Path = append(e.Path, TraceHop{Addr: str(), Rule: str(), Nanos: rng.Int63()})
		}
	}
	if rng.Intn(3) == 0 {
		n := rng.Intn(4)
		for i := 0; i < n; i++ {
			e.Departed = append(e.Departed, str())
		}
		if n > 0 && rng.Intn(2) == 0 {
			for i := 0; i < n; i++ {
				e.DepartedGen = append(e.DepartedGen, rng.Uint64())
			}
		}
	}
	return e
}

// TestBinaryGobDifferential is the round-trip property test of the wire
// codec: for every kind, over many randomly drawn envelopes (and the
// curated Samples), decoding an encoded envelope must give back the
// source envelope exactly, and the encoding must be a fixpoint (decode ∘
// encode = id on wire bytes), so a decoded envelope can always be
// forwarded intact.
func TestBinaryGobDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(t *testing.T, env *Envelope) {
		t.Helper()
		b := AppendEncode(nil, env)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode: %v (frame %x)", err, b)
		}
		if !reflect.DeepEqual(env, got) {
			t.Fatalf("round trip changed a kind %v envelope:\n sent: %+v\n got : %+v", env.Type, env, got)
		}
		again := AppendEncode(nil, got)
		if !bytes.Equal(b, again) {
			t.Fatalf("encode not a fixpoint for kind %v:\n%x\n%x", env.Type, b, again)
		}
	}
	for _, env := range samples() {
		check(t, env)
	}
	for k := Kind(0); k < KindCount; k++ {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			for i := 0; i < 300; i++ {
				check(t, randEnvelope(rng, k))
			}
		})
	}
}

// TestAppendEncodeZeroAllocs is the allocation regression gate of the
// acceptance criteria: once the destination buffer has warmed up,
// AppendEncode must not touch the heap for any representative envelope.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	for _, env := range samples() {
		env := env
		t.Run(env.Type.String(), func(t *testing.T) {
			buf := make([]byte, 0, 4096)
			allocs := testing.AllocsPerRun(200, func() {
				buf = AppendEncode(buf[:0], env)
			})
			if allocs != 0 {
				t.Fatalf("AppendEncode allocated %.1f times per op for kind %v, want 0", allocs, env.Type)
			}
		})
	}
}

// TestBinaryDecodeRejectsTruncation: every strict prefix of a binary
// frame must be rejected with an error (the flags promise fields the
// bytes do not deliver), never a panic and never a partial envelope.
func TestBinaryDecodeRejectsTruncation(t *testing.T) {
	for _, env := range samples() {
		full := AppendEncode(nil, env)
		for cut := 0; cut < len(full); cut++ {
			if _, err := Decode(full[:cut]); err == nil {
				t.Fatalf("kind %v: %d-byte prefix of a %d-byte frame decoded without error",
					env.Type, cut, len(full))
			}
		}
	}
}

// TestBinaryDecodeRejectsTrailingBytes: a frame with bytes after the
// envelope is not one of ours.
func TestBinaryDecodeRejectsTrailingBytes(t *testing.T) {
	b := AppendEncode(nil, samples()[0])
	if _, err := Decode(append(b, 0x00)); err == nil {
		t.Fatal("frame with a trailing byte decoded without error")
	}
}

// TestBinaryDecodeRejectsHostileLengths: oversized length claims and
// unterminated varints must error out against the remaining byte count
// before any allocation is sized from them.
func TestBinaryDecodeRejectsHostileLengths(t *testing.T) {
	cases := map[string][]byte{
		// flags say Value present; Value length claims 2^30 with 2 bytes left.
		"oversized value length": append(
			[]byte{wireMagic, byte(KindStoreReply)},
			0x91, 0x80, 0x04, // flags varint: flagValue (bit 17)... crafted below
		),
		"bad flags varint":   {wireMagic, byte(KindRoute), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
		"empty frame":        {},
		"magic only":         {wireMagic},
		"magic + kind only":  {wireMagic, byte(KindRoute)},
		"unknown flag bit":   {wireMagic, byte(KindRoute), 0x80, 0x80, 0x01}, // bit 28
		"neighbor count lie": nil,                                            // built below
	}
	// flags = flagValue exactly, then an oversized uvarint length.
	withValue := []byte{wireMagic, byte(KindStoreReply)}
	var fl [10]byte
	n := putUvarint(fl[:], flagValue)
	withValue = append(withValue, fl[:n]...)
	withValue = append(withValue, 0xFF, 0xFF, 0xFF, 0x7F) // length ≈ 2^28
	withValue = append(withValue, 0xAA, 0xBB)
	cases["oversized value length"] = withValue

	lie := []byte{wireMagic, byte(KindJoinGrant)}
	n = putUvarint(fl[:], flagNeighbors)
	lie = append(lie, fl[:n]...)
	lie = append(lie, 0xFF, 0xFF, 0x03) // 65535 neighbours in a 1-byte body
	lie = append(lie, 0x00)
	cases["neighbor count lie"] = lie

	for name, frame := range cases {
		if env, err := Decode(frame); err == nil {
			t.Errorf("%s: decoded to %+v, want error", name, env)
		}
	}
}

func putUvarint(buf []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		buf[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	buf[i] = byte(v)
	return i + 1
}

// TestBinaryRejectsNegativeFields: negative Link / Hops / Back.Link
// zigzag-encode fine but must be thrown out by validation.
func TestBinaryRejectsNegativeFields(t *testing.T) {
	for i, env := range hostileSeeds() {
		b := AppendEncode(nil, env)
		if got, err := Decode(b); err == nil {
			t.Errorf("seed %d: hostile binary envelope decoded to %+v, want rejection", i, got)
		}
	}
}

// TestWireBufPoolRoundTrip exercises the pooled-buffer cycle senders use
// and the size cap that keeps giant value frames out of the pool.
func TestWireBufPoolRoundTrip(t *testing.T) {
	wb := GetBuf()
	wb.B = AppendEncode(wb.B[:0], samples()[0])
	if _, err := Decode(wb.B); err != nil {
		t.Fatalf("decode from pooled buffer: %v", err)
	}
	wb.Put()

	big := GetBuf()
	big.B = append(big.B[:0], make([]byte, maxPooledBuf+1)...)
	kept := &big.B[0]
	_ = kept
	big.Put()
	if cap(big.B) > maxPooledBuf {
		t.Fatalf("oversized buffer (%d B cap) returned to pool", cap(big.B))
	}
}

// BenchmarkAppendEncode / BenchmarkDecodeBinary put numbers on the codec.
func BenchmarkAppendEncode(b *testing.B) {
	envs := samples()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], envs[i%len(envs)])
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	var frames [][]byte
	for _, e := range samples() {
		frames = append(frames, AppendEncode(nil, e))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}
