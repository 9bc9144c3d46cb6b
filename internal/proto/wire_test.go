package proto

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"voronet/internal/geom"
)

// livePurposes are the routed purposes a frame may carry.
var livePurposes = []RoutedPurpose{PurposeJoin, PurposeLongLink, PurposeQuery, PurposeStorePut, PurposeStoreGet, PurposeStoreDelete}

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
	case KindRoute:
		e.Purpose = livePurposes[rng.Intn(len(livePurposes))]
		e.Target = pt()
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
	case KindLongLinkGrant, KindLongLinkUpdate:
		e.Granter = ninfo()
		e.Link = rng.Intn(8)
		e.Hops = rng.Intn(64)
	case KindBackTransfer:
		for i := rng.Intn(5); i > 0; i-- {
			e.Back = append(e.Back, BackEntry{Origin: ninfo(), Link: rng.Intn(8), Target: pt()})
		}
	case KindQueryAnswer:
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

// sampleGolden pins the v1 bytes of every samples() envelope, keyed by
// kind name. Retiring a kind reserves its byte instead of renumbering the
// ones after it, so these strings must never change: a peer built before
// a retirement and one built after it still speak the same frames.
var sampleGolden = map[string]string{
	"route":            "b100d7070d31302e302e302e313a373030319a9999999999c93f333333333333d33f00022fdd24068195e33f6abc74931804d63f0d31302e302e302e393a373030311f85eb51b81eed3fb81e85eb51b8be3f0008bf06020d31302e302e302e393a37303031046c6f6e67f0280000000000000d31302e302e302e373a3730303102766ea208000000000000",
	"join_grant":       "b10181f8060d31302e302e302e353a37303031cdccccccccccdc3f14ae47e17a14de3f00030d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f000d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f000d31302e302e302e343a3730303152b81e85eb51d83f8fc2f5285c8fe23f00020d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f00020d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f000d31302e302e302e343a3730303152b81e85eb51d83f8fc2f5285c8fe23f000d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f00010d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f00020d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f000d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f00010d31302e302e302e383a37303031295c8fc2f528bc3f8fc2f5285c8fea3f0002713d0ad7a370dd3fb81e85eb51b8de3f010d31302e302e302e363a373030310102",
	"set_neighbors":    "b10281080d31302e302e302e353a37303031cdccccccccccdc3f14ae47e17a14de3f00030d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f000d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f000d31302e302e302e343a3730303152b81e85eb51d83f8fc2f5285c8fe23f00",
	"neighbor_list":    "b1038188020d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f00030d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f000d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f000d31302e302e302e343a3730303152b81e85eb51d83f8fc2f5285c8fe23f00010d31302e302e302e363a37303031",
	"cn_add":           "b104010d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f00",
	"long_link_grant":  "b106e180010d31302e302e302e343a3730303152b81e85eb51d83f8fc2f5285c8fe23f0004120d31302e302e302e343a3730303152b81e85eb51d83f8fc2f5285c8fe23f00",
	"back_transfer":    "b10781400d31302e302e302e343a3730303152b81e85eb51d83f8fc2f5285c8fe23f00020d31302e302e302e383a37303031295c8fc2f528bc3f8fc2f5285c8fea3f00009a9999999999d93f9a9999999999e13f0d31302e302e302e393a373030311f85eb51b81eed3fb81e85eb51b8be3f0006ae47e17a14aed73f85eb51b81e85e33f",
	"long_link_update": "b108a180010d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f00020d31302e302e302e373a373030311f85eb51b81ee53fe17a14ae47e1ca3f00",
	"leave":            "b10981080d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f00020d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f000d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f00",
	"query_answer":     "b10bc1050d31302e302e302e343a3730303152b81e85eb51d83f8fc2f5285c8fe23f000cbf06010d31302e302e302e343a37303031056f776e6572de03000000000000",
	"store_reply":      "b10fc181380d31302e302e302e353a37303031cdccccccccccdc3f14ae47e17a14de3f00069007187468652073746f7265642076616c7565207061796c6f61640c",
	"replica_sync":     "b1108180c0010d31302e302e302e353a37303031cdccccccccccdc3f14ae47e17a14de3f0002713d0ad7a370dd3f713d0ad7a370dd3f177265706c6963617465642d7265636f72642d76616c75650400295c8fc2f528dc3f5c8fc2f5285cdf3f000701",
	"sync_digest":      "b111818080040d31302e302e302e353a37303031cdccccccccccdc3f14ae47e17a14de3f00100102030405060708090a0b0c0d0e0f10",
	"sync_pull":        "b112818080040d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f00080909090909090909",
}

// TestBinaryGobDifferential is the round-trip property test of the wire
// codec: for every kind, over many randomly drawn envelopes (and the
// curated Samples), decoding an encoded envelope must give back the
// source envelope exactly, and the encoding must be a fixpoint (decode ∘
// encode = id on wire bytes), so a decoded envelope can always be
// forwarded intact. Each sample also encodes to its pinned golden bytes.
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
		if got, want := hex.EncodeToString(AppendEncode(nil, env)), sampleGolden[env.Type.String()]; got != want {
			t.Errorf("kind %v encodes to\n%s\nwant the pinned\n%s", env.Type, got, want)
		}
	}
	if len(samples()) != len(sampleGolden) {
		t.Errorf("%d samples, %d golden frames", len(samples()), len(sampleGolden))
	}
	// A retired kind's byte stays reserved: whatever fields an envelope of
	// it carries, Decode refuses the frame. Its draws come from their own
	// source so the live kinds see the same envelopes as before.
	retiredRng := rand.New(rand.NewSource(43))
	for k := Kind(0); k < KindCount; k++ {
		k := k
		if name, ok := retiredKindNames[k]; ok {
			t.Run(name, func(t *testing.T) {
				for i := 0; i < 300; i++ {
					env := randEnvelope(retiredRng, k)
					if got, err := Decode(AppendEncode(nil, env)); err == nil {
						t.Fatalf("retired kind %d decoded to %+v, want an error", int(k), got)
					}
				}
			})
			continue
		}
		t.Run(k.String(), func(t *testing.T) {
			for i := 0; i < 300; i++ {
				check(t, randEnvelope(rng, k))
			}
		})
	}
}

// retiredKindNames are the names the reserved kinds carried before they
// retired; Kind.String gives them none.
var retiredKindNames = map[Kind]string{
	kindRetiredCNRemove:     "cn_remove",
	kindRetiredLeaveCN:      "leave_cn",
	kindRetiredBackWithdraw: "back_withdraw",
	kindRetiredRangeForward: "range_forward",
	kindRetiredRangeHit:     "range_hit",
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
