package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"voronet/internal/geom"
)

// fuzzSeeds returns one representative envelope per interesting shape so
// the fuzzer starts from structurally valid wire bytes.
func fuzzSeeds() []*Envelope {
	return []*Envelope{
		{Type: KindRoute, Purpose: PurposeJoin, Target: geom.Pt(0.25, 0.75),
			Origin: NodeInfo{Addr: "n001", Pos: geom.Pt(0.1, 0.2)}, Hops: 3},
		{Type: KindJoinGrant, From: NodeInfo{Addr: "owner", Pos: geom.Pt(0.5, 0.5)},
			Neighbors: []NodeInfo{{Addr: "a", Pos: geom.Pt(0.3, 0.3)}, {Addr: "b", Pos: geom.Pt(0.7, 0.7)}},
			TwoHop:    []NeighborRecord{{Node: NodeInfo{Addr: "a"}, VN: []NodeInfo{{Addr: "b"}}}}},
		{Type: KindLongLinkGrant, From: NodeInfo{Addr: "g"}, Link: 2, Hops: 7},
		{Type: KindBackTransfer, Back: []BackEntry{{Origin: NodeInfo{Addr: "o"}, Link: 1, Target: geom.Pt(0.9, 0.1)}}},
		{Type: KindRoute, Purpose: PurposeStorePut, Target: geom.Pt(0.42, 0.43),
			Value: []byte("payload"), QueryID: 99},
		{Type: KindStoreReply, Found: true, Value: []byte("v"), Version: 12, QueryID: 99},
		{Type: KindReplicaSync, Records: []StoreRecord{
			{Key: geom.Pt(0.1, 0.9), Value: []byte("x"), Version: 4},
			{Key: geom.Pt(0.2, 0.8), Version: 5, Deleted: true},
		}, Handoff: true},
		{Type: KindNeighborList, Departed: []string{"dead1", "dead2"}},
	}
}

// hostileSeeds returns envelopes no correct peer sends — negative link
// indices and hop counts, the fields a malicious sender could aim at
// slice indexing on the receiver. Decode must reject every one of them.
func hostileSeeds() []*Envelope {
	return []*Envelope{
		{Type: KindLongLinkGrant, From: NodeInfo{Addr: "g"}, Link: -1},
		{Type: KindLongLinkUpdate, Granter: NodeInfo{Addr: "h"}, Link: -7},
		{Type: KindRoute, Purpose: PurposeLongLink, Target: geom.Pt(0.5, 0.5), Link: -3},
		{Type: KindRoute, Purpose: PurposeQuery, Target: geom.Pt(0.1, 0.1), Hops: -5},
		{Type: KindBackTransfer, Back: []BackEntry{{Origin: NodeInfo{Addr: "o"}, Link: -2, Target: geom.Pt(0.9, 0.1)}}},
	}
}

// nonFiniteSeeds returns envelopes naming a peer at a NaN, infinite or
// otherwise out-of-domain position (geom.InDomain) — in every NodeInfo
// field the decoder reads. Decode must reject every one of them: such a
// site has no place in a tessellation.
func nonFiniteSeeds() []*Envelope {
	nan := NodeInfo{Addr: "nan", Pos: geom.Pt(math.NaN(), 0.3)}
	inf := NodeInfo{Addr: "inf", Pos: geom.Pt(math.Inf(1), 0.3)}
	ninf := NodeInfo{Addr: "ninf", Pos: geom.Pt(0.3, math.Inf(-1))}
	far := NodeInfo{Addr: "far", Pos: geom.Pt(-1e100, -1e103)}
	edge := NodeInfo{Addr: "edge", Pos: geom.Pt(0.3, math.Nextafter(0x1p32, math.Inf(1)))}
	tiny := NodeInfo{Addr: "tiny", Pos: geom.Pt(1e-300, 0.3)}
	return []*Envelope{
		{Type: KindRoute, Purpose: PurposeJoin, Target: far.Pos, Origin: far},
		{Type: KindSetNeighbors, From: NodeInfo{Addr: "a", Pos: geom.Pt(0.2, 0.2)}, Origin: edge},
		{Type: KindCNAdd, CloseCand: []NodeInfo{{Addr: "b", Pos: geom.Pt(0.4, 0.4)}, tiny}},
		{Type: KindNeighborList, From: NodeInfo{Addr: "a", Pos: geom.Pt(0.2, 0.2)}, Neighbors: []NodeInfo{{Addr: "b", Pos: geom.Pt(0.4, 0.4)}, nan}},
		{Type: KindRoute, Purpose: PurposeJoin, Target: nan.Pos, Origin: nan},
		{Type: KindSetNeighbors, From: inf, Origin: NodeInfo{Addr: "j", Pos: geom.Pt(0.5, 0.5)}},
		{Type: KindJoinGrant, TwoHop: []NeighborRecord{{Node: ninf, VN: []NodeInfo{{Addr: "b"}}}}},
		{Type: KindJoinGrant, TwoHop: []NeighborRecord{{Node: NodeInfo{Addr: "b"}, VN: []NodeInfo{inf}}}},
		{Type: KindCNAdd, CloseCand: []NodeInfo{ninf}},
		{Type: KindBackTransfer, Back: []BackEntry{{Origin: nan, Link: 1, Target: geom.Pt(0.9, 0.1)}}},
		{Type: KindLongLinkUpdate, Granter: inf, Link: 0},
	}
}

// TestDecodeRejectsNonFinitePositions: a NodeInfo at (NaN, 0.3),
// (+Inf, 0.3) or (−1e100, −1e103) used to decode, and reached the
// receiving node's neighbour computation. A position at the domain's
// edge decodes. A routed Target is not a site: a NaN or far-off target
// still decodes, and routing keeps a NaN one at the first node.
func TestDecodeRejectsNonFinitePositions(t *testing.T) {
	for i, env := range nonFiniteSeeds() {
		if got, err := Decode(AppendEncode(nil, env)); err == nil {
			t.Errorf("seed %d: %v envelope decoded to %+v, want rejection", i, env.Type, got)
		}
	}
	route := &Envelope{Type: KindRoute, Purpose: PurposeQuery, Target: geom.Pt(math.NaN(), 0.5),
		Origin: NodeInfo{Addr: "o", Pos: geom.Pt(0.1, 0.1)}, QueryID: 4}
	got, err := Decode(AppendEncode(nil, route))
	if err != nil || !math.IsNaN(got.Target.X) {
		t.Fatalf("NaN route target: %+v, %v", got, err)
	}
	route.Target = geom.Pt(1e300, -1e300)
	if got, err = Decode(AppendEncode(nil, route)); err != nil || got.Target != route.Target {
		t.Fatalf("far route target: %+v, %v", got, err)
	}
	edge := &Envelope{Type: KindCNAdd, CloseCand: []NodeInfo{
		{Addr: "max", Pos: geom.Pt(0x1p32, -0x1p32)}, {Addr: "min", Pos: geom.Pt(-0x1p-64, 0)}}}
	if got, err = Decode(AppendEncode(nil, edge)); err != nil || !slices.Equal(got.CloseCand, edge.CloseCand) {
		t.Fatalf("positions at the domain's edge: %+v, %v", got, err)
	}
}

// historicalGobFrame is a KindStoreReply envelope as the retired
// encoding/gob codec framed it (881 bytes, type descriptors and all) —
// what an old transcript or a not-yet-upgraded peer would present.
// Decode must reject it; it also seeds the fuzzer with a long,
// structured non-v1 input.
const historicalGobFrame = "" +
	"fe01387f03010108456e76656c6f706501ff80000119010454797065010400010446726f6d01ff82000107507572706f" +
	"7365010400010654617267657401ff840001075461726765744201ff840001064f726967696e01ff820001044c696e6b" +
	"0104000104486f70730104000107517565727949440106000105547261636501020001045061746801ff880001094e65" +
	"696768626f727301ff8a00010654776f486f7001ff8e000109436c6f736543616e6401ff8a0001044261636b01ff9200" +
	"01074772616e74657201ff82000108446570617274656401ff9400010b446570617274656447656e01ff960001055661" +
	"6c7565010a000105466f756e64010200010756657273696f6e01060001075265636f72647301ff9a00010748616e646f" +
	"66660102000104536865640102000106446967657374010a00000030ff81030101084e6f6465496e666f01ff82000103" +
	"010441646472010c000103506f7301ff8400010347656e01060000001fff8303010105506f696e7401ff840001020101" +
	"5801080001015901080000001fff87020101105b5d70726f746f2e5472616365486f7001ff880001ff86000032ff8503" +
	"0101085472616365486f7001ff86000103010441646472010c00010452756c65010c0001054e616e6f7301040000001f" +
	"ff89020101105b5d70726f746f2e4e6f6465496e666f01ff8a0001ff82000025ff8d020101165b5d70726f746f2e4e65" +
	"696768626f725265636f726401ff8e0001ff8c00002eff8b0301010e4e65696768626f725265636f726401ff8c000102" +
	"01044e6f646501ff82000102564e01ff8a00000020ff91020101115b5d70726f746f2e4261636b456e74727901ff9200" +
	"01ff90000038ff8f030101094261636b456e74727901ff9000010301064f726967696e01ff820001044c696e6b010400" +
	"010654617267657401ff8400000016ff93020101085b5d737472696e6701ff9400010c000016ff95020101085b5d7569" +
	"6e74363401ff96000106000022ff99020101135b5d70726f746f2e53746f72655265636f726401ff9a0001ff98000044" +
	"ff970301010b53746f72655265636f726401ff9800010401034b657901ff8400010556616c7565010a00010756657273" +
	"696f6e010600010744656c6574656401020000002cff80011e0101046e3030310101fed03f01fee83f00000200010001" +
	"0200000363070200000301760101010c00"

// historicalRangeForwardFrame and historicalRangeHitFrame are the two
// frames of the retired live range flood, as its last senders encoded
// them: kind bytes 13 and 14, and the forward carries purpose 3 and the
// segment-end field bit (1<<3). All three values stay reserved and Decode
// must reject any frame that uses one; the forward frame also seeds the
// fuzzer.
const (
	historicalRangeForwardFrame = "b10d9f010d31302e302e302e323a37303031d7a3703d0ad7d33f295c8fc2f528dc3f0003" +
		"9a9999999999b93f9a9999999999c93f9a9999999999e93f000000000000e83f0d31302e302e302e393a373030311f85eb51" +
		"b81eed3fb81e85eb51b8be3f004d"
	historicalRangeHitFrame = "b10e81010d31302e302e302e353a37303031cdccccccccccdc3f14ae47e17a14de3f004d"
)

// historicalDepartureFrames are the last pinned frames of the departure
// kinds whose work KindLeave does: cn_remove, leave_cn and back_withdraw
// (kind bytes 5, 10 and 12). Decode must reject each.
var historicalDepartureFrames = [...]string{
	"b105010d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f00",
	"b10a010d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f00",
	"b10c210d31302e302e302e333a37303031a4703d0ad7a3e03f3d0ad7a3703dda3f0002",
}

func gobFrame(t testing.TB) []byte { return hexFrame(t, historicalGobFrame) }

func hexFrame(t testing.TB, s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeRejectsUnknownKindsAndPurposes: the kind byte and the purpose
// varint used to be taken as they came, so a frame of kind 200, or of a
// retired range-flood kind, decoded cleanly and reached the node's
// dispatcher. Every value outside the live vocabulary is now a decode
// error, as is the reserved segment-end field bit.
func TestDecodeRejectsUnknownKindsAndPurposes(t *testing.T) {
	withKind := func(k byte) []byte {
		b := AppendEncode(nil, &Envelope{Type: KindCNAdd, From: NodeInfo{Addr: "a", Pos: geom.Pt(0.3, 0.4)}})
		b[1] = k
		return b
	}
	withPurpose := func(p RoutedPurpose) []byte {
		return AppendEncode(nil, &Envelope{Type: KindRoute, Purpose: p, Target: geom.Pt(0.5, 0.5), QueryID: 3})
	}
	// A route whose flags add bit 3 and whose body carries its 16 bytes
	// where the retired field sat, between Target and QueryID.
	segmentEnd := []byte{wireMagic, byte(KindRoute)}
	segmentEnd = binary.AppendUvarint(segmentEnd, flagTarget|1<<3|flagQueryID)
	segmentEnd = appendPoint(segmentEnd, geom.Pt(0.1, 0.2))
	segmentEnd = appendPoint(segmentEnd, geom.Pt(0.8, 0.75))
	segmentEnd = binary.AppendUvarint(segmentEnd, 77)

	cases := map[string][]byte{
		"retired range forward": hexFrame(t, historicalRangeForwardFrame),
		"retired range hit":     hexFrame(t, historicalRangeHitFrame),
		"retired kind 13":       withKind(13),
		"retired cn_remove":     hexFrame(t, historicalDepartureFrames[0]),
		"retired leave_cn":      hexFrame(t, historicalDepartureFrames[1]),
		"retired back_withdraw": hexFrame(t, historicalDepartureFrames[2]),
		"retired kind 14":       withKind(14),
		"kind past the last":    withKind(byte(KindCount)),
		"kind 200":              withKind(200),
		"kind 255":              withKind(255),
		"retired purpose 3":     withPurpose(3),
		"purpose past the last": withPurpose(PurposeStoreDelete + 1),
		"purpose 1<<40":         withPurpose(1 << 40),
		"segment-end field bit": segmentEnd,
	}
	for name, frame := range cases {
		if env, err := Decode(frame); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, env)
		}
	}
	// The same helpers with live values decode: the rejections above are
	// about the values, not the frames.
	for _, frame := range [][]byte{withKind(byte(KindSyncPull)), withPurpose(PurposeStoreDelete)} {
		if _, err := Decode(frame); err != nil {
			t.Errorf("live frame %x: %v", frame, err)
		}
	}
}

// TestDecodeRejectsGobFrame: the first byte of a frame is the format
// version; a gob stream is not a v1 frame and is refused outright.
func TestDecodeRejectsGobFrame(t *testing.T) {
	if env, err := Decode(gobFrame(t)); err == nil {
		t.Fatalf("gob frame decoded to %+v, want error", env)
	}
}

// FuzzEnvelopeRoundTrip feeds arbitrary bytes to Decode. Garbage must be
// rejected with an error (never a panic — a node drops the frame and
// stays up); anything Decode does accept must re-encode and re-decode to
// the same wire bytes, so a decoded envelope can always be forwarded
// intact.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	for _, env := range append(fuzzSeeds(), samples()...) {
		f.Add(AppendEncode(nil, env))
	}
	f.Add(gobFrame(f))
	f.Add(hexFrame(f, historicalRangeForwardFrame))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	// Hostile binary shapes: truncated frames, unterminated varints,
	// length claims far beyond the frame, unknown flag bits. The decoder
	// must reject all of them without panicking or over-allocating.
	f.Add([]byte{wireMagic})
	f.Add([]byte{wireMagic, byte(KindRoute)})
	f.Add([]byte{wireMagic, byte(KindRoute), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{wireMagic, byte(KindStoreReply), 0x80, 0x80, 0x08, 0xFF, 0xFF, 0xFF, 0x7F, 0xAA})
	f.Add([]byte{wireMagic, byte(KindJoinGrant), 0x80, 0x08, 0xFF, 0xFF, 0x03, 0x00})
	f.Add([]byte{wireMagic, byte(KindRoute), 0x80, 0x80, 0x80, 0x01})
	// A truncated and an over-long frame of every shape and every kind.
	for _, env := range append(fuzzSeeds(), samples()...) {
		b := AppendEncode(nil, env)
		f.Add(b[:len(b)/2])
		f.Add(append(append([]byte{}, b...), 0x00))
	}
	// Negative Link/Hops envelopes and peers at non-finite positions
	// encode fine but must be rejected by Decode's validation — seed the
	// fuzzer with them so mutations explore the hostile-field space.
	for _, env := range append(hostileSeeds(), nonFiniteSeeds()...) {
		f.Add(AppendEncode(nil, env))
	}
	// The retired range-flood and departure frames, whole, truncated and
	// over-long: the kind byte alone must get them refused, whatever
	// follows it.
	f.Add(hexFrame(f, historicalRangeHitFrame))
	for _, s := range []string{historicalRangeForwardFrame, historicalRangeHitFrame} {
		b := hexFrame(f, s)
		f.Add(b[:len(b)/2])
		f.Add(append(append([]byte{}, b...), 0x00))
	}
	for _, s := range historicalDepartureFrames {
		b := hexFrame(f, s)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(append(append([]byte{}, b...), 0x00))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		if err != nil {
			return // malformed input rejected cleanly: the contract holds
		}
		b1 := AppendEncode(nil, env)
		env2, err := Decode(b1)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		b2 := AppendEncode(nil, env2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode/decode is not a fixpoint:\n%x\n%x", b1, b2)
		}
	})
}

// TestDecodeRejectsNegativeFields: a Link of -1 (or any negative Link,
// Hops or BackEntry.Link) used to pass Decode and reach slice indexing in
// the node's long-link handlers, panicking it remotely. The wire layer now
// rejects such envelopes outright.
func TestDecodeRejectsNegativeFields(t *testing.T) {
	for i, env := range hostileSeeds() {
		if got, err := Decode(AppendEncode(nil, env)); err == nil {
			t.Errorf("seed %d: negative-field envelope decoded to %+v, want rejection", i, got)
		}
	}
}

func TestDecodeRejectsOversizedFrame(t *testing.T) {
	big := make([]byte, maxEnvelopeBytes+1)
	if _, err := Decode(big); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
	env, err := Decode(nil)
	if err == nil {
		t.Fatalf("empty frame decoded to %+v", env)
	}
}
