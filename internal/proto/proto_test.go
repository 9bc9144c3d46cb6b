package proto

import (
	"reflect"
	"testing"

	"voronet/internal/geom"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &Envelope{
		Type:    KindRoute,
		From:    NodeInfo{Addr: "a:1", Pos: geom.Pt(0.25, 0.75)},
		Purpose: PurposeLongLink,
		Target:  geom.Pt(0.5, 0.5),
		Origin:  NodeInfo{Addr: "b:2", Pos: geom.Pt(0.1, 0.9)},
		Link:    3,
		Hops:    17,
		QueryID: 99,
		Neighbors: []NodeInfo{
			{Addr: "c:3", Pos: geom.Pt(0, 0)},
			{Addr: "d:4", Pos: geom.Pt(1, 1)},
		},
		TwoHop: []NeighborRecord{
			{Node: NodeInfo{Addr: "c:3"}, VN: []NodeInfo{{Addr: "d:4"}}},
		},
		CloseCand: []NodeInfo{{Addr: "e:5", Pos: geom.Pt(0.3, 0.3)}},
		Back: []BackEntry{
			{Origin: NodeInfo{Addr: "f:6"}, Link: 1, Target: geom.Pt(0.7, 0.2)},
		},
		Granter:  NodeInfo{Addr: "g:7"},
		Departed: []string{"x:1", "y:2"},
		Value:    []byte("payload"),
		Found:    true,
		Version:  12,
		Records: []StoreRecord{
			{Key: geom.Pt(0.4, 0.6), Value: []byte("v1"), Version: 2},
			{Key: geom.Pt(0.9, 0.1), Version: 5, Deleted: true},
		},
		Handoff: true,
	}
	out, err := Decode(AppendEncode(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a frame")); err == nil {
		t.Fatal("garbage must not decode")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty must not decode")
	}
}

func TestEmptyEnvelope(t *testing.T) {
	out, err := Decode(AppendEncode(nil, &Envelope{Type: KindLeave}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != KindLeave || len(out.Neighbors) != 0 {
		t.Fatalf("got %+v", out)
	}
}
