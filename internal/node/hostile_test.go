package node

import (
	"testing"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/transport"
)

// TestNegativeLinkEnvelopeDoesNotPanic: a KindLongLinkGrant (or Update)
// carrying Link: -1 used to crash the node with an index-out-of-range
// panic at the longNbrs slice. The frame must be dropped at decode, and —
// defence in depth — the handlers must bounds-check even an envelope that
// somehow got past the decoder.
func TestNegativeLinkEnvelopeDoesNotPanic(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Attach("victim")
	if err != nil {
		t.Fatal(err)
	}
	n := New(ep, geom.Pt(0.5, 0.5), Config{DMin: 0.05, LongLinks: 2, Seed: 1})
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	hostile := []*proto.Envelope{
		{Type: proto.KindLongLinkGrant, From: proto.NodeInfo{Addr: "evil", Pos: geom.Pt(0.1, 0.1)}, Link: -1},
		{Type: proto.KindLongLinkUpdate, From: proto.NodeInfo{Addr: "evil"}, Granter: proto.NodeInfo{Addr: "evil2"}, Link: -1},
		{Type: proto.KindLongLinkGrant, From: proto.NodeInfo{Addr: "evil"}, Link: 1 << 30},
		{Type: proto.KindRoute, Purpose: proto.PurposeQuery, Target: geom.Pt(0.2, 0.2),
			Origin: proto.NodeInfo{Addr: "evil", Pos: geom.Pt(0.1, 0.1)}, Hops: -7},
	}
	for _, env := range hostile {
		// The wire path: the encoder zigzags the negative fields onto the
		// wire as they are — the bytes a malicious peer would send —
		// Decode's validation rejects them, the frame is dropped.
		n.handle("evil", proto.AppendEncode(nil, env))
		// The defence-in-depth path: inject the decoded envelope past the
		// wire validation straight into the dispatcher; the in-handler
		// bounds checks must hold on their own.
		n.deliver(env)
	}
	bus.Drain()

	// The node survived and its long-link state is intact.
	for j, l := range n.LongNeighbors() {
		if l.Addr != n.Info().Addr {
			t.Fatalf("long link %d corrupted by hostile envelope: %+v", j, l)
		}
	}
	if !n.Joined() {
		t.Fatal("node no longer joined after hostile envelopes")
	}
}
