package node

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sort"

	"voronet/internal/proto"
)

// Digest-based anti-entropy: SyncReplicas does not push full records.
// Each target first receives a KindSyncDigest — a
// compact sorted list of 8-byte fingerprints of the records this node
// would push there — and answers with a KindSyncPull naming only the
// fingerprints it does not hold; the sender then streams full records
// (ordinary KindReplicaSync) for exactly that subset. When replicas
// already agree (the common steady state), the whole exchange is one
// small digest per target and silence back: a no-diff sweep costs an
// order of magnitude fewer bytes than pushing the records would
// (measured by SyncReplicasProbe and the harness SyncBytes step).
//
// The exchange is stateless on both sides — the pull is answered by
// recomputing placement from the current view, so a view change between
// digest and pull at worst wastes one round, never corrupts. All
// correctness still rests on the receiver's newest-wins Apply:
// duplicated, reordered or stale streams converge.

// recordFP fingerprints a record's identity: key bits, version and
// tombstone flag through 64-bit FNV-1a. The value bytes are deliberately
// not hashed — owner writes are the only version sources, so equal
// (key, version, deleted) implies equal content (the same argument that
// lets Apply keep the resident record on equal versions).
func recordFP(rec proto.StoreRecord) uint64 {
	var b [25]byte
	binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(rec.Key.X))
	binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(rec.Key.Y))
	binary.LittleEndian.PutUint64(b[16:24], rec.Version)
	if rec.Deleted {
		b[24] = 1
	}
	h := fnv.New64a()
	h.Write(b[:])
	return h.Sum64()
}

func recFPs(recs []proto.StoreRecord) []uint64 {
	fps := make([]uint64, len(recs))
	for i, rec := range recs {
		fps[i] = recordFP(rec)
	}
	return fps
}

// packFPs serialises fingerprints as sorted little-endian 8-byte words —
// one flat blob (fingerprints are uniform 64-bit values, which a varint
// would only lengthen), sorted so identical sets produce identical bytes
// (replayable transcripts).
func packFPs(fps []uint64) []byte {
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	out := make([]byte, 0, len(fps)*8)
	for _, fp := range fps {
		out = binary.LittleEndian.AppendUint64(out, fp)
	}
	return out
}

func unpackFPs(b []byte) []uint64 {
	fps := make([]uint64, 0, len(b)/8)
	for len(b) >= 8 {
		fps = append(fps, binary.LittleEndian.Uint64(b[:8]))
		b = b[8:]
	}
	return fps
}

// syncPlan places every record this node holds by its current view — the
// anti-entropy push plan, mode and destination exactly as a full push
// would choose them — and returns it with the number of records
// considered. Both are zero when the node is not joined.
func (n *Node) syncPlan() ([]pushTo, int) {
	nb := n.view.Load()
	if !nb.joined {
		return nil, 0
	}
	recs := n.kv.Snapshot()
	return placementPlan(n.self, nb.vn, n.cfg.Replication, recs, false), len(recs)
}

// handleSyncDigest answers an anti-entropy opener: fingerprint our whole
// local holding, pull only what we lack. No reply at all when nothing is
// missing — silence is the no-diff fast path.
func (n *Node) handleSyncDigest(env *proto.Envelope) {
	if !n.Joined() && !env.Handoff {
		// A plain replica refresh to a departed node is stale: drop,
		// exactly as handleReplicaSync does. A handoff digest is
		// different — our store is empty, so the pull below requests
		// everything and the records arrive as a KindReplicaSync
		// handoff, which the redelegation path re-places at a survivor.
		return
	}
	have := make(map[uint64]bool)
	for _, rec := range n.kv.Snapshot() {
		have[recordFP(rec)] = true
	}
	var missing []uint64
	for _, fp := range unpackFPs(env.Digest) {
		if !have[fp] {
			missing = append(missing, fp)
		}
	}
	if len(missing) == 0 {
		return
	}
	_ = n.send(env.From.Addr, &proto.Envelope{
		Type: proto.KindSyncPull, From: n.self, Handoff: env.Handoff,
		Digest: packFPs(missing),
	})
}

// handleSyncPull streams the records a digest receiver asked for. The
// push plan is recomputed from the current view rather than remembered:
// if the view moved between digest and pull, unmatched fingerprints are
// simply dropped and the next sweep re-offers them.
func (n *Node) handleSyncPull(env *proto.Envelope) {
	wanted := make(map[uint64]bool, len(env.Digest)/8)
	for _, fp := range unpackFPs(env.Digest) {
		wanted[fp] = true
	}
	plan, _ := n.syncPlan()
	for _, t := range plan {
		if t.addr != env.From.Addr || t.handoff != env.Handoff {
			continue
		}
		t.recs = slices.DeleteFunc(t.recs, func(rec proto.StoreRecord) bool { return !wanted[recordFP(rec)] })
		n.sendPushes([]pushTo{t})
	}
}

// SyncReplicasProbe measures, without sending anything, what one
// anti-entropy sweep costs on the wire — the encoded bytes of the digest
// envelopes, which is all a no-diff sweep sends — against the encoded
// bytes of pushing every record instead. The harness SyncBytes step
// asserts the ratio; BENCH_chaos.json records it.
func (n *Node) SyncReplicasProbe() (digestBytes, fullBytes int) {
	plan, _ := n.syncPlan()
	wb := proto.GetBuf()
	defer wb.Put()
	for _, t := range plan {
		wb.B = proto.AppendEncode(wb.B[:0], &proto.Envelope{
			Type: proto.KindSyncDigest, From: n.self, Handoff: t.handoff,
			Digest: packFPs(recFPs(t.recs)),
		})
		digestBytes += len(wb.B)
		for _, chunk := range chunkRecords(t.recs) {
			wb.B = proto.AppendEncode(wb.B[:0], &proto.Envelope{
				Type: proto.KindReplicaSync, From: n.self, Records: chunk, Handoff: t.handoff,
			})
			fullBytes += len(wb.B)
		}
	}
	return digestBytes, fullBytes
}
