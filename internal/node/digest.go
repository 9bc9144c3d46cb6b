package node

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"voronet/internal/geom"
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

// syncTarget is one anti-entropy destination: the records this node
// would push to addr, either as replica refresh (handoff false) or as an
// ownership handoff. One address can appear twice, once per mode.
type syncTarget struct {
	addr    string
	handoff bool
	recs    []proto.StoreRecord
}

// syncTargets computes the full anti-entropy push plan, mirroring
// pushByOwner's placement exactly: records this node owns go to the
// replication closest Voronoi neighbours per key (replica refresh),
// records it merely holds go to the key's owner as a handoff. Targets
// and records keep first-seen order over the sorted record snapshot, so
// derived message sequences are deterministic.
func syncTargets(self proto.NodeInfo, vns []proto.NodeInfo, replication int, recs []proto.StoreRecord, exclude string) []syncTarget {
	type tkey struct {
		addr    string
		handoff bool
	}
	idx := make(map[tkey]int)
	var out []syncTarget
	add := func(addr string, handoff bool, rec proto.StoreRecord) {
		if addr == "" || addr == exclude {
			return
		}
		k := tkey{addr, handoff}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, syncTarget{addr: addr, handoff: handoff})
		}
		out[i].recs = append(out[i].recs, rec)
	}
	sorted := append([]proto.NodeInfo(nil), vns...)
	for _, rec := range recs {
		owner, isSelf := ownerForKey(self, vns, rec.Key)
		if !isSelf {
			add(owner.Addr, true, rec)
			continue
		}
		// Replica set: the replication closest neighbours, distance then
		// address — the same ordering replicateRecords uses, so digest
		// mode and full mode name identical destinations.
		sort.Slice(sorted, func(i, j int) bool {
			di, dj := geom.Dist2(sorted[i].Pos, rec.Key), geom.Dist2(sorted[j].Pos, rec.Key)
			if di != dj {
				return di < dj
			}
			return sorted[i].Addr < sorted[j].Addr
		})
		picked := 0
		for _, v := range sorted {
			if picked == replication {
				break
			}
			if v.Addr == exclude {
				continue
			}
			add(v.Addr, false, rec)
			picked++
		}
	}
	return out
}

// handleSyncDigest answers an anti-entropy opener: fingerprint our whole
// local holding, pull only what we lack. No reply at all when nothing is
// missing — silence is the no-diff fast path.
func (n *Node) handleSyncDigest(env *proto.Envelope) {
	n.mu.RLock()
	joined := n.joined
	n.mu.RUnlock()
	if !joined && !env.Handoff {
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
	n.mu.RLock()
	if !n.joined {
		n.mu.RUnlock()
		return
	}
	self := n.self
	vns := n.vnList()
	rep := n.cfg.Replication
	n.mu.RUnlock()
	recs := n.kv.Snapshot()
	if len(recs) == 0 {
		return
	}
	wanted := make(map[uint64]bool, len(env.Digest)/8)
	for _, fp := range unpackFPs(env.Digest) {
		wanted[fp] = true
	}
	for _, t := range syncTargets(self, vns, rep, recs, "") {
		if t.addr != env.From.Addr || t.handoff != env.Handoff {
			continue
		}
		var stream []proto.StoreRecord
		for _, rec := range t.recs {
			if wanted[recordFP(rec)] {
				stream = append(stream, rec)
			}
		}
		for _, chunk := range chunkRecords(stream) {
			// Best effort, like every anti-entropy push: a vanished
			// peer is repaired by its own departure notifications.
			_ = n.send(t.addr, &proto.Envelope{
				Type: proto.KindReplicaSync, From: self, Records: chunk, Handoff: t.handoff,
			})
		}
	}
}

// SyncReplicasProbe measures, without sending anything, what one
// anti-entropy sweep costs on the wire — the encoded bytes of the digest
// envelopes, which is all a no-diff sweep sends — against the encoded
// bytes of pushing every record instead. The harness SyncBytes step
// asserts the ratio; BENCH_chaos.json records it.
func (n *Node) SyncReplicasProbe() (digestBytes, fullBytes int) {
	n.mu.RLock()
	if !n.joined {
		n.mu.RUnlock()
		return 0, 0
	}
	self := n.self
	vns := n.vnList()
	rep := n.cfg.Replication
	n.mu.RUnlock()
	recs := n.kv.Snapshot()
	if len(recs) == 0 {
		return 0, 0
	}
	wb := proto.GetBuf()
	defer wb.Put()
	for _, t := range syncTargets(self, vns, rep, recs, "") {
		wb.B = proto.AppendEncode(wb.B[:0], &proto.Envelope{
			Type: proto.KindSyncDigest, From: self, Handoff: t.handoff,
			Digest: packFPs(recFPs(t.recs)),
		})
		digestBytes += len(wb.B)
		for _, chunk := range chunkRecords(t.recs) {
			wb.B = proto.AppendEncode(wb.B[:0], &proto.Envelope{
				Type: proto.KindReplicaSync, From: self, Records: chunk, Handoff: t.handoff,
			})
			fullBytes += len(wb.B)
		}
	}
	return digestBytes, fullBytes
}
