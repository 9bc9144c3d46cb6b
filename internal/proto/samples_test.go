package proto

import "voronet/internal/geom"

// samples returns one representative, realistically populated envelope
// per wire kind. The set is shared by the zero-allocation encode gate
// (TestAppendEncodeZeroAllocs), the round-trip tests and the fuzz corpus
// seeds, so all of them exercise the message shapes the live node
// actually sends.
func samples() []*Envelope {
	ni := func(addr string, x, y float64) NodeInfo {
		return NodeInfo{Addr: addr, Pos: geom.Pt(x, y)}
	}
	vn := []NodeInfo{ni("10.0.0.2:7001", 0.31, 0.44), ni("10.0.0.3:7001", 0.52, 0.41), ni("10.0.0.4:7001", 0.38, 0.58)}
	return []*Envelope{
		{Type: KindRoute, From: ni("10.0.0.1:7001", 0.20, 0.30), Purpose: PurposeQuery,
			Target: geom.Pt(0.612, 0.344), Origin: ni("10.0.0.9:7001", 0.91, 0.12),
			Hops: 4, QueryID: 831, Trace: true,
			Path: []TraceHop{
				{Addr: "10.0.0.9:7001", Rule: "long", Nanos: 10480},
				{Addr: "10.0.0.7:7001", Rule: "vn", Nanos: 2210},
			}},
		{Type: KindJoinGrant, From: ni("10.0.0.5:7001", 0.45, 0.47),
			Neighbors: vn,
			TwoHop: []NeighborRecord{
				{Node: vn[0], VN: []NodeInfo{vn[1], vn[2]}},
				{Node: vn[1], VN: []NodeInfo{vn[0]}},
			},
			CloseCand: vn[:2],
			Back:      []BackEntry{{Origin: ni("10.0.0.8:7001", 0.11, 0.83), Link: 1, Target: geom.Pt(0.46, 0.48)}},
			Departed:  []string{"10.0.0.6:7001"}, DepartedGen: []uint64{2}},
		{Type: KindSetNeighbors, From: ni("10.0.0.5:7001", 0.45, 0.47), Neighbors: vn},
		{Type: KindNeighborList, From: ni("10.0.0.2:7001", 0.31, 0.44), Neighbors: vn,
			Departed: []string{"10.0.0.6:7001"}},
		{Type: KindCNAdd, From: ni("10.0.0.3:7001", 0.52, 0.41)},
		{Type: KindCNRemove, From: ni("10.0.0.3:7001", 0.52, 0.41)},
		{Type: KindLongLinkGrant, From: ni("10.0.0.4:7001", 0.38, 0.58),
			Granter: ni("10.0.0.4:7001", 0.38, 0.58), Link: 2, Hops: 9},
		{Type: KindBackTransfer, From: ni("10.0.0.4:7001", 0.38, 0.58),
			Back: []BackEntry{
				{Origin: ni("10.0.0.8:7001", 0.11, 0.83), Link: 0, Target: geom.Pt(0.40, 0.55)},
				{Origin: ni("10.0.0.9:7001", 0.91, 0.12), Link: 3, Target: geom.Pt(0.37, 0.61)},
			}},
		{Type: KindLongLinkUpdate, From: ni("10.0.0.2:7001", 0.31, 0.44),
			Granter: ni("10.0.0.7:7001", 0.66, 0.21), Link: 1},
		{Type: KindLeave, From: ni("10.0.0.3:7001", 0.52, 0.41), Neighbors: vn[:2]},
		{Type: KindLeaveCN, From: ni("10.0.0.3:7001", 0.52, 0.41)},
		{Type: KindQueryAnswer, From: ni("10.0.0.4:7001", 0.38, 0.58), QueryID: 831, Hops: 6,
			Path: []TraceHop{{Addr: "10.0.0.4:7001", Rule: "owner", Nanos: 990}}},
		{Type: KindBackWithdraw, From: ni("10.0.0.3:7001", 0.52, 0.41), Link: 1},
		{Type: KindStoreReply, From: ni("10.0.0.5:7001", 0.45, 0.47), QueryID: 912,
			Found: true, Version: 12, Hops: 3, Value: []byte("the stored value payload")},
		{Type: KindReplicaSync, From: ni("10.0.0.5:7001", 0.45, 0.47), Handoff: true,
			Records: []StoreRecord{
				{Key: geom.Pt(0.46, 0.46), Value: []byte("replicated-record-value"), Version: 4},
				{Key: geom.Pt(0.44, 0.49), Version: 7, Deleted: true},
			}},
		{Type: KindSyncDigest, From: ni("10.0.0.5:7001", 0.45, 0.47),
			Digest: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
		{Type: KindSyncPull, From: ni("10.0.0.2:7001", 0.31, 0.44),
			Digest: []byte{9, 9, 9, 9, 9, 9, 9, 9}},
	}
}
