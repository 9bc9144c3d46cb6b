package node

import (
	"voronet/internal/metrics"
	"voronet/internal/proto"
)

// nodeMetrics caches every instrument the node's hot paths touch, so a
// message send or receive costs a few atomic ops and never a registry
// map lookup. The registry itself is always present (New builds one);
// the instruments are pointers so the struct is cheap to embed.
//
// Naming: node_* for protocol counters, store_* for the object-store
// face, with per-kind counters node_send_<kind>_total /
// node_recv_<kind>_total derived from proto.Kind.String().
type nodeMetrics struct {
	reg *metrics.Registry

	sent     *metrics.Counter // node_sent_total: every send() call (cost accounting)
	sendSelf *metrics.Counter // node_send_self_total: delivered in-process, bypassing the transport
	sendErrs *metrics.Counter // node_send_errors_total: transport refused the frame
	retries  *metrics.Counter // node_send_retries_total: second attempts by sendWithRetry

	decodeErrs *metrics.Counter // node_decode_errors_total: malformed inbound frames dropped

	sentByKind [proto.KindCount]*metrics.Counter
	recvByKind [proto.KindCount]*metrics.Counter

	// Per-kind bytes-on-wire books (node_wire_bytes_sent_<kind>_total /
	// node_wire_bytes_recv_<kind>_total): encoded frame sizes as the
	// codec produced them, so a codec or message-shape regression is
	// observable per message class, not just as an aggregate. Sent is
	// counted at encode time (self-delivered frames included — they pay
	// the encode cost), recv at decode time.
	wireSentByKind [proto.KindCount]*metrics.Counter
	wireRecvByKind [proto.KindCount]*metrics.Counter

	queryLatency  *metrics.Histogram // node_query_seconds: answered Query round trip
	queryHops     *metrics.Histogram // node_query_hops: answered greedy route length
	queryTimeouts *metrics.Counter   // node_query_timeouts_total

	storePutLatency *metrics.Histogram // store_put_seconds etc.: routed op round trip
	storeGetLatency *metrics.Histogram
	storeDelLatency *metrics.Histogram
	storePutHops    *metrics.Histogram // store_put_hops etc.: request route length
	storeGetHops    *metrics.Histogram
	storeDelHops    *metrics.Histogram
	storeTimeouts   *metrics.Counter // store_timeouts_total

	// View-surgery timings (the paper's AddVoronoiRegion /
	// RemoveVoronoiRegion executions) and BLRn maintenance volume.
	joinAdmitTime *metrics.Histogram // node_join_admit_seconds: owner-side admission
	joinGrantTime *metrics.Histogram // node_join_grant_seconds: joiner-side view install
	leaveTime     *metrics.Histogram // node_leave_seconds: graceful departure surgery
	departTime    *metrics.Histogram // node_depart_repair_seconds: crash repair surgery
	backMoves     *metrics.Counter   // node_blrn_moves_total: BLRn entries re-placed

	traced      *metrics.Counter // node_traced_routes_total: envelopes handled with Trace set
	lateAnswers *metrics.Counter // node_late_answers_total: answers for a request its deadline already reaped

	// Durability (see durable.go) and overload shedding.
	walAppends       *metrics.Counter   // wal_appends_total: records logged
	walErrs          *metrics.Counter   // wal_errors_total: append/sync/compact failures (durability degraded, availability kept)
	walFsync         *metrics.Histogram // wal_fsync_seconds: per-fsync wall time
	walReplayed      *metrics.Counter   // wal_replayed_records_total: records recovered at startup
	walCorrupt       *metrics.Counter   // wal_corrupt_frames_total: bad frames skipped by replay
	walTorn          *metrics.Counter   // wal_torn_tails_total: benign crash-truncated final frames
	walCompactions   *metrics.Counter   // wal_compactions_total
	walTombGC        *metrics.Counter   // wal_tombstones_gced_total: tombstones purged by two-phase GC
	antiEntropyBytes *metrics.Counter   // node_antientropy_bytes_total: replica-maintenance bytes sent (digest + pull + records)
	storeShed        *metrics.Counter   // store_shed_total: ops refused by admission control (origin or owner side)
}

// kindCounterNames are the per-kind counter names, built once per process:
// send, recv, wire bytes sent, wire bytes recv. A retired kind's names
// are empty.
var kindCounterNames = func() (names [4][proto.KindCount]string) {
	for k := proto.Kind(0); k < proto.KindCount; k++ {
		if k.String() == "" {
			continue
		}
		names[0][k] = "node_send_" + k.String() + "_total"
		names[1][k] = "node_recv_" + k.String() + "_total"
		names[2][k] = "node_wire_bytes_sent_" + k.String() + "_total"
		names[3][k] = "node_wire_bytes_recv_" + k.String() + "_total"
	}
	return names
}()

// nodeLayout declares every instrument of a node's registry, so that a
// node allocates its counters in one block and shares their names and
// its histograms' bounds with every other node of the process.
var nodeLayout = func() *metrics.Layout {
	counters := []string{
		"node_sent_total", "node_send_self_total", "node_send_errors_total",
		"node_send_retries_total", "node_decode_errors_total",
		"node_query_timeouts_total", "store_timeouts_total",
		"node_blrn_moves_total", "node_traced_routes_total", "node_late_answers_total",
		"wal_appends_total", "wal_errors_total", "wal_replayed_records_total",
		"wal_corrupt_frames_total", "wal_torn_tails_total", "wal_compactions_total",
		"wal_tombstones_gced_total", "node_antientropy_bytes_total", "store_shed_total",
	}
	for _, names := range kindCounterNames {
		for _, name := range names {
			if name != "" {
				counters = append(counters, name)
			}
		}
	}
	lat := metrics.LatencyBuckets()
	hops := metrics.HopBuckets()
	return metrics.NewLayout(counters, nil, map[string][]float64{
		"node_query_seconds": lat, "node_query_hops": hops,
		"store_put_seconds": lat, "store_get_seconds": lat, "store_delete_seconds": lat,
		"store_put_hops": hops, "store_get_hops": hops, "store_delete_hops": hops,
		"node_join_admit_seconds": lat, "node_join_grant_seconds": lat,
		"node_leave_seconds": lat, "node_depart_repair_seconds": lat,
		"wal_fsync_seconds": lat,
	})
}()

func newNodeMetrics() nodeMetrics {
	r := nodeLayout.NewRegistry()
	nm := nodeMetrics{
		reg:             r,
		sent:            r.Counter("node_sent_total"),
		sendSelf:        r.Counter("node_send_self_total"),
		sendErrs:        r.Counter("node_send_errors_total"),
		retries:         r.Counter("node_send_retries_total"),
		decodeErrs:      r.Counter("node_decode_errors_total"),
		queryLatency:    r.Histogram("node_query_seconds", nil),
		queryHops:       r.Histogram("node_query_hops", nil),
		queryTimeouts:   r.Counter("node_query_timeouts_total"),
		storePutLatency: r.Histogram("store_put_seconds", nil),
		storeGetLatency: r.Histogram("store_get_seconds", nil),
		storeDelLatency: r.Histogram("store_delete_seconds", nil),
		storePutHops:    r.Histogram("store_put_hops", nil),
		storeGetHops:    r.Histogram("store_get_hops", nil),
		storeDelHops:    r.Histogram("store_delete_hops", nil),
		storeTimeouts:   r.Counter("store_timeouts_total"),
		joinAdmitTime:   r.Histogram("node_join_admit_seconds", nil),
		joinGrantTime:   r.Histogram("node_join_grant_seconds", nil),
		leaveTime:       r.Histogram("node_leave_seconds", nil),
		departTime:      r.Histogram("node_depart_repair_seconds", nil),
		backMoves:       r.Counter("node_blrn_moves_total"),
		traced:          r.Counter("node_traced_routes_total"),
		lateAnswers:     r.Counter("node_late_answers_total"),

		walAppends:       r.Counter("wal_appends_total"),
		walErrs:          r.Counter("wal_errors_total"),
		walFsync:         r.Histogram("wal_fsync_seconds", nil),
		walReplayed:      r.Counter("wal_replayed_records_total"),
		walCorrupt:       r.Counter("wal_corrupt_frames_total"),
		walTorn:          r.Counter("wal_torn_tails_total"),
		walCompactions:   r.Counter("wal_compactions_total"),
		walTombGC:        r.Counter("wal_tombstones_gced_total"),
		antiEntropyBytes: r.Counter("node_antientropy_bytes_total"),
		storeShed:        r.Counter("store_shed_total"),
	}
	for k, name := range kindCounterNames[0] {
		if name == "" {
			continue // a retired kind: its slots stay nil, deliver drops it
		}
		nm.sentByKind[k] = r.Counter(name)
		nm.recvByKind[k] = r.Counter(kindCounterNames[1][k])
		nm.wireSentByKind[k] = r.Counter(kindCounterNames[2][k])
		nm.wireRecvByKind[k] = r.Counter(kindCounterNames[3][k])
	}
	return nm
}

// latencyFor / hopsFor / timeoutsFor select the per-purpose instruments
// of a routed request: queries have their own, the store ops share the
// timeout counter.
func (nm *nodeMetrics) latencyFor(p proto.RoutedPurpose) *metrics.Histogram {
	switch p {
	case proto.PurposeQuery:
		return nm.queryLatency
	case proto.PurposeStorePut:
		return nm.storePutLatency
	case proto.PurposeStoreGet:
		return nm.storeGetLatency
	default:
		return nm.storeDelLatency
	}
}

func (nm *nodeMetrics) hopsFor(p proto.RoutedPurpose) *metrics.Histogram {
	switch p {
	case proto.PurposeQuery:
		return nm.queryHops
	case proto.PurposeStorePut:
		return nm.storePutHops
	case proto.PurposeStoreGet:
		return nm.storeGetHops
	default:
		return nm.storeDelHops
	}
}

func (nm *nodeMetrics) timeoutsFor(p proto.RoutedPurpose) *metrics.Counter {
	if p == proto.PurposeQuery {
		return nm.queryTimeouts
	}
	return nm.storeTimeouts
}

// Metrics returns the node's instrument registry. It is always non-nil;
// snapshot it with Metrics().Snapshot() or merge it into a debug
// endpoint (see cmd/voronet-node's -debug-addr).
func (n *Node) Metrics() *metrics.Registry { return n.nm.reg }
