package node

import (
	"voronet/internal/metrics"
	"voronet/internal/proto"
)

// nodeLayout declares every instrument of a node's registry, each once,
// below: a node allocates its counters in one block, shares their names
// and its histograms' bounds with every other node of the process, and
// reaches each one through its ID (n.reg.CounterAt(sentTotal)), never
// through a name.
//
// Naming: node_* for protocol counters, store_* for the object-store
// face, wal_* for durability, with per-kind counters
// node_send_<kind>_total / node_recv_<kind>_total derived from
// proto.Kind.String().
var nodeLayout metrics.Layout

var (
	latBuckets = metrics.LatencyBuckets()
	hopBuckets = metrics.HopBuckets()

	sentTotal         = nodeLayout.Counter("node_sent_total")          // every send() call (cost accounting)
	sendSelfTotal     = nodeLayout.Counter("node_send_self_total")     // delivered in-process, bypassing the transport
	sendErrorsTotal   = nodeLayout.Counter("node_send_errors_total")   // transport refused the frame
	sendRetriesTotal  = nodeLayout.Counter("node_send_retries_total")  // second attempts by sendWithRetry
	decodeErrorsTotal = nodeLayout.Counter("node_decode_errors_total") // malformed inbound frames dropped

	// View-surgery timings (the paper's AddVoronoiRegion /
	// RemoveVoronoiRegion executions) and BLRn maintenance volume.
	joinAdmitSeconds    = nodeLayout.Histogram("node_join_admit_seconds", latBuckets)    // owner-side admission
	joinGrantSeconds    = nodeLayout.Histogram("node_join_grant_seconds", latBuckets)    // joiner-side view install
	leaveSeconds        = nodeLayout.Histogram("node_leave_seconds", latBuckets)         // graceful departure surgery
	departRepairSeconds = nodeLayout.Histogram("node_depart_repair_seconds", latBuckets) // departure repair surgery, whatever news ran it
	blrnMovesTotal      = nodeLayout.Counter("node_blrn_moves_total")                    // BLRn entries re-placed

	tracedRoutesTotal = nodeLayout.Counter("node_traced_routes_total") // envelopes handled with Trace set
	lateAnswersTotal  = nodeLayout.Counter("node_late_answers_total")  // answers for a request its deadline already reaped

	// Durability (see durable.go) and overload shedding.
	walAppendsTotal       = nodeLayout.Counter("wal_appends_total")               // records logged
	walErrorsTotal        = nodeLayout.Counter("wal_errors_total")                // append/sync/compact failures (durability degraded, availability kept)
	walFsyncSeconds       = nodeLayout.Histogram("wal_fsync_seconds", latBuckets) // per-fsync wall time
	walReplayedTotal      = nodeLayout.Counter("wal_replayed_records_total")      // records recovered at startup
	walCorruptTotal       = nodeLayout.Counter("wal_corrupt_frames_total")        // bad frames skipped by replay
	walTornTotal          = nodeLayout.Counter("wal_torn_tails_total")            // benign crash-truncated final frames
	walCompactionsTotal   = nodeLayout.Counter("wal_compactions_total")
	walTombsGCedTotal     = nodeLayout.Counter("wal_tombstones_gced_total")    // tombstones purged by two-phase GC
	antiEntropyBytesTotal = nodeLayout.Counter("node_antientropy_bytes_total") // replica-maintenance bytes sent (digest + pull + records)
	storeShedTotal        = nodeLayout.Counter("store_shed_total")             // ops refused by admission control (origin or owner side)

	// An answered routed request's round trip and route length, and a
	// timed-out one, by purpose: queries have their own, each store op
	// its own latency and hops, and the store ops share the timeout
	// counter. Join and long-link routes are not originated by a caller
	// and have none.
	storeTimeoutsTotal = nodeLayout.Counter("store_timeouts_total")
	routedSeconds      = [...]metrics.HistogramID{
		proto.PurposeQuery:       nodeLayout.Histogram("node_query_seconds", latBuckets),
		proto.PurposeStorePut:    nodeLayout.Histogram("store_put_seconds", latBuckets),
		proto.PurposeStoreGet:    nodeLayout.Histogram("store_get_seconds", latBuckets),
		proto.PurposeStoreDelete: nodeLayout.Histogram("store_delete_seconds", latBuckets),
	}
	routedHops = [...]metrics.HistogramID{
		proto.PurposeQuery:       nodeLayout.Histogram("node_query_hops", hopBuckets),
		proto.PurposeStorePut:    nodeLayout.Histogram("store_put_hops", hopBuckets),
		proto.PurposeStoreGet:    nodeLayout.Histogram("store_get_hops", hopBuckets),
		proto.PurposeStoreDelete: nodeLayout.Histogram("store_delete_hops", hopBuckets),
	}
	routedTimeouts = [...]metrics.CounterID{
		proto.PurposeQuery:       nodeLayout.Counter("node_query_timeouts_total"),
		proto.PurposeStorePut:    storeTimeoutsTotal,
		proto.PurposeStoreGet:    storeTimeoutsTotal,
		proto.PurposeStoreDelete: storeTimeoutsTotal,
	}

	// Per-kind message counts and bytes-on-wire books
	// (node_wire_bytes_sent_<kind>_total /
	// node_wire_bytes_recv_<kind>_total): encoded frame sizes as the
	// codec produced them, so a codec or message-shape regression is
	// observable per message class, not just as an aggregate. Sent is
	// counted at encode time (self-delivered frames included — they pay
	// the encode cost), recv at decode time. A retired kind has no
	// counters: its IDs stay zero, and handle and deliver drop it before
	// it reaches one.
	sendByKind, recvByKind, wireSentByKind, wireRecvByKind = func() (send, recv, wireSent, wireRecv [proto.KindCount]metrics.CounterID) {
		for k := range proto.KindCount {
			if name := k.String(); name != "" {
				send[k] = nodeLayout.Counter("node_send_" + name + "_total")
				recv[k] = nodeLayout.Counter("node_recv_" + name + "_total")
				wireSent[k] = nodeLayout.Counter("node_wire_bytes_sent_" + name + "_total")
				wireRecv[k] = nodeLayout.Counter("node_wire_bytes_recv_" + name + "_total")
			}
		}
		return
	}()
)

// liveKind reports whether k is a kind the node counts and handles: in
// range and not retired.
func liveKind(k proto.Kind) bool {
	return k >= 0 && k < proto.KindCount && recvByKind[k] != 0
}

// Metrics returns the node's instrument registry. It is always non-nil;
// snapshot it with Metrics().Snapshot() or merge it into a debug
// endpoint (see cmd/voronet-node's -debug-addr).
func (n *Node) Metrics() *metrics.Registry { return n.reg }
