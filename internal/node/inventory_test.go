package node

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/metrics"
	"voronet/internal/transport"
)

// The instrument inventory, as literals: what benchmark/, the chaos
// harness and an operator's /metrics read. A change to the registry's
// layout may not drop, rename or hide one of these.
var (
	latencyBounds = []float64{1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10}
	hopBounds     = []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 24, 32, 48, 64, 128}

	nodeCounters = []string{
		"node_antientropy_bytes_total", "node_blrn_moves_total", "node_decode_errors_total",
		"node_late_answers_total", "node_query_timeouts_total", "node_recv_back_transfer_total",
		"node_recv_cn_add_total", "node_recv_join_grant_total", "node_recv_leave_total",
		"node_recv_long_link_grant_total", "node_recv_long_link_update_total",
		"node_recv_neighbor_list_total", "node_recv_query_answer_total", "node_recv_replica_sync_total",
		"node_recv_route_total", "node_recv_set_neighbors_total", "node_recv_store_reply_total",
		"node_recv_sync_digest_total", "node_recv_sync_pull_total", "node_send_back_transfer_total",
		"node_send_cn_add_total", "node_send_errors_total", "node_send_join_grant_total",
		"node_send_leave_total", "node_send_long_link_grant_total", "node_send_long_link_update_total",
		"node_send_neighbor_list_total", "node_send_query_answer_total", "node_send_replica_sync_total",
		"node_send_retries_total", "node_send_route_total", "node_send_self_total",
		"node_send_set_neighbors_total", "node_send_store_reply_total", "node_send_sync_digest_total",
		"node_send_sync_pull_total", "node_sent_total", "node_traced_routes_total",
		"node_wire_bytes_recv_back_transfer_total", "node_wire_bytes_recv_cn_add_total",
		"node_wire_bytes_recv_join_grant_total", "node_wire_bytes_recv_leave_total",
		"node_wire_bytes_recv_long_link_grant_total", "node_wire_bytes_recv_long_link_update_total",
		"node_wire_bytes_recv_neighbor_list_total", "node_wire_bytes_recv_query_answer_total",
		"node_wire_bytes_recv_replica_sync_total", "node_wire_bytes_recv_route_total",
		"node_wire_bytes_recv_set_neighbors_total", "node_wire_bytes_recv_store_reply_total",
		"node_wire_bytes_recv_sync_digest_total", "node_wire_bytes_recv_sync_pull_total",
		"node_wire_bytes_sent_back_transfer_total", "node_wire_bytes_sent_cn_add_total",
		"node_wire_bytes_sent_join_grant_total", "node_wire_bytes_sent_leave_total",
		"node_wire_bytes_sent_long_link_grant_total", "node_wire_bytes_sent_long_link_update_total",
		"node_wire_bytes_sent_neighbor_list_total", "node_wire_bytes_sent_query_answer_total",
		"node_wire_bytes_sent_replica_sync_total", "node_wire_bytes_sent_route_total",
		"node_wire_bytes_sent_set_neighbors_total", "node_wire_bytes_sent_store_reply_total",
		"node_wire_bytes_sent_sync_digest_total", "node_wire_bytes_sent_sync_pull_total",
		"store_shed_total", "store_timeouts_total",
		"wal_appends_total", "wal_compactions_total", "wal_corrupt_frames_total", "wal_errors_total",
		"wal_replayed_records_total", "wal_tombstones_gced_total", "wal_torn_tails_total",
	}
	nodeHistograms = map[string][]float64{
		"node_depart_repair_seconds": latencyBounds,
		"node_join_admit_seconds":    latencyBounds,
		"node_join_grant_seconds":    latencyBounds,
		"node_leave_seconds":         latencyBounds,
		"node_query_hops":            hopBounds,
		"node_query_seconds":         latencyBounds,
		"store_delete_hops":          hopBounds,
		"store_delete_seconds":       latencyBounds,
		"store_get_hops":             hopBounds,
		"store_get_seconds":          latencyBounds,
		"store_put_hops":             hopBounds,
		"store_put_seconds":          latencyBounds,
		"wal_fsync_seconds":          latencyBounds,
	}

	tcpCounters = []string{
		"tcp_accepts_total", "tcp_bytes_in_total", "tcp_bytes_out_total", "tcp_conn_refresh_total",
		"tcp_dials_total", "tcp_frames_in_total", "tcp_frames_out_total", "tcp_send_errors_total",
	}
	tcpGauges     = []string{"tcp_inflight_dispatches", "tcp_open_conns", "tcp_read_bufs_held"}
	tcpHistograms = map[string][]float64{"tcp_dispatch_wait_seconds": latencyBounds}
)

// checkInventory requires s to hold exactly the named instruments, all at
// zero; a histogram that never observed still lists every bucket.
func checkInventory(t *testing.T, what string, s metrics.Snapshot, counters, gauges []string, hists map[string][]float64) {
	t.Helper()
	if got := slices.Sorted(maps.Keys(s.Counters)); !slices.Equal(got, counters) {
		t.Errorf("%s counters:\n got %q\nwant %q", what, got, counters)
	}
	if got := slices.Sorted(maps.Keys(s.Gauges)); !slices.Equal(got, gauges) {
		t.Errorf("%s gauges:\n got %q\nwant %q", what, got, gauges)
	}
	if got, want := slices.Sorted(maps.Keys(s.Histograms)), slices.Sorted(maps.Keys(hists)); !slices.Equal(got, want) {
		t.Errorf("%s histograms:\n got %q\nwant %q", what, got, want)
	}
	for name, v := range s.Counters {
		if v != 0 {
			t.Errorf("%s: counter %s = %d on a fresh registry", what, name, v)
		}
	}
	for name, v := range s.Gauges {
		if v != 0 {
			t.Errorf("%s: gauge %s = %d on a fresh registry", what, name, v)
		}
	}
	for name, h := range s.Histograms {
		if want, ok := hists[name]; ok && !reflect.DeepEqual(h.Bounds, want) {
			t.Errorf("%s: histogram %s bounds = %v, want %v", what, name, h.Bounds, want)
		}
		if h.Count != 0 || h.Sum != 0 || len(h.Buckets) != len(h.Bounds)+1 || slices.ContainsFunc(h.Buckets, func(b uint64) bool { return b != 0 }) {
			t.Errorf("%s: histogram %s on a fresh registry = %+v, want %d zero buckets", what, name, h, len(h.Bounds)+1)
		}
	}
}

// TestInstrumentInventory pins the names, bounds and zero values of a
// fresh node's, a fresh durable node's and a fresh TCP endpoint's
// registry.
func TestInstrumentInventory(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	nd := New(ep, geom.Pt(0.5, 0.5), Config{})
	checkInventory(t, "node.New", nd.Metrics().Snapshot(), nodeCounters, nil, nodeHistograms)

	ep, err = bus.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	dn, _, err := NewDurable(ep, geom.Pt(0.5, 0.5), Config{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	checkInventory(t, "NewDurable", dn.Metrics().Snapshot(), nodeCounters, nil, nodeHistograms)
	dn.Shutdown()

	tep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tep.Close()
	checkInventory(t, "transport.ListenTCP", tep.Metrics().Snapshot(), tcpCounters, tcpGauges, tcpHistograms)
}
