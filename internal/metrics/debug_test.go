package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// TestDebugServer boots the live endpoint and smoke-checks /metrics,
// /healthz and the pprof index — the same surface CI curls against a
// running voronet-node.
func TestDebugServer(t *testing.T) {
	r1 := NewRegistry()
	r2 := testLayout.NewRegistry()
	r1.Counter("node_sent_total").Add(5)
	r2.Counter("node_sent_total").Add(2)
	r2.GaugeAt(gOne).add(3)
	r1.Histogram("store_get_hops", HopBuckets()).Observe(4)

	srv, err := ServeDebug("127.0.0.1:0", r1.Snapshot, r2.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not valid JSON: %v\n%s", err, body)
	}
	if snap.Counters["node_sent_total"] != 7 {
		t.Fatalf("merged counter = %d, want 7", snap.Counters["node_sent_total"])
	}
	if snap.Gauges["g_one"] != 3 {
		t.Fatalf("gauge = %d, want 3", snap.Gauges["g_one"])
	}
	if snap.Histograms["store_get_hops"].Count != 1 {
		t.Fatalf("histogram missing from /metrics: %+v", snap.Histograms)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	code, body = get("/debug/pprof/")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/ status %d len %d", code, len(body))
	}
}
