package node

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/transport"
)

// skipUnderRace skips a test whose allocation counts or heap sizes the
// race detector's instrumentation would void.
func skipUnderRace(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts and heap sizes are not meaningful under -race")
			}
		}
	}
}

// liveHeap is the heap in use after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pcgSink keeps TestPeerHeapBudget's sources on the heap.
var pcgSink []rand.PCG

// peerBudget is the most heap one simnet peer may hold at N = 1 024, and
// nodeValueBudget the most its Node value may take of it.
const (
	peerBudget      = 9 << 10
	nodeValueBudget = 256
)

// TestPeerHeapBudget is the per-peer byte budget by layer. It builds 1 024
// simnet peers by sequential Join, measures the live heap they hold, and
// then takes each layer away from every peer in turn and measures what
// that frees: every row is a measured difference of HeapAlloc, never a
// size estimate. The RNG lives inside the Node value and cannot be taken
// away, so its row is measured by allocating as many of the node's
// sources. The residual is the total minus the rows: the Node values, the
// bus endpoints and the harness's own slices. Strings a layer shares with
// a later one are freed, and booked, by the later one: the interned
// addresses the views point at fall to the intern row.
func TestPeerHeapBudget(t *testing.T) {
	skipUnderRace(t)
	const n = 1024
	before := liveHeap()
	c := newCluster(t, n, 0.5/n, 5)
	total := float64(liveHeap()-before) / n

	var rows []float64
	var names []string
	drop := func(name string, f func(*Node)) {
		h := liveHeap()
		for _, nd := range c.nodes {
			f(nd)
		}
		rows = append(rows, float64(h-liveHeap())/n)
		names = append(names, name)
	}
	drop("instruments", func(nd *Node) { nd.reg = nil })
	drop("store and request table", func(nd *Node) { nd.kv, nd.inflight = nil, nil })
	drop("view and two-hop lists", func(nd *Node) { nd.view.Store(nil) })
	drop("intern table", func(nd *Node) { nd.names = proto.Intern{} })

	h := liveHeap()
	pcgSink = make([]rand.PCG, n)
	rows = append(rows, float64(liveHeap()-h)/n)
	names = append(names, "RNG (inside Node)")
	pcgSink = nil
	runtime.KeepAlive(c)

	residual := total
	for _, r := range rows {
		residual -= r
	}
	rows = append(rows, residual)
	names = append(names, "residual (Node, endpoint, harness)")
	for i, r := range rows {
		t.Logf("%-36s %8.0f B  %5.1f %%", names[i], r, 100*r/total)
	}
	var nd Node
	t.Logf("%-36s %8d B  (in the residual, budget %d B)", "Node value", unsafe.Sizeof(nd), nodeValueBudget)
	t.Logf("%-36s %8.0f B  (%.1f KiB, budget %.1f KiB)", "total per peer", total, total/1024, peerBudget/1024.0)
	if unsafe.Sizeof(nd) > nodeValueBudget {
		t.Errorf("a Node value takes %d B, budget %d B", unsafe.Sizeof(nd), nodeValueBudget)
	}
	if total > peerBudget {
		t.Fatalf("a simnet peer holds %.1f KiB of heap at N = %d, budget %.1f KiB", total/1024, n, peerBudget/1024.0)
	}
}

// maxNewAllocs bounds the allocations of one node.New.
const maxNewAllocs = 16

// TestNewAllocs counts what building one node allocates: its registry,
// store, request table, view and handler. The count repeats exactly.
func TestNewAllocs(t *testing.T) {
	skipUnderRace(t)
	const runs = 50
	bus := transport.NewBus()
	eps := make([]transport.Endpoint, runs+1)
	for i := range eps {
		ep, err := bus.Attach(fmt.Sprintf("n%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		New(eps[next], geom.Pt(0.5, 0.5), Config{DMin: 1e-3, Seed: int64(next)})
		next++
	})
	t.Logf("node.New: %.0f allocations", allocs)
	if allocs > maxNewAllocs {
		t.Fatalf("node.New makes %.0f allocations, budget %d", allocs, maxNewAllocs)
	}
}
