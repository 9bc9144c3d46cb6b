package main

import (
	"slices"
	"strings"
	"time"

	"voronet/internal/metrics"
)

// traced is the traced pass: the per-layer figures. On the TCP
// workloads the c1 phase runs with spans on and is reduced to the
// blocking path; a closed phase then runs twice on the same overlay,
// spans off and on, for the counter deltas and the tracing overhead. On
// the simulator workloads there is no wire to interpose on: the spans
// are the load generator's own timings around the Store calls. Every
// workload then walks the open-loop ladder and runs its layers' probes.
func (r *runner) traced() error {
	cfg, rec, sh, prim := r.cfg, r.rec, r.sh, r.wl.primary
	m := r.res.Metrics
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	tcp, _ := r.env.(*tcpEnv)
	sim, _ := r.env.(*simEnv)

	if rec != nil {
		rec.on.Store(true)
	}
	c1 := r.closed("c1", 2000, sh.c1, 1, shareC1)
	if tcp != nil {
		rec.on.Store(false)
		time.Sleep(20 * time.Millisecond) // replica pushes of the last PUT land
		spans, roots := rec.drain(), tcp.takeRoots()
		sum := summarise(roots, spans)
		r.res.TraceSummary = &sum
		path, err := writeTrace(cfg.outDir, cfg.workload, roots, spans)
		if err != nil {
			return err
		}
		r.res.TraceFile = path
		m["client.overhead_us"] = sum.ClientOverhead
		m["node.handle_us"] = sum.HandleUS
		m["transport.send_us"] = sum.SendUS
		m["transport.wire_us"] = sum.WireUS
		m["trace.coverage"] = sum.Coverage
	}
	if sim != nil && sim.churn {
		joins := c1.of(opJoin)
		m["core.join_us"] = quantileUS(joins, 0.50)
		m["core.remove_us"] = quantileUS(c1.of(opRemove), 0.50)
		slow := 0
		for _, ns := range joins {
			if float64(ns)/1e3 > 10*m["core.join_us"] {
				slow++
			}
		}
		if len(joins) > 0 {
			m["core.join_slow_frac"] = float64(slow) / float64(len(joins))
		}
		r.res.Samples["core.join_us"] = len(joins)
	}

	var b0, b1 metrics.Snapshot
	var w0, w1 int64
	if tcp != nil {
		b0, w0 = tcp.books(), tcp.walBytes()
	}
	plain := r.closed("closed", 3000, sh.closed, sh.window, shareTracedClosed)
	tail := plain.of(prim...)
	m["loadgen.p99_us"] = quantileUS(tail, 0.99)
	m["loadgen.read_ops_per_s"] = plain.perSecond(opGet)
	r.res.Samples["loadgen.p99_us"] = len(tail)
	if tcp != nil {
		b1, w1 = tcp.books(), tcp.walBytes()
		rec.on.Store(true)
		traced := r.closed("closed.traced", 3500, sh.closed, sh.window, shareTracedClosed)
		rec.on.Store(false)
		time.Sleep(20 * time.Millisecond)
		rec.drain()
		tcp.takeRoots()
		if base := plain.perSecond(prim...); base > 0 {
			m["trace.overhead_frac"] = (base - traced.perSecond(prim...)) / base
		}
		tcpCounters(tcp, plain, b0, b1, w1-w0, m)
	}

	// The open-loop ladder, spans off.
	for i, rate := range r.wl.rates {
		name := []string{"open.r1", "open.r2", "open.r3"}[i]
		ps := r.open(name, 4000+int64(i), rate, shareLadder)
		lat := ps.of(prim...)
		p50, p99 := ps.typicalUS(prim...), quantileUS(lat, 0.99)
		switch i {
		case 0:
			late := slices.Clone(ps.late)
			slices.Sort(late)
			m["loadgen.late_p99_us"] = quantileUS(late, 0.99)
			m["loadgen.p99_us.r1"] = p99
		case 1:
			m["loadgen.p50_us.r2"], m["loadgen.p99_us.r2"] = p50, p99
		case 2:
			m["loadgen.p50_us.r3"], m["loadgen.p99_us.r3"] = p50, p99
		}
		r.res.Samples["loadgen."+name] = len(lat)
		// The last completion trails the last issue by about one latency;
		// without that allowance a healthy short step reads as behind.
		elapsed := ps.Seconds - p50/1e6
		achieved := float64(len(lat)) / elapsed
		if ps.Failed == 0 && p99 <= r.wl.limitP99 && achieved >= 0.99*rate && rate > m["loadgen.max_rate_ok"] {
			m["loadgen.max_rate_ok"] = rate
		}
	}

	if tcp != nil {
		m["node.hops_per_op"] = tcp.hopsPerOp()
		m["node.join_ms"] = meanOf(tcp.joinNS) / 1e6
		m["client.retries"] = float64(tcp.retries())
		final := tcp.books()
		m["node.timeouts"] = float64(final.Counters["store_timeouts_total"] + final.Counters["node_query_timeouts_total"])
		m["transport.send_errors"] = float64(final.Counters["tcp_send_errors_total"])
		return tcpProbes(cfg, tcp, rec, m)
	}
	m["core.hops_per_op"] = sim.hopsPerOp()
	m["core.bulkload_objs_per_s"] = ratio(float64(cfg.sc.simObjects), sim.buildSeconds)
	m["core.bytes_per_object"] = sim.bytesPerObject
	return simProbes(cfg, sim, m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tcpCounters turns the program's own books, as deltas across the
// untraced closed phase, into per-operation figures.
func tcpCounters(e *tcpEnv, ps *phaseStats, b0, b1 metrics.Snapshot, walGrowth int64, m map[string]float64) {
	delta := func(name string) float64 { return float64(b1.Counters[name] - b0.Counters[name]) }
	histMeanUS := func(name string) float64 {
		h0, h1 := b0.Histograms[name], b1.Histograms[name]
		return ratio((h1.Sum-h0.Sum)*1e6, float64(h1.Count-h0.Count))
	}
	ops := float64(ps.count(opGet, opPut))
	puts := float64(len(ps.lat[opPut]))
	var wire float64
	for name := range b1.Counters {
		if strings.HasPrefix(name, "node_wire_bytes_sent_") {
			wire += delta(name)
		}
	}
	m["node.msgs_per_op"] = ratio(delta("node_sent_total"), ops)
	m["node.wire_bytes_per_op"] = ratio(wire, ops)
	m["node.replica_msgs_per_put"] = ratio(delta("node_send_replica_sync_total"), puts)
	m["transport.frames_per_op"] = ratio(delta("tcp_frames_out_total"), ops)
	m["transport.bytes_per_op"] = ratio(delta("tcp_bytes_out_total"), ops)
	m["transport.dials"] = delta("tcp_dials_total")
	m["transport.dispatch_wait_us"] = histMeanUS("tcp_dispatch_wait_seconds")
	if e.durable {
		m["wal.fsync_us"] = histMeanUS("wal_fsync_seconds")
		m["wal.appends_per_put"] = ratio(delta("wal_appends_total"), puts)
		m["wal.bytes_per_user_byte"] = ratio(float64(walGrowth), puts*float64(e.ks.size))
	}
}
