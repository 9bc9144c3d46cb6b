package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// opKind classifies an operation for the per-kind latency books.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opJoin
	opRemove
	opKinds
)

func (k opKind) String() string {
	return [...]string{"get", "put", "join", "remove"}[k]
}

// target is a workload as the load generator sees it. issue starts the
// next operation of generator g, drawing it from rng, and calls done
// exactly once — inline for the synchronous simulator, from a transport
// goroutine over TCP. Only generator g's goroutine calls issue(g, …).
type target interface {
	issue(g int, rng *rand.Rand, done func(kind opKind, ok bool))
}

// phaseStats is what one measured phase produced. A phase may be run in
// several slices spread over the run (see runWorkload); add folds a slice
// into the phase's total.
type phaseStats struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`   // first issue to last completion, summed over slices
	Attempted int     `json:"attempted"` // operations issued
	Failed    int     `json:"failed"`    // errors, timeouts, wrong or stale values
	Offered   float64 `json:"offered_per_s,omitempty"`

	lat     [opKinds][]int64 // latency of successful operations, ns
	late    []int64          // open loop: how long after its due time each operation was issued, ns
	windows [][opKinds]int   // successful completions per rateWindow, whole windows only
}

// rateWindow is the slice of time throughput is counted over: a phase's
// rate is the median over its windows, so that one stall (a collector
// cycle, a neighbour on the host) moves one window and not the figure.
const rateWindow = 200 * time.Millisecond

func (ps *phaseStats) add(o *phaseStats) {
	ps.Seconds += o.Seconds
	ps.Attempted += o.Attempted
	ps.Failed += o.Failed
	ps.Offered = o.Offered
	for k := range ps.lat {
		ps.lat[k] = append(ps.lat[k], o.lat[k]...)
	}
	ps.late = append(ps.late, o.late...)
	ps.windows = append(ps.windows, o.windows...)
}

// recorder collects one generator's completions; done callbacks may run on
// several transport goroutines at once.
type recorder struct {
	mu        sync.Mutex
	lat       [opKinds][]int64
	at        [opKinds][]time.Time // completion instants, index-aligned with lat
	late      []int64
	attempted int
	failed    int
	last      time.Time
}

func (r *recorder) done(kind opKind, ok bool, lat time.Duration, now time.Time) {
	r.mu.Lock()
	if ok {
		r.lat[kind] = append(r.lat[kind], int64(lat))
		r.at[kind] = append(r.at[kind], now)
	} else {
		r.failed++
	}
	if now.After(r.last) {
		r.last = now
	}
	r.mu.Unlock()
}

// mergeRecorders folds the generators' books into one slice of a phase
// that was scheduled to run for dur from start.
func mergeRecorders(name string, start time.Time, dur time.Duration, recs []*recorder) *phaseStats {
	ps := &phaseStats{Name: name, windows: make([][opKinds]int, int(dur/rateWindow))}
	end := start
	for _, r := range recs {
		r.mu.Lock()
		for k := range r.lat {
			ps.lat[k] = append(ps.lat[k], r.lat[k]...)
			for _, t := range r.at[k] {
				if w := int(t.Sub(start) / rateWindow); w < len(ps.windows) {
					ps.windows[w][k]++
				}
			}
		}
		ps.late = append(ps.late, r.late...)
		ps.Attempted += r.attempted
		ps.Failed += r.failed
		if r.last.After(end) {
			end = r.last
		}
		r.mu.Unlock()
	}
	ps.Seconds = end.Sub(start).Seconds()
	return ps
}

// runClosed drives gens closed-loop for dur: each generator keeps up to
// win operations in flight and issues the next only when one completes.
func runClosed(name string, t target, seed int64, gens []int, win int, dur time.Duration) *phaseStats {
	recs := make([]*recorder, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, g := range gens {
		rec := &recorder{}
		recs[i] = rec
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			slots := make(chan struct{}, win) // one token per operation in flight
			for time.Now().Before(deadline) {
				slots <- struct{}{}
				rec.attempted++ // only this goroutine issues; done() reads it after wg.Wait
				t0 := time.Now()
				t.issue(g, rng, func(kind opKind, ok bool) {
					now := time.Now()
					rec.done(kind, ok, now.Sub(t0), now)
					<-slots
				})
			}
			for i := 0; i < win; i++ { // wait for the tail
				slots <- struct{}{}
			}
		}(g)
	}
	wg.Wait()
	return mergeRecorders(name, start, dur, recs)
}

// runOpen drives gens open-loop for dur at rate operations per second in
// total: generator i of n issues operation j at start + (j·n + i)/rate
// whether or not earlier ones have completed, and each operation is timed
// from that due instant, so a stall is charged to every request it delays.
func runOpen(name string, t target, seed int64, gens []int, rate float64, dur time.Duration) *phaseStats {
	recs := make([]*recorder, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	step := time.Duration(float64(time.Second) / rate)
	total := int(rate * dur.Seconds())
	for i, g := range gens {
		rec := &recorder{}
		recs[i] = rec
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			var pending sync.WaitGroup
			for j := i; j < total; j += len(gens) {
				due := start.Add(time.Duration(j) * step)
				waitUntil(due)
				rec.attempted++
				rec.late = append(rec.late, int64(time.Since(due)))
				pending.Add(1)
				t.issue(g, rng, func(kind opKind, ok bool) {
					now := time.Now()
					rec.done(kind, ok, now.Sub(due), now)
					pending.Done()
				})
			}
			pending.Wait()
		}(i, g)
	}
	wg.Wait()
	ps := mergeRecorders(name, start, dur, recs)
	ps.Offered = rate
	return ps
}

// waitUntil sleeps to just short of due, then yields until it passes: a
// bare Sleep overshoots by tens of microseconds, a bare spin would take a
// core from the system under test.
func waitUntil(due time.Time) {
	if d := time.Until(due); d > 200*time.Microsecond {
		time.Sleep(d - 100*time.Microsecond)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// of returns the successful latencies of the given kinds, sorted.
func (ps *phaseStats) of(kinds ...opKind) []int64 {
	var out []int64
	for _, k := range kinds {
		out = append(out, ps.lat[k]...)
	}
	slices.Sort(out)
	return out
}

// typicalUS is the phase's typical latency over the given kinds: each
// kind's median, weighted by the kind's share of the operations. For one
// kind it is the median. For a mix it is steadier than the pooled median,
// which sits in the gap between a fast kind and a slow one (a GET and a
// PUT with one operation in flight, a remove and a join) and jumps across
// it when the shares move by a fraction of a percent.
func (ps *phaseStats) typicalUS(kinds ...opKind) float64 {
	var sum, n float64
	for _, k := range kinds {
		sum += float64(ps.count(k)) * quantileUS(ps.of(k), 0.50)
		n += float64(ps.count(k))
	}
	return ratio(sum, n)
}

// count is how many operations of the given kinds succeeded.
func (ps *phaseStats) count(kinds ...opKind) int {
	n := 0
	for _, k := range kinds {
		n += len(ps.lat[k])
	}
	return n
}

// perSecond is the rate at which operations of the given kinds
// completed: the median over the phase's windows, or the plain quotient
// for a phase too short to hold one.
func (ps *phaseStats) perSecond(kinds ...opKind) float64 {
	if len(ps.windows) == 0 {
		return ratio(float64(ps.count(kinds...)), ps.Seconds)
	}
	rates := make([]float64, len(ps.windows))
	for i, w := range ps.windows {
		for _, k := range kinds {
			rates[i] += float64(w[k])
		}
		rates[i] /= rateWindow.Seconds()
	}
	return medianFloat(rates)
}

// hopBook accumulates the route lengths the GETs report.
type hopBook struct{ sum, n atomic.Int64 }

func (h *hopBook) add(hops int) {
	h.sum.Add(int64(hops))
	h.n.Add(1)
}

func (h *hopBook) mean() float64 { return ratio(float64(h.sum.Load()), float64(h.n.Load())) }

// quantile of an ascending slice, by linear interpolation; ns in, µs out.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1]) / 1e3
	}
	frac := pos - float64(lo)
	return (float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac) / 1e3
}

func meanOf(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
