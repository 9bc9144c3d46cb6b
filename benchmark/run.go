package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// loadShape says which generators run in which phase of a workload.
type loadShape struct {
	c1         []int // the one-in-flight phase
	closed     []int // the closed phase, each with `window` in flight
	open       []int // generators that follow the open phase's schedule
	openBeside []int // generators that keep running closed-loop beside the open phase
	window     int
}

// auditResult is what the end-of-run verification found.
type auditResult struct {
	Checked       int      `json:"checked"`
	Failed        int      `json:"failed"`
	Notes         []string `json:"notes,omitempty"`        // one per failed check
	Observations  []string `json:"observations,omitempty"` // worth knowing, not failures
	ReplaySeconds float64  `json:"wal_replay_seconds,omitempty"`
	Replayed      int      `json:"wal_replayed_records,omitempty"`
	CopiesMin     int      `json:"copies_min,omitempty"` // sim-*: live copies over the audited keys
	CopiesMax     int      `json:"copies_max,omitempty"`
}

const maxAuditNotes = 8

type environment interface {
	target
	shape() loadShape
	hopsPerOp() float64 // mean route length of the GETs so far
	audit() auditResult
	close()
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // total measuring time; the phases are fixed shares of it
	trace    bool
	sc       scale
	outDir   string // where the traced pass writes its span dump
	tmpDir   string // parent of the WAL directories

	// Test hooks: sabotage a run to prove the verification notices.
	afterSetup  func(environment)
	beforeAudit func(environment)
}

// Phase lengths as shares of runConfig.seconds. Untraced: warm-up, c1,
// closed, open. Traced: warm-up, c1 (spans on), closed twice (spans off,
// then on — their difference is trace.overhead_frac), three open steps.
const (
	shareWarm   = 0.08
	shareC1     = 0.22
	shareClosed = 0.40
	shareOpen   = 0.30

	shareTracedClosed = 0.17
	shareLadder       = 0.11

	phaseSlices = 4 // interleaved slices per measured phase of the untraced pass
)

// runResult is one run's outcome: the contract's result line plus what a
// reader needs to trust it.
type runResult struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        bool               `json:"trace"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FailFrac     float64            `json:"fail_frac"`
	Metrics      map[string]float64 `json:"metrics"`
	Samples      map[string]int     `json:"samples"` // sample count behind each percentile
	HopsPerOp    float64            `json:"hops_per_op"`
	Phases       []*phaseStats      `json:"phases"`
	SetupSeconds []float64          `json:"setup_seconds"`
	Audit        auditResult        `json:"audit"`
	AuditSeconds float64            `json:"audit_seconds"`
	TraceSummary *traceSummary      `json:"trace_summary,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
	Goroutines   [2]int             `json:"goroutines_before_after"`
	WallSeconds  float64            `json:"wall_seconds"`
}

// checkNoFile refuses to start a TCP workload that would run out of
// descriptors half way. Both ends of every connection are in this
// process: each peer holds a listener, a connection in each direction to
// each neighbour, and one to every client it has answered — about 32 per
// peer at 256 peers and 8 clients.
func checkNoFile(sc scale) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("getrlimit: %w", err)
	}
	if need := uint64(sc.tcpNodes) * 40; lim.Cur < need {
		return fmt.Errorf("RLIMIT_NOFILE is %d; a TCP workload of %d peers needs %d (raise it with ulimit -n)", lim.Cur, sc.tcpNodes, need)
	}
	return nil
}

// runner is one run in progress.
type runner struct {
	cfg    runConfig
	wl     workloadSpec
	env    environment
	sh     loadShape
	rec    *traceRecorder // traced pass of a TCP workload only
	res    *runResult
	byName map[string]*phaseStats
}

func (r *runner) build() (environment, time.Duration, error) {
	if r.wl.tcp {
		return buildTCP(r.wl.name, r.cfg.sc, r.cfg.seed, r.cfg.tmpDir, r.rec)
	}
	return buildSim(r.wl.name, r.cfg.sc, r.cfg.seed, r.cfg.trace)
}

// span is a share of the run's measuring time.
func (r *runner) span(share float64) time.Duration {
	return time.Duration(share * r.cfg.seconds * float64(time.Second))
}

// phase folds one slice into the report's phase of the same name and
// returns that phase.
func (r *runner) phase(ps *phaseStats) *phaseStats {
	r.res.Attempted += ps.Attempted
	r.res.Failed += ps.Failed
	total := r.byName[ps.Name]
	if total == nil {
		total = &phaseStats{Name: ps.Name}
		r.byName[ps.Name] = total
		r.res.Phases = append(r.res.Phases, total)
	}
	total.add(ps)
	return total
}

func (r *runner) closed(name string, seed int64, gens []int, win int, share float64) *phaseStats {
	return r.phase(runClosed(name, r.env, r.cfg.seed+seed, gens, win, r.span(share)))
}

// open runs one open-loop slice, with the shape's openBeside generators
// running closed-loop beside it.
func (r *runner) open(name string, seed int64, rate, share float64) *phaseStats {
	var beside *phaseStats
	var wg sync.WaitGroup
	if len(r.sh.openBeside) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			beside = runClosed(name+".beside", r.env, r.cfg.seed+seed+50, r.sh.openBeside, r.sh.window, r.span(share))
		}()
	}
	ps := runOpen(name, r.env, r.cfg.seed+seed, r.sh.open, rate, r.span(share))
	wg.Wait()
	if beside != nil {
		r.phase(beside)
	}
	return r.phase(ps)
}

// untraced is the untraced pass: the end-to-end metrics.
func (r *runner) untraced(memMB float64) {
	// The three measured phases run as interleaved slices, so that a slow
	// stretch of the host falls on all of them and not on one figure.
	var c1, closed, open *phaseStats
	for i := int64(0); i < phaseSlices; i++ {
		c1 = r.closed("c1", 2000+i, r.sh.c1, 1, shareC1/phaseSlices)
		closed = r.closed("closed", 3000+i, r.sh.closed, r.sh.window, shareClosed/phaseSlices)
		open = r.open("open.r1", 4000+i, r.wl.rates[0], shareOpen/phaseSlices)
	}
	prim := r.wl.primary
	reads := closed.of(opGet)
	m, n := r.res.Metrics, r.res.Samples
	m["setup_s"] = medianFloat(r.res.SetupSeconds)
	m["mem_mb"] = memMB
	m["ops_per_s"] = closed.perSecond(prim...)
	m["p50_us"] = closed.typicalUS(prim...)
	m["p50_us.c1"] = c1.typicalUS(prim...)
	m["p50_us.r1"] = open.typicalUS(prim...)
	m["read_p50_us"] = quantileUS(reads, 0.50)
	n["p50_us"] = closed.count(prim...)
	n["p50_us.c1"] = c1.count(prim...)
	n["p50_us.r1"] = open.count(prim...)
	n["read_p50_us"] = len(reads)
}

// runWorkload sets the workload up, drives its phases, verifies what it
// left behind and tears it down.
func runWorkload(cfg runConfig) (*runResult, error) {
	wallStart := time.Now()
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if wl.tcp {
		if err := checkNoFile(cfg.sc); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}
	res.Goroutines[0] = runtime.NumGoroutine()
	r := &runner{cfg: cfg, wl: wl, res: res, byName: map[string]*phaseStats{}}

	repeats := cfg.sc.setupRepeats
	if cfg.trace {
		repeats = 1
		if wl.tcp {
			r.rec = newTraceRecorder()
		}
	}
	for i := 0; i < repeats; i++ {
		if r.env != nil {
			r.env.close()
			r.env = nil
			runtime.GC()
		}
		e, dur, err := r.build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.env = e
		res.SetupSeconds = append(res.SetupSeconds, dur.Seconds())
	}
	defer func() {
		if r.env != nil {
			r.env.close()
		}
	}()
	memMB := float64(heapInuse()) / (1 << 20)
	if cfg.afterSetup != nil {
		cfg.afterSetup(r.env)
	}

	r.sh = r.env.shape()
	r.closed("warmup", 1000, r.sh.closed, r.sh.window, shareWarm)
	if !cfg.trace {
		r.untraced(memMB)
	} else if err := r.traced(); err != nil {
		return nil, err
	}

	res.HopsPerOp = r.env.hopsPerOp()
	if cfg.beforeAudit != nil {
		cfg.beforeAudit(r.env)
	}
	t0 := time.Now()
	res.Audit = r.env.audit()
	res.AuditSeconds = time.Since(t0).Seconds()
	if len(res.Audit.Notes) > maxAuditNotes {
		res.Audit.Notes = append(res.Audit.Notes[:maxAuditNotes], fmt.Sprintf("… and %d more", len(res.Audit.Notes)-maxAuditNotes))
	}
	res.Attempted += res.Audit.Checked
	res.Failed += res.Audit.Failed
	if cfg.trace && res.Audit.ReplaySeconds > 0 {
		res.Metrics["wal.replay_recs_per_s"] = float64(res.Audit.Replayed) / res.Audit.ReplaySeconds
	}

	r.env.close()
	r.env = nil
	res.Goroutines[1] = settleGoroutines(res.Goroutines[0])

	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	res.WallSeconds = time.Since(wallStart).Seconds()
	return res, nil
}

// goroutineSlack is how many goroutines over the pre-workload level a
// finished workload may leave (runtime helpers come and go).
const goroutineSlack = 4

// settleGoroutines waits for the closed endpoints' read loops and timers
// to wind down and returns the goroutine count it settled at.
func settleGoroutines(before int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC() // runs the finalizers that close dropped WAL files
		n := runtime.NumGoroutine()
		if n <= before+goroutineSlack || time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}
