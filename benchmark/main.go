// Command benchmark is the repository's one benchmark: four workloads,
// the metrics a client of the system observes, and a per-layer trace taken
// from outside the program. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload tcp-get --seed 1 --seconds 16 --trace 0
//	go -C benchmark run . -seed 1 -out results/x.json          # every workload, both passes
//	go -C benchmark run . -compare results/seed-a.json results/seed-b.json
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: all or one of tcp-get, tcp-put-durable, sim-store-300k, sim-churn")
		seed     = flag.Int64("seed", 1, "workload seed: positions, keys and the operation stream derive from it")
		seconds  = flag.Float64("seconds", 16, "measuring time per run; the phases are fixed shares of it")
		trace    = flag.String("trace", "both", "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); both")
		runs     = flag.Int("runs", 1, "untraced runs per workload (a run-set reports their median through -compare)")
		out      = flag.String("out", "", "write the stamped report (JSON) here")
		outDir   = flag.String("outdir", defaultOutDir(), "directory for the traced pass's span dumps")
		cmp      = flag.Bool("compare", false, "compare two reports: -compare BASELINE.json OTHER.json; exit 1 beyond a bound")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compare(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}

	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("-workload %q: no such workload", *workload))
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}

	rep := &report{Schema: reportSchema, Stamp: newStamp(*seed, *seconds)}
	fmt.Printf("voronet benchmark  git %s  %s  %s  nproc %d  gomaxprocs %d  %s  wal flush %s\n",
		rep.Stamp.GitSHA, rep.Stamp.Go, rep.Stamp.OSArch, rep.Stamp.NProc, rep.Stamp.GoMaxProcs, rep.Stamp.Network, rep.Stamp.WALFlush)
	ok := true
	for _, name := range names {
		for _, traced := range passes {
			n := *runs
			if traced {
				n = 1
			}
			for i := 0; i < n; i++ {
				res, err := runWorkload(runConfig{
					workload: name, seed: *seed, seconds: *seconds, trace: traced,
					sc: fullScale, outDir: *outDir, tmpDir: os.TempDir(),
				})
				if err != nil {
					fatal(fmt.Errorf("%s: %w", name, err))
				}
				rep.Runs = append(rep.Runs, res)
				printRun(os.Stdout, res)
				// A workload that leaves goroutines behind would be measured
				// into the next one.
				leaked := res.Goroutines[1] > res.Goroutines[0]+goroutineSlack
				ok = ok && res.Correct && !leaked
			}
		}
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fatal(err)
		}
	}
	if len(rep.Runs) == 1 {
		fmt.Println(resultLine(rep.Runs[0]))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: a run failed verification")
		os.Exit(1)
	}
}

// defaultOutDir puts span dumps under the benchmark's own directory
// whether the command runs from the repository root or from benchmark/.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
