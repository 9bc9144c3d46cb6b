package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// seedOffset lets CI run the whole battery under shifted seeds
// (CHAOS_SEED=n): the invariants must hold for any seed, not just the
// committed baselines.
func seedOffset(t testing.TB) int64 {
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", v, err)
	}
	return n
}

// writeTranscript saves a run's transcript when CHAOS_TRANSCRIPT_DIR is
// set (CI uploads the directory on failure).
func writeTranscript(t testing.TB, name string, seed int64, transcript []byte) {
	dir := os.Getenv("CHAOS_TRANSCRIPT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("transcript dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.txt", name, seed))
	if err := os.WriteFile(path, transcript, 0o644); err != nil {
		t.Logf("transcript write: %v", err)
	}
}

// TestScenarios runs the whole chaos battery; every scenario must pass
// all of its checks.
func TestScenarios(t *testing.T) {
	off := seedOffset(t)
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			s.Seed += off
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			writeTranscript(t, s.Name, s.Seed, res.Transcript)
			t.Logf("%s: ops=%d lost=%d delivered=%d dropped=%d vt=%d checks=%d",
				s.Name, res.Ops, res.OpsLost, res.Delivered, res.Dropped, res.VirtualTime, len(res.Checks))
			if !res.Passed {
				for _, f := range res.Failures {
					t.Errorf("%s: %s", s.Name, f)
				}
			}
		})
	}
}

// TestTranscriptDeterminism runs scenarios twice with the same seed and
// requires byte-identical transcripts — the property that makes every
// chaos failure replayable. partition-heal and straggler cover the RNG-
// and reordering-heavy paths; churn-storm covers crash repair.
func TestTranscriptDeterminism(t *testing.T) {
	off := seedOffset(t)
	for _, name := range []string{"partition-heal", "straggler", "churn-storm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			s := ByName(name)
			if s == nil {
				t.Fatalf("scenario %q not registered", name)
			}
			s.Seed += off
			r1, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			r2, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r1.Transcript, r2.Transcript) {
				writeTranscript(t, name+"-run1", s.Seed, r1.Transcript)
				writeTranscript(t, name+"-run2", s.Seed, r2.Transcript)
				a, b := r1.Transcript, r2.Transcript
				i := 0
				for i < len(a) && i < len(b) && a[i] == b[i] {
					i++
				}
				lo := i - 120
				if lo < 0 {
					lo = 0
				}
				ha, hb := i+120, i+120
				if ha > len(a) {
					ha = len(a)
				}
				if hb > len(b) {
					hb = len(b)
				}
				t.Fatalf("transcripts diverge at byte %d:\nrun1: …%s…\nrun2: …%s…", i, a[lo:ha], b[lo:hb])
			}
		})
	}
}

// TestPartitionHealAcceptance pins the acceptance criterion explicitly:
// after the partition heals and the network settles, the final check must
// report 100%% greedy-routing success and full replica-set coverage for
// every surviving key.
func TestPartitionHealAcceptance(t *testing.T) {
	s := ByName("partition-heal")
	if s == nil {
		t.Fatal("partition-heal not registered")
	}
	s.Seed += seedOffset(t)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	writeTranscript(t, "partition-heal-acceptance", s.Seed, res.Transcript)
	if len(res.Checks) == 0 {
		t.Fatal("no checks ran")
	}
	final := res.Checks[len(res.Checks)-1]
	if final.RouteTried == 0 || final.RouteOK != final.RouteTried {
		t.Fatalf("greedy routing after heal: %d/%d, want 100%%", final.RouteOK, final.RouteTried)
	}
	if final.StoreKeys == 0 {
		t.Fatal("no surviving keys tracked: vacuous acceptance")
	}
	if final.StoreErrors != 0 {
		t.Fatalf("replica coverage after heal: %d/%d keys violated", final.StoreErrors, final.StoreKeys)
	}
	if !res.Passed {
		t.Fatalf("scenario failures: %v", res.Failures)
	}
	// The partition must have actually bitten: cross-cut traffic dropped.
	if res.Dropped == 0 {
		t.Fatal("partition dropped nothing: the fault plan never engaged")
	}
}

// TestCrashUntracksOnlyWhollyLostKeys ensures the Crash step's data-loss
// accounting is not an escape hatch: with the default replication factor
// and a small crash count, most keys must survive and stay tracked.
func TestCrashUntracksOnlyWhollyLostKeys(t *testing.T) {
	s := Scenario{
		Name: "crash-accounting", Seed: 991,
		Steps: []Step{
			join{N: 24},
			storeWorkload{Ops: 50},
			settle{},
			crash{Count: 3},
			settle{},
			check{},
		},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("failures: %v", res.Failures)
	}
	final := res.Checks[len(res.Checks)-1]
	if final.StoreKeys < 30 {
		t.Fatalf("only %d keys survived a 3-node crash at R=3: accounting too eager", final.StoreKeys)
	}
}
