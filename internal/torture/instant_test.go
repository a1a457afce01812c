package torture

import (
	"testing"

	"ariesrh/internal/core"
)

// readsDuringRecoveryModes are the commit paths the reads-during-recovery
// sweeps run under: group commit off (deterministic crash points) and on
// (the default).
var readsDuringRecoveryModes = []struct {
	name string
	gc   core.GroupCommitMode
}{
	{"group-commit-off", core.GroupCommitOff},
	{"group-commit-on", core.GroupCommitOn},
}

// TestReadsDuringRecoverySweep is the instant-restart torture run: at
// every sync boundary of the default workload the engine recovers through
// the parallel pipeline while concurrent readers check every object and
// counter against the durable-log oracle MID-recovery — then the settled
// state is checked again.  The undo-visit stream must remain one strictly
// decreasing, duplicate-free sweep.
func TestReadsDuringRecoverySweep(t *testing.T) {
	for _, m := range readsDuringRecoveryModes {
		t.Run(m.name, func(t *testing.T) {
			cfg := Config{Seed: 1}
			if testing.Short() {
				cfg.MaxBoundaries = 40
			}
			res, err := RunReadsDuringRecovery(cfg, m.gc)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("reads-during-recovery sweep: %+v", res)
			want := res.Boundaries
			if cfg.MaxBoundaries > 0 && want > cfg.MaxBoundaries {
				want = cfg.MaxBoundaries
			}
			if res.Crashes != want {
				t.Errorf("recovered at %d of %d boundaries", res.Crashes, want)
			}
			if res.Winners == 0 || res.Losers == 0 {
				t.Errorf("degenerate classification: %d winners, %d losers", res.Winners, res.Losers)
			}
			if res.UndoVisits == 0 {
				t.Error("no recovery ever visited a record in its backward pass")
			}
		})
	}
}

// TestReadsDuringRecoverySecondSeed guards the sweep against seed luck
// with a smaller run under a different seed and torn tails at every
// boundary.
func TestReadsDuringRecoverySecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: headline sweep covers the short path")
	}
	for _, m := range readsDuringRecoveryModes {
		t.Run(m.name, func(t *testing.T) {
			res, err := RunReadsDuringRecovery(Config{Seed: 2, Steps: 500, MaxBoundaries: 80, TornEvery: 1}, m.gc)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("reads-during-recovery second-seed sweep: %+v", res)
			if res.Crashes == 0 || res.Losers == 0 {
				t.Fatalf("sweep did no useful work: %+v", res)
			}
		})
	}
}
