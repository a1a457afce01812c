package torture

import (
	"errors"
	"testing"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

// TestCrashSweepEnumeratesBoundaries is the headline torture run, over
// every engine configuration: the default workload must expose at least
// 200 distinct crash points, and the engine must recover correctly at
// every single one — oracle agreement on all objects and counters, undo
// visits strictly decreasing — with torn tails at every second boundary.
func TestCrashSweepEnumeratesBoundaries(t *testing.T) {
	for _, c := range engineConfigs {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Seed: 1}
			if testing.Short() {
				cfg.MaxBoundaries = 40
			}
			res, err := cfg.sweep(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("sweep: %+v", res)
			if res.Boundaries < 200 {
				t.Errorf("workload exposed %d crash points, want >= 200", res.Boundaries)
			}
			want := res.Boundaries
			if cfg.MaxBoundaries > 0 && want > cfg.MaxBoundaries {
				want = cfg.MaxBoundaries
			}
			if res.Crashes != want {
				t.Errorf("recovered at %d of %d boundaries", res.Crashes, want)
			}
			if res.TornCrashes == 0 {
				t.Error("no boundary produced a torn tail")
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

// TestCrashSweepSecondSeed re-runs a smaller sweep under a different
// seed, over every engine configuration, guarding against the headline
// test passing by seed luck.
func TestCrashSweepSecondSeed(t *testing.T) {
	for _, c := range engineConfigs {
		t.Run(c.name, func(t *testing.T) {
			res, err := Config{Seed: 2, Steps: 500, MaxBoundaries: 80}.sweep(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("second-seed sweep: %+v", res)
			if res.Crashes == 0 || res.Losers == 0 {
				t.Fatalf("sweep did no useful work: %+v", res)
			}
		})
	}
}

// TestSweepDeterminism pins the reproducibility contract: one seed fully
// determines the sweep, so two runs must aggregate identically.
func TestSweepDeterminism(t *testing.T) {
	cfg := Config{Seed: 5, Steps: 300, MaxBoundaries: 40}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different sweeps:\n  %+v\n  %+v", a, b)
	}
}

// TestScopeAudit checks the Ob_List reconstruction invariant over a full
// trace: after every action, each live transaction's Op_List must equal
// the responsibility set derived from the raw durable log bytes.
func TestScopeAudit(t *testing.T) {
	res, err := ScopeAudit(Config{Seed: 3, Steps: 350})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("audit: %+v", res)
	if res.Checks == 0 || res.Records == 0 {
		t.Fatalf("audit did no useful work: %+v", res)
	}
}

// TestTransientRetries verifies transient sync failures on the commit
// path are absorbed by the WAL's bounded-backoff retry: every commit in
// the run succeeds, the engine stays healthy, and the final state
// matches the oracle — while the counters prove faults really fired.
func TestTransientRetries(t *testing.T) {
	res, err := TransientRun(Config{Seed: 4, Steps: 400}, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("transient: %+v", res)
	if res.Injected == 0 {
		t.Fatal("no sync errors were injected; the run proved nothing")
	}
	if res.Retries == 0 {
		t.Fatal("injected sync errors but the WAL recorded no retries")
	}
}

// TestPersistentFailureDegradesMidTrace kills the device partway through
// a replay and verifies the engine lands in degraded read-only mode —
// errors surface, nothing wedges — and that a restart with a healed
// device recovers to a healthy, oracle-agreeing state.
func TestPersistentFailureDegradesMidTrace(t *testing.T) {
	cfg := Config{Seed: 6, Steps: 400}.withDefaults()
	trace := sim.Generate(cfg.simConfig())
	store := fault.NewDir(fault.Plan{Seed: cfg.Seed})
	eng, err := core.New(core.Options{
		LogDir:      store,
		GroupCommit: core.GroupCommitOff,
		PoolSize:    cfg.PoolSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace)
	if err := r.RunTo(len(trace) / 2); err != nil {
		t.Fatal(err)
	}
	store.SetFailAllSyncs(true)
	var stepErr error
	for stepErr == nil {
		ok, err := r.Step()
		if err != nil {
			stepErr = err
			break
		}
		if !ok {
			break
		}
	}
	if stepErr == nil {
		// Possible only if no remaining action forced the log; the
		// workload makes that astronomically unlikely.
		t.Fatal("no action surfaced the dead device")
	}
	if !errors.Is(stepErr, fault.ErrDeviceFailed) && !errors.Is(stepErr, core.ErrDegraded) {
		t.Fatalf("replay error = %v, want the device failure or ErrDegraded", stepErr)
	}
	if h := eng.Health(); h.State != core.StateDegraded {
		t.Fatalf("Health = %v, want degraded", h.State)
	}

	// Restart with a healed device: recovery must succeed and agree
	// with the oracle given the durable winners.
	store.SetFailAllSyncs(false)
	if _, err := store.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	if h := eng.Health(); h.State != core.StateHealthy {
		t.Fatalf("Health after restart = %v, want healthy", h.State)
	}
	_, recs, err := wal.ReadDurable(store.StableDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkState(eng, replayOracle(recs), "after restart", cfg.Objects, cfg.Counters, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRotationArchiveCrashSweep crashes the device at every sync boundary
// of a workload that rotates segments constantly (tiny segment cap) and
// archives every few rounds, so the freeze lands inside rotations, inside
// archive's manifest commit, and between the manifest sync and the
// segment deletes.  Every boundary must recover to the state the capture
// oracle predicts, and every surviving durable record must be
// byte-identical to the capture — archive never rewrites live bytes.
func TestRotationArchiveCrashSweep(t *testing.T) {
	cfg := RotationConfig{Seed: 7}
	if testing.Short() {
		cfg.MaxBoundaries = 40
	}
	res, err := RotationRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rotation sweep: %+v", res)
	if res.Rotations == 0 {
		t.Error("workload never rotated a segment; the sweep proved nothing")
	}
	if res.Archives == 0 || res.ArchivedBase == wal.NilLSN {
		t.Errorf("workload never archived (archives %d, base %d); the sweep proved nothing",
			res.Archives, res.ArchivedBase)
	}
	want := res.Boundaries
	if cfg.MaxBoundaries > 0 && want > cfg.MaxBoundaries {
		want = cfg.MaxBoundaries
	}
	if res.Crashes != want {
		t.Errorf("recovered at %d of %d boundaries", res.Crashes, want)
	}
	if res.TornCrashes == 0 {
		t.Error("no boundary produced a torn tail")
	}
	if res.Winners == 0 || res.Losers == 0 {
		t.Errorf("degenerate classification: %d winners, %d losers", res.Winners, res.Losers)
	}
}

// TestRotationSweepDeterminism pins reproducibility: the workload is
// serial and seeded, so two sweeps must aggregate identically.
func TestRotationSweepDeterminism(t *testing.T) {
	cfg := RotationConfig{Seed: 8, Rounds: 40, MaxBoundaries: 30}
	a, err := RotationRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RotationRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different sweeps:\n  %+v\n  %+v", a, b)
	}
}
