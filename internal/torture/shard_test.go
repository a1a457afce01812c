package torture

import (
	"testing"

	"ariesrh/internal/core"
)

// shardOptions is an engineConfigs row as the cluster sweeps run it:
// the early-lock-release row also recovers on the parallel schedule.
func shardOptions(opts core.Options) core.Options {
	opts.ParallelRecovery = opts.EarlyLockRelease
	return opts
}

// TestShardSweep is the headline cross-shard torture run, over every
// engine configuration: every shard of a 3-shard cluster is crashed at
// every device sync its log performs — inside bootstrap, before and
// after prepares, around the coordinator's decision force, mid phase 2
// — and the recovered cluster must agree with the decision-settled log
// oracle on every object, with no transaction left in doubt.
func TestShardSweep(t *testing.T) {
	for _, c := range engineConfigs {
		t.Run(c.name, func(t *testing.T) {
			cfg := ShardConfig{Seed: 1}
			if testing.Short() {
				cfg.MaxBoundaries = 45
			}
			res, err := cfg.sweep(shardOptions(c.opts))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("shard sweep: %+v", res)
			if res.Boundaries < 100 {
				t.Errorf("workload exposed %d cross-shard crash points, want >= 100", res.Boundaries)
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
			if res.GlobalCommits == 0 {
				t.Error("no boundary ever found a durable two-phase decision")
			}
			if res.Resolved == 0 {
				t.Error("no recovery ever resolved an in-doubt participant")
			}
		})
	}
}

// TestShardSweepSecondSeed re-runs the sweep under a different seed,
// over every engine configuration — the acceptance bar is zero
// atomicity violations on two seeds, not one lucky trace.
func TestShardSweepSecondSeed(t *testing.T) {
	for _, c := range engineConfigs {
		t.Run(c.name, func(t *testing.T) {
			cfg := ShardConfig{Seed: 7}
			if testing.Short() {
				cfg.MaxBoundaries = 45
			}
			res, err := cfg.sweep(shardOptions(c.opts))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("shard sweep: %+v", res)
			if res.Boundaries < 100 {
				t.Errorf("workload exposed %d cross-shard crash points, want >= 100", res.Boundaries)
			}
			if res.Crashes == 0 || res.GlobalCommits == 0 {
				t.Fatalf("sweep did no useful work: %+v", res)
			}
		})
	}
}

// TestShardSweepDeterminism pins reproducibility: one seed fully
// determines the trace, every per-shard sync count, and every injected
// fault, so two runs must aggregate identically.
func TestShardSweepDeterminism(t *testing.T) {
	cfg := ShardConfig{Seed: 3, Steps: 30, MaxBoundaries: 30}
	a, err := RunShards(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShards(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different sweeps:\n  %+v\n  %+v", a, b)
	}
}
