package bench

import (
	"fmt"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/shard"
	"ariesrh/internal/wal"
)

// benchModRouter routes obj to shard obj % n, so the workload
// generator controls each transaction's participant set exactly.
type benchModRouter struct{}

func (benchModRouter) Route(obj wal.ObjectID, n int) uint32 {
	return uint32(uint64(obj) % uint64(n))
}

// e15Row is one E15 measurement cell.
type e15Row struct {
	shards  int
	mode    string
	commits uint64
	syncs   uint64
	elapsed time.Duration
}

// runE15Cell runs committers goroutines against a fresh sharded
// database whose per-shard logs each sit on their own delayedDir.
// In local mode every transaction writes updatesPer objects homed on
// one shard (the worker's, round-robin) and commits through the
// single-shard fast path; in cross mode each transaction alternates
// its updates between two adjacent shards and commits through
// two-phase commit.  Workers own disjoint object slots, so no
// transaction ever blocks on a lock — the only contention is the
// device, which is the point: with group commit off every force
// serializes on its shard's device, and independent shard logs are
// independent force channels.
func runE15Cell(shards, committers, txnsPer, updatesPer int, syncDelay time.Duration, cross bool) (e15Row, error) {
	dirs := make([]wal.Dir, shards)
	delays := make([]*fault.Dir, shards)
	for i := range dirs {
		delays[i] = delayedDir(syncDelay)
		dirs[i] = delays[i]
	}
	db, err := shard.Open(shard.Options{
		Shards:      shards,
		LogDirs:     dirs,
		PoolSize:    4096,
		GroupCommit: core.GroupCommitOff,
		Router:      benchModRouter{},
	})
	if err != nil {
		return e15Row{}, err
	}
	defer db.Close()
	var syncs0 uint64
	for _, d := range delays {
		syncs0 += d.Syncs()
	}
	val := []byte("sharded-commit-payload-0123456789")

	var wg sync.WaitGroup
	errs := make(chan error, committers)
	start := time.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			home := w % shards
			for i := 0; i < txnsPer; i++ {
				tx, err := db.Begin()
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < updatesPer; j++ {
					// Each worker owns a private slot range and cycles
					// within it to bound the page count; the slot picks
					// the object, obj % shards picks the shard.
					slot := 1 + w*512 + (i*updatesPer+j)%256
					s := home
					if cross {
						s = (home + j%2) % shards
					}
					obj := wal.ObjectID(slot*shards + s)
					if err := tx.Update(obj, val); err != nil {
						errs <- err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return e15Row{}, err
		}
	}

	var syncs uint64
	for _, d := range delays {
		syncs += d.Syncs()
	}
	mode := "local"
	if cross {
		mode = "cross"
	}
	return e15Row{
		shards:  shards,
		mode:    mode,
		commits: uint64(committers * txnsPer),
		syncs:   syncs - syncs0,
		elapsed: elapsed,
	}, nil
}

// E15ShardScaling measures commit throughput as the shard count grows
// at a fixed committer count, with every commit forcing its log (group
// commit off — the mode where the device, not the CPU, is the
// bottleneck).  A single engine has ONE commit-force channel: N
// committers serialize behind one device no matter how many there are.
// N shards have N channels — their forces overlap in time — so
// single-shard throughput scales with the shard count until committers
// run out.  The cross cells price what two-phase commit costs when
// every transaction spans two shards: roughly 4 forced syncs per
// commit (participant prepare, coordinator prepare, decision, phase-2
// commit) against the local cells' 1, paid on two channels.
func E15ShardScaling(shardCounts []int, committers, txnsPer, updatesPer int, syncDelay time.Duration) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "sharded commit scaling: per-shard logs as independent force channels",
		Claim: "N per-shard logs give N parallel commit-force channels: single-shard commit throughput scales with the shard count at a fixed committer count, while cross-shard 2PC pays ~4 forced syncs per transaction",
		Headers: []string{"shards", "mode", "commits", "dev-syncs", "syncs/commit",
			"commits/s", "us/commit", "speedup"},
	}
	base := make(map[string]float64) // mode -> commits/s at shardCounts[0]
	var speedupAt4 float64
	for _, n := range shardCounts {
		for _, cross := range []bool{false, true} {
			row, err := runE15Cell(n, committers, txnsPer, updatesPer, syncDelay, cross)
			if err != nil {
				return nil, err
			}
			rate := float64(row.commits) / row.elapsed.Seconds()
			if _, ok := base[row.mode]; !ok {
				base[row.mode] = rate
			}
			speedup := rate / base[row.mode]
			if row.mode == "local" && n == 4 {
				speedupAt4 = speedup
			}
			perCommit := row.elapsed / time.Duration(row.commits)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", row.shards),
				row.mode,
				fmt.Sprintf("%d", row.commits),
				fmt.Sprintf("%d", row.syncs),
				fmt.Sprintf("%.3f", float64(row.syncs)/float64(row.commits)),
				fmt.Sprintf("%.0f", rate),
				fmt.Sprintf("%.1f", float64(perCommit.Nanoseconds())/1e3),
				fmt.Sprintf("%.2fx", speedup),
			})
		}
	}
	switch {
	case speedupAt4 >= 3:
		t.Verdict = fmt.Sprintf("HOLDS: single-shard commit throughput %.2fx at 4 shards vs 1 (>= 3x)", speedupAt4)
	case speedupAt4 > 0:
		t.Verdict = fmt.Sprintf("FAILS: single-shard commit throughput only %.2fx at 4 shards vs 1 (want >= 3x)", speedupAt4)
	default:
		t.Verdict = "PARTIAL: sweep did not include both 1 and 4 shards; no scaling verdict"
	}
	return t, nil
}
