package bench

import (
	"fmt"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/wal"
)

// delayedDir returns an in-memory log directory whose every device
// Sync costs delay.  MemDir's syncs are free, which would hide exactly
// what group commit buys: without a sync cost, N serialized syncs and 1
// coalesced sync take the same time.  The delay models a commodity
// device (an NVMe flush is tens of µs, a SATA disk milliseconds);
// Syncs counts the device syncs across all of the directory's devices.
func delayedDir(delay time.Duration) *fault.Dir {
	return fault.NewDir(fault.Plan{SyncDelay: delay, DelayEveryNthSync: 1})
}

// e8Row is one E8 measurement cell.
type e8Row struct {
	committers int
	mode       string
	commits    uint64
	syncs      uint64
	waiters    uint64
	grouped    uint64
	elapsed    time.Duration
}

// runE8Cell runs committers goroutines, each performing txnsPer
// transactions of updatesPer updates on disjoint object ranges, against a
// fresh engine whose log sits on a delayedDir.
func runE8Cell(committers, txnsPer, updatesPer int, syncDelay time.Duration, mode core.GroupCommitMode) (e8Row, error) {
	store := delayedDir(syncDelay)
	eng, err := core.New(core.Options{PoolSize: 4096, LogDir: store, GroupCommit: mode})
	if err != nil {
		return e8Row{}, err
	}
	syncs0 := store.Syncs()
	stats0 := eng.LogStats()
	val := []byte("group-commit-payload-0123456789")

	var wg sync.WaitGroup
	errs := make(chan error, committers)
	start := time.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a private object range (no lock
			// conflicts) and cycles within it to bound the page count.
			base := wal.ObjectID(1 + w*1024)
			for i := 0; i < txnsPer; i++ {
				tx, err := eng.Begin()
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < updatesPer; j++ {
					obj := base + wal.ObjectID((i*updatesPer+j)%512)
					if err := eng.Update(tx, obj, val); err != nil {
						errs <- err
						return
					}
				}
				if err := eng.Commit(tx); err != nil {
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
			return e8Row{}, err
		}
	}

	d := eng.LogStats().Sub(stats0)
	modeName := "on"
	if mode == core.GroupCommitOff {
		modeName = "off"
	}
	return e8Row{
		committers: committers,
		mode:       modeName,
		commits:    uint64(committers * txnsPer),
		syncs:      store.Syncs() - syncs0,
		waiters:    d.FlushWaiters,
		grouped:    d.GroupedFlushes,
		elapsed:    elapsed,
	}, nil
}

// E8GroupCommit measures commit throughput and device syncs per commit as
// the number of concurrent committers grows, with group commit on vs off.
// With group commit off, every commit forces the log under the engine
// latch: syncs/commit stays at ~1 and committers serialize behind the
// device.  With group commit on, one leader sync covers every commit
// record queued meanwhile, so syncs/commit falls toward 1/batch and
// throughput scales with the committer count instead of the sync latency.
func E8GroupCommit(committerCounts []int, txnsPer, updatesPer int, syncDelay time.Duration) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "group commit: device syncs per commit vs concurrent committers",
		Claim: "coalescing commit-time log forces makes N committers pay ~1 device sync per batch instead of N, without holding the engine latch across the sync",
		Headers: []string{"committers", "group", "commits", "dev-syncs", "syncs/commit",
			"waiters", "grouped", "coalesce", "commits/s", "us/commit"},
	}
	// syncsPerCommit[i] tracks the group-on trajectory for the verdict.
	var onSyncsPerCommit []float64
	var coalesceAt8 float64
	for _, n := range committerCounts {
		for _, mode := range []core.GroupCommitMode{core.GroupCommitOn, core.GroupCommitOff} {
			row, err := runE8Cell(n, txnsPer, updatesPer, syncDelay, mode)
			if err != nil {
				return nil, err
			}
			spc := float64(row.syncs) / float64(row.commits)
			coalesce := "-"
			if row.grouped > 0 {
				r := float64(row.waiters) / float64(row.grouped)
				coalesce = fmt.Sprintf("%.2f", r)
				if mode == core.GroupCommitOn && n >= 8 && coalesceAt8 == 0 {
					coalesceAt8 = r
				}
			}
			if mode == core.GroupCommitOn {
				onSyncsPerCommit = append(onSyncsPerCommit, spc)
			}
			perCommit := row.elapsed / time.Duration(row.commits)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", row.committers),
				row.mode,
				fmt.Sprintf("%d", row.commits),
				fmt.Sprintf("%d", row.syncs),
				fmt.Sprintf("%.3f", spc),
				fmt.Sprintf("%d", row.waiters),
				fmt.Sprintf("%d", row.grouped),
				coalesce,
				fmt.Sprintf("%.0f", float64(row.commits)/row.elapsed.Seconds()),
				fmt.Sprintf("%.1f", float64(perCommit.Nanoseconds())/1e3),
			})
		}
	}
	decreasing := true
	for i := 1; i < len(onSyncsPerCommit); i++ {
		if onSyncsPerCommit[i] >= onSyncsPerCommit[i-1] {
			decreasing = false
			break
		}
	}
	switch {
	case decreasing && coalesceAt8 > 1:
		t.Verdict = fmt.Sprintf("HOLDS: syncs/commit strictly decreasing with committers (%.3f -> %.3f); coalescing ratio %.2f at >=8 committers",
			onSyncsPerCommit[0], onSyncsPerCommit[len(onSyncsPerCommit)-1], coalesceAt8)
	case decreasing:
		t.Verdict = "PARTIAL: syncs/commit decreasing, but coalescing ratio did not exceed 1 at >=8 committers"
	default:
		t.Verdict = "FAILS: syncs/commit not strictly decreasing with committer count"
	}
	return t, nil
}
