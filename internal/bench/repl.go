package bench

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/repl"
	"ariesrh/internal/wal"
)

// e11Row is one E11 measurement cell.
type e11Row struct {
	committers   int
	mode         string
	commits      uint64
	elapsed      time.Duration
	shippedRecs  uint64
	shippedBytes uint64
	ackBatches   uint64
	ackP50       time.Duration
	ackP99       time.Duration
	catchup      time.Duration
}

// runE11Cell runs the E8 committer workload against a primary whose log
// sits on a delayed device, with a live replica attached over an
// in-process pipe for the whole run, and measures the replication-lag
// series alongside commit throughput.
func runE11Cell(committers, txnsPer, updatesPer int, syncDelay time.Duration, mode core.GroupCommitMode) (e11Row, error) {
	store := delayedDir(syncDelay)
	eng, err := core.New(core.Options{PoolSize: 4096, LogDir: store, GroupCommit: mode})
	if err != nil {
		return e11Row{}, err
	}
	feed, err := repl.NewPrimary(eng)
	if err != nil {
		return e11Row{}, err
	}
	follower, err := core.New(core.Options{PoolSize: 4096, Follower: true})
	if err != nil {
		return e11Row{}, err
	}
	rep, err := repl.NewReplica(follower)
	if err != nil {
		return e11Row{}, err
	}
	c1, c2 := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- feed.Serve(c1) }()
	followDone := make(chan error, 1)
	go func() { followDone <- rep.Follow(c2) }()

	val := []byte("group-commit-payload-0123456789")
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	start := time.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
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
			return e11Row{}, err
		}
	}

	// Catch-up: how long after the last commit until the replica has
	// replayed AND acknowledged everything the primary flushed.
	if err := eng.Log().Flush(eng.Log().Head()); err != nil {
		return e11Row{}, err
	}
	target := eng.Log().FlushedLSN()
	catchStart := time.Now()
	deadline := catchStart.Add(30 * time.Second)
	for follower.ReplayedLSN() < target || feed.AckedLSN() < target {
		if time.Now().After(deadline) {
			return e11Row{}, fmt.Errorf("replica stuck: replayed %d, acked %d, want %d",
				follower.ReplayedLSN(), feed.AckedLSN(), target)
		}
		time.Sleep(50 * time.Microsecond)
	}
	catchup := time.Since(catchStart)

	snap := eng.Metrics()
	c2.Close()
	<-serveDone
	<-followDone
	feed.Close()

	modeName := "on"
	if mode == core.GroupCommitOff {
		modeName = "off"
	}
	h := snap.Histogram("repl.ack_lag_ns")
	return e11Row{
		committers:   committers,
		mode:         modeName,
		commits:      uint64(committers * txnsPer),
		elapsed:      elapsed,
		shippedRecs:  snap.Counter("repl.shipped_records"),
		shippedBytes: snap.Counter("repl.shipped_bytes"),
		ackBatches:   h.Count,
		ackP50:       time.Duration(h.Quantile(0.50)),
		ackP99:       time.Duration(h.Quantile(0.99)),
		catchup:      catchup,
	}, nil
}

// E11ReplicationLag measures what a hot standby costs — and what it
// inherits from group commit.  A replica is attached for the whole run;
// every cell must end with the replica fully caught up and acknowledged.
// With group commit off the stream degenerates to one tiny batch per
// commit: the ack round-trip is paid per commit record.  With group
// commit on, the leader's coalesced flush publishes whole batches at
// once, so the stream ships fewer, larger messages — records per acked
// batch grows with the committer count while the ack latency stays in
// the same band, i.e. replication lag is bounded by device latency, not
// by offered load.
func E11ReplicationLag(committerCounts []int, txnsPer, updatesPer int, syncDelay time.Duration) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "replication lag vs group-commit mode: a standby rides the coalesced flush",
		Claim: "a live standby does not forfeit the group-commit win: with group commit on, commit throughput still scales with committers while the stream stays fully acknowledged, shipping fewer, larger batches (records per acked batch grows) at no worse ack latency",
		Headers: []string{"committers", "group", "commits", "commits/s", "shipped-recs",
			"ship-KB", "ack-batches", "recs/batch", "ack-p50-us", "ack-p99-us", "catchup-us"},
	}
	var onRecsPerBatch, offRecsPerBatch float64
	for _, n := range committerCounts {
		for _, mode := range []core.GroupCommitMode{core.GroupCommitOn, core.GroupCommitOff} {
			row, err := runE11Cell(n, txnsPer, updatesPer, syncDelay, mode)
			if err != nil {
				return nil, err
			}
			rpb := 0.0
			if row.ackBatches > 0 {
				rpb = float64(row.shippedRecs) / float64(row.ackBatches)
			}
			if n == committerCounts[len(committerCounts)-1] {
				if mode == core.GroupCommitOn {
					onRecsPerBatch = rpb
				} else {
					offRecsPerBatch = rpb
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", row.committers),
				row.mode,
				fmt.Sprintf("%d", row.commits),
				fmt.Sprintf("%.0f", float64(row.commits)/row.elapsed.Seconds()),
				fmt.Sprintf("%d", row.shippedRecs),
				fmt.Sprintf("%.1f", float64(row.shippedBytes)/1024),
				fmt.Sprintf("%d", row.ackBatches),
				fmt.Sprintf("%.1f", rpb),
				fmt.Sprintf("%.1f", float64(row.ackP50.Nanoseconds())/1e3),
				fmt.Sprintf("%.1f", float64(row.ackP99.Nanoseconds())/1e3),
				fmt.Sprintf("%.1f", float64(row.catchup.Nanoseconds())/1e3),
			})
		}
	}
	switch {
	case onRecsPerBatch > offRecsPerBatch*2:
		t.Verdict = fmt.Sprintf("HOLDS: at max committers the stream ships %.1f records/batch with group commit vs %.1f without — the standby rides the coalesced flush; every cell ended fully acknowledged",
			onRecsPerBatch, offRecsPerBatch)
	case onRecsPerBatch > offRecsPerBatch:
		t.Verdict = fmt.Sprintf("PARTIAL: batching helps (%.1f vs %.1f records/batch) but by less than 2x",
			onRecsPerBatch, offRecsPerBatch)
	default:
		t.Verdict = fmt.Sprintf("FAILS: group commit did not batch the stream (%.1f vs %.1f records/batch)",
			onRecsPerBatch, offRecsPerBatch)
	}
	return t, nil
}
