package torture

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/repl"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

// ReplResult aggregates a replication promote-under-crash sweep.
type ReplResult struct {
	// Boundaries is the number of distinct crash points enumerated;
	// Promotions is how many were crashed and promoted (equal unless
	// MaxBoundaries capped the sweep).
	Boundaries int
	Promotions int
	// TornCrashes counts boundaries where the primary's device kept a
	// torn prefix of its unsynced tail — records the replica, which only
	// ever receives flushed records, must NOT have.
	TornCrashes int
	// UnshippedRecords is the cumulative count of records durable on the
	// crashed primary's device but absent from the replica (torn-tail
	// records that were never flushed, hence never shipped).
	UnshippedRecords int
	// Winners and Losers are cumulative transaction classifications as
	// judged from the REPLICA's durable log; Records is the cumulative
	// count of records the replicas had made durable at promotion time;
	// UndoVisits is the cumulative number of records promotion's backward
	// pass visited.
	Winners, Losers int
	Records         int
	UndoVisits      int
}

// ReplRun executes the replication sweep: for every sync boundary of the
// trace, run a primary that freezes its device after sync k with a live
// replica attached over an in-process pipe, crash the primary once the
// schedule fires, wait for the replica to drain the flushed prefix,
// sever the stream, and promote the replica.
//
// Promotion is judged exactly like recovery, but against the replica's
// own durable log: only flushed records ever ship, so the replica's log
// must be a (possibly strict) prefix of the primary's post-crash device
// image, and the promoted object state must equal the log oracle's
// verdict over that prefix.  The backward pass must hold the same
// invariant as crash recovery: one strictly decreasing sweep.
// Replication never touches the primary's device, so the crash points
// are those of Run.
func ReplRun(cfg Config) (ReplResult, error) {
	cfg = cfg.withDefaults()
	trace := sim.Generate(cfg.simConfig())
	var res ReplResult
	_, c, err := runSweep(sweepSpec{name: "repl ", seed: cfg.Seed, tornEvery: cfg.TornEvery, max: cfg.MaxBoundaries},
		func() *replTrial { return &replTrial{cfg: cfg, trace: trace} },
		func(t *replTrial) {
			res.UnshippedRecords += t.res.UnshippedRecords
			res.Winners += t.res.Winners
			res.Losers += t.res.Losers
			res.Records += t.res.Records
			res.UndoVisits += t.res.UndoVisits
		})
	res.Boundaries, res.Promotions, res.TornCrashes = c.points, c.crashes, c.torn
	return res, err
}

// replTrial is one crash point of the replication sweep: a primary
// replaying the trace while a live replica follows it.
type replTrial struct {
	cfg      Config
	trace    []sim.Action
	primary  *core.Engine
	follower *core.Engine
	txns     int // transactions the replay began
	res      ReplResult
}

func (t *replTrial) open(dirs []wal.Dir) (err error) {
	t.primary, err = core.New(core.Options{
		LogDir:      dirs[0],
		GroupCommit: core.GroupCommitOff,
		PoolSize:    t.cfg.PoolSize,
	})
	return err
}

func (t *replTrial) empty() error {
	return checkState(t.primary, newLogOracle(), "after init-time crash", t.cfg.Objects, t.cfg.Counters, nil)
}

// run replays the trace while the stream ships live, then drains the
// replica and severs the stream: the primary is lost.
func (t *replTrial) run() error {
	feed, err := repl.NewPrimary(t.primary)
	if err != nil {
		return err
	}
	defer feed.Close()
	t.follower, err = core.New(core.Options{Follower: true, PoolSize: t.cfg.PoolSize})
	if err != nil {
		return err
	}
	rep, err := repl.NewReplica(t.follower)
	if err != nil {
		return err
	}
	c1, c2 := net.Pipe()
	serveDone := make(chan error, 1)
	followDone := make(chan error, 1)
	go func() { serveDone <- feed.Serve(c1) }()
	go func() { followDone <- rep.Follow(c2) }()
	defer func() {
		c2.Close()
		<-serveDone
		<-followDone
	}()

	r := sim.NewReplayer(sim.CoreTarget{Engine: t.primary}, t.trace)
	for {
		ok, err := r.Step()
		if err != nil {
			if !isCrashSignal(err) {
				return fmt.Errorf("unexpected replay error: %w", err)
			}
			break
		}
		if !ok {
			break
		}
	}
	t.txns = len(r.IDs())

	// Drain: everything the primary flushed must reach the replica.  The
	// flushed horizon is final here — the device is frozen (or the trace
	// is over), so no further record can become shippable.
	target := t.primary.Log().FlushedLSN()
	deadline := time.Now().Add(30 * time.Second)
	for t.follower.ReplayedLSN() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at %d, want %d", t.follower.ReplayedLSN(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (t *replTrial) judge(b *boundary) error {
	// The replica's durable log must be a prefix of the primary's
	// post-crash device image: only flushed records ship, and flushed
	// records are exactly the stable (pre-torn-tail) image.
	primaryRecs := b.recs[0]
	var replicaRecs []*wal.Record
	t.follower.Log().ResetReadCursor()
	err := t.follower.Log().Scan(1, wal.NilLSN, func(rec *wal.Record) (bool, error) {
		replicaRecs = append(replicaRecs, rec)
		return true, nil
	})
	if err != nil {
		return err
	}
	if len(replicaRecs) > len(primaryRecs) {
		return fmt.Errorf("replica has %d records, primary device only %d",
			len(replicaRecs), len(primaryRecs))
	}
	for i, rec := range replicaRecs {
		if err := sameRecord(rec, primaryRecs[i]); err != nil {
			return fmt.Errorf("replica record %d diverges from primary image: %w", i, err)
		}
	}

	// Expected state: the oracle over the REPLICA's durable log.  Records
	// in the primary's torn tail were never flushed, never shipped, and
	// must not influence the promoted state.
	oracle := replayOracle(replicaRecs)
	winners := durableWinners(replicaRecs)
	t.res = ReplResult{
		UnshippedRecords: len(primaryRecs) - len(replicaRecs),
		Winners:          len(winners),
		Losers:           t.txns - len(winners),
		Records:          len(replicaRecs),
	}
	visits, err := recoverVisits(t.follower, func() error {
		if err := t.follower.Promote(); err != nil {
			return fmt.Errorf("promote: %w", err)
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	t.res.UndoVisits = visits
	return checkState(t.follower, oracle, "after promotion", t.cfg.Objects, t.cfg.Counters, nil)
}

// sameRecord reports an error unless got encodes byte-identically to
// want.
func sameRecord(got, want *wal.Record) error {
	g, err := wal.EncodeRecord(got)
	if err != nil {
		return err
	}
	w, err := wal.EncodeRecord(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("record at LSN %d differs", got.LSN)
	}
	return nil
}
