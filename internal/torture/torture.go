// Package torture is the fault-injection torture harness for crash
// recovery: it drives delegation-heavy workloads over fault.Dir log
// devices, crashes the system at every sync boundary, recovers, and
// checks the recovered state against an oracle computed from the
// durable log plus log-level invariants.
//
// Every sweep runs on one driver (runSweep in sweep.go).  A fault-free
// probe runs the workload and counts each device's syncs; every sync is
// a crash point.  The workload is then re-run once per point k over
// fresh devices, one of them frozen right after its sync k by a
// seeded fault.Plan — on every TornEvery-th point additionally
// persisting a seeded torn prefix of the unsynced tail — so every point
// is enumerable, reproducible and independently replayable.  Points run
// concurrently, GOMAXPROCS at a time, and the first failure stops the
// sweep.  The driver also settles points that fire inside log
// initialization, before the system is up.  A sweep supplies only a
// trial: how to open its system over the devices, its workload, and its
// judge.
//
// Correctness at a point is judged against the durable log, not against
// what the workload observed: post-crash state is a function of the
// bytes on the device alone.  A commit whose ack never returned may
// still be durable (its record landed in the torn tail) and is then a
// winner — the classic commit-ack ambiguity — while an abort that ran
// to completion in memory may have left no durable CLRs and so never
// happened.  The driver decodes the post-crash images; judges replay
// the record sequence through an independent record-level oracle
// (responsibility moved by delegate records, extinguished by commit
// records and CLRs, losers undone in reverse LSN order) and require the
// recovered system to agree with it on every object and counter, with
// the backward pass one strictly decreasing sweep.
//
// The sweeps and what each judge adds:
//   - Run: the sim trace on one engine.
//   - RunReadsDuringRecovery: the same on the parallel recovery
//     schedule, with readers checking every object mid-recovery.
//   - ReplRun: the primary crashes mid-stream and a live replica is
//     promoted; the replica's log must be a prefix of the primary's.
//   - RotationRun: tiny segments and periodic archiving; every
//     surviving record must equal a fault-free capture.
//   - ELRRun: a concurrent early-lock-release workload; no dependent
//     may survive its predecessor's lost commit.
//   - RunShards: a 3-shard cluster, every shard crashed at every sync;
//     two-phase outcomes follow the durable decisions.
//
// Run and RunShards fix group commit off, which makes every crash point
// a pure function of the seed; the tests also sweep them with group
// commit on, and with early lock release, through the same driver.
//
// Two further modes complement the sweeps: ScopeAudit replays a trace
// while re-deriving every live transaction's Op_List from the raw
// durable log bytes after each action (checking the engine's scope
// bookkeeping against a second, scope-free formulation), and
// TransientRun replays under a transient sync-error schedule asserting
// the WAL's bounded-backoff retry absorbs every episode without
// surfacing an error or degrading the engine.
package torture

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ariesrh/internal/core"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

// Config parameterizes a torture run.  The zero value is usable: every
// field defaults to a workload heavy enough for a meaningful sweep.
type Config struct {
	// Seed determines the trace and every injected fault.  Equal
	// configs produce byte-identical sweeps.
	Seed int64
	// Steps, Objects, MaxActive, DelegationRate, TerminateRate,
	// AbortFraction, SavepointRate, Counters and IncrementRate are the
	// sim.Config workload knobs (see that package).
	Steps          int
	Objects        int
	MaxActive      int
	DelegationRate float64
	TerminateRate  float64
	AbortFraction  float64
	SavepointRate  float64
	Counters       int
	IncrementRate  float64
	// PoolSize is the engine buffer-pool size.
	PoolSize int
	// MaxBoundaries caps the number of crash points swept (0 = all).
	MaxBoundaries int
	// TornEvery tears the unsynced tail at every TornEvery-th boundary
	// (0 disables torn tails; the default tears every 2nd boundary).
	TornEvery int
}

func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 1200
	}
	if c.Objects <= 0 {
		c.Objects = 24
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 6
	}
	if c.DelegationRate == 0 {
		c.DelegationRate = 0.25
	}
	if c.TerminateRate == 0 {
		c.TerminateRate = 0.18
	}
	if c.AbortFraction == 0 {
		c.AbortFraction = 0.35
	}
	if c.SavepointRate == 0 {
		c.SavepointRate = 0.08
	}
	if c.Counters == 0 {
		c.Counters = 4
	}
	if c.IncrementRate == 0 {
		c.IncrementRate = 0.06
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 64
	}
	if c.TornEvery == 0 {
		c.TornEvery = 2
	}
	return c
}

func (c Config) simConfig() sim.Config {
	return sim.Config{
		Seed:           c.Seed,
		Steps:          c.Steps,
		Objects:        c.Objects,
		MaxActive:      c.MaxActive,
		DelegationRate: c.DelegationRate,
		TerminateRate:  c.TerminateRate,
		AbortFraction:  c.AbortFraction,
		SavepointRate:  c.SavepointRate,
		Counters:       c.Counters,
		IncrementRate:  c.IncrementRate,
	}
}

// Result aggregates a sweep.
type Result struct {
	// Boundaries is the number of distinct crash points enumerated;
	// Crashes is how many were actually crashed and recovered (equal
	// unless MaxBoundaries capped the sweep).
	Boundaries int
	Crashes    int
	// TornCrashes counts boundaries where a non-empty torn prefix of
	// the unsynced tail was persisted.
	TornCrashes int
	// AmbiguousWins counts commits whose ack was lost to the crash but
	// whose record survived in the torn tail — durable winners the
	// client saw fail.
	AmbiguousWins int
	// Winners and Losers are cumulative transaction classifications
	// across all boundaries; Records is the cumulative count of durable
	// records decoded from post-crash images; UndoVisits is the
	// cumulative number of log records recovery's backward pass visited.
	Winners, Losers int
	Records         int
	UndoVisits      int
}

// replayOracle returns the oracle's expected post-crash state for a
// single log: the durable records applied, then every loser undone.
func replayOracle(recs []*wal.Record) *logOracle {
	o := newLogOracle()
	for _, rec := range recs {
		o.apply(rec)
	}
	o.crashUndo()
	return o
}

// durableWinners returns the transactions with a durable commit record —
// the winners of the crash, regardless of whether their commit was ever
// acknowledged.
func durableWinners(recs []*wal.Record) map[wal.TxID]bool {
	winners := make(map[wal.TxID]bool)
	for _, rec := range recs {
		if rec.Type == wal.TypeCommit {
			winners[rec.TxID] = true
		}
	}
	return winners
}

// classify counts the transactions a durable record sequence began
// that won (a durable commit record) and lost (none).
func classify(recs []*wal.Record) (winners, losers int) {
	began := 0
	for _, rec := range recs {
		if rec.Type == wal.TypeBegin {
			began++
		}
	}
	winners = len(durableWinners(recs))
	return winners, began - winners
}

// logOp is one undoable durable record still attributable to a live
// transaction — what the logOracle must undo if that transaction loses.
type logOp struct {
	lsn     wal.LSN
	obj     wal.ObjectID
	before  []byte
	logical bool
	delta   int64
}

// logOracle computes the expected post-recovery state directly from the
// durable record sequence.  The volatile trace is deliberately NOT
// consulted: post-crash state is a function of the durable log alone
// (crash discards all volatile state and recovery rebuilds from the
// device), so effects that executed but never reached the device — a
// commit whose force failed, an abort whose CLRs sat in the unsynced
// tail — must not influence the expectation.  Responsibility follows the
// paper's semantics: initially the invoker, moved by delegate records,
// extinguished by commit records and CLRs.
type logOracle struct {
	values   map[wal.ObjectID][]byte
	counters map[wal.ObjectID]int64
	live     map[wal.TxID]map[wal.ObjectID]map[wal.LSN]*logOp
	// prepared maps transactions with a durable prepare record to their
	// global id: at settlement they are winners iff the cluster decided
	// commit for that gid, losers otherwise (presumed abort).
	prepared map[wal.TxID]uint64
}

func newLogOracle() *logOracle {
	return &logOracle{
		values:   make(map[wal.ObjectID][]byte),
		counters: make(map[wal.ObjectID]int64),
		live:     make(map[wal.TxID]map[wal.ObjectID]map[wal.LSN]*logOp),
		prepared: make(map[wal.TxID]uint64),
	}
}

func (o *logOracle) addLive(tx wal.TxID, op *logOp) {
	objs := o.live[tx]
	if objs == nil {
		objs = make(map[wal.ObjectID]map[wal.LSN]*logOp)
		o.live[tx] = objs
	}
	if objs[op.obj] == nil {
		objs[op.obj] = make(map[wal.LSN]*logOp)
	}
	objs[op.obj][op.lsn] = op
}

func (o *logOracle) apply(rec *wal.Record) {
	switch rec.Type {
	case wal.TypeUpdate:
		o.values[rec.Object] = append([]byte(nil), rec.After...)
		o.addLive(rec.TxID, &logOp{
			lsn:    rec.LSN,
			obj:    rec.Object,
			before: append([]byte(nil), rec.Before...),
		})
	case wal.TypeIncrement:
		o.counters[rec.Object] += rec.Delta
		o.addLive(rec.TxID, &logOp{
			lsn:     rec.LSN,
			obj:     rec.Object,
			logical: true,
			delta:   rec.Delta,
		})
	case wal.TypeCLR:
		// A CLR both applies its compensation and extinguishes the
		// compensated update's undo obligation.
		if rec.Logical {
			o.counters[rec.Object] += rec.Delta // Delta is pre-negated
		} else {
			o.values[rec.Object] = append([]byte(nil), rec.Before...)
		}
		delete(o.live[rec.TxID][rec.Object], rec.Compensates)
	case wal.TypeDelegate, wal.TypeDelegateOut:
		// Everything tor is responsible for on the object moves to tee.
		// A delegate-out is the same local transfer — its gid/shard
		// fields only describe the cross-shard acquirer.
		moved := o.live[rec.Tor][rec.Object]
		if len(moved) == 0 {
			return
		}
		delete(o.live[rec.Tor], rec.Object)
		for _, op := range moved {
			o.addLive(rec.Tee, op)
		}
	case wal.TypeDelegateIn:
		// Bookkeeping on the acquirer's coordinator shard: no state.
	case wal.TypePrepare:
		// The vote: the transaction's fate now follows its global id.
		o.prepared[rec.TxID] = rec.GID
	case wal.TypeCommit:
		// The winner's responsibilities become permanent.
		delete(o.live, rec.TxID)
		delete(o.prepared, rec.TxID)
	case wal.TypeEnd:
		delete(o.live, rec.TxID)
		delete(o.prepared, rec.TxID)
	}
}

// settle resolves this shard's prepared transactions against the
// cluster-wide decisions — a prepared transaction whose global id the
// coordinator durably committed is a winner; every other prepared
// transaction falls to presumed abort — then undoes the remaining
// losers.  Single-shard sweeps call crashUndo directly (no prepares).
func (o *logOracle) settle(committed map[uint64]bool) {
	for tx, gid := range o.prepared {
		if committed[gid] {
			delete(o.live, tx)
		}
	}
	o.crashUndo()
}

// crashUndo settles the crash: every update still attributable to a live
// (= loser) transaction is undone, in reverse LSN order — exactly the
// backward pass recovery performs.
func (o *logOracle) crashUndo() {
	var ops []*logOp
	for _, objs := range o.live {
		for _, lsns := range objs {
			for _, op := range lsns {
				ops = append(ops, op)
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].lsn > ops[j].lsn })
	for _, op := range ops {
		if op.logical {
			o.counters[op.obj] -= op.delta
		} else {
			o.values[op.obj] = append([]byte(nil), op.before...)
		}
	}
	o.live = make(map[wal.TxID]map[wal.ObjectID]map[wal.LSN]*logOp)
}

// Run executes the crash-point sweep for cfg with group commit off and
// the sequential recovery schedule, and returns the aggregated result.
func Run(cfg Config) (Result, error) {
	return cfg.sweep(core.Options{GroupCommit: core.GroupCommitOff})
}

// RunReadsDuringRecovery executes the crash-point sweep with the engine's
// parallel recovery pipeline (core.Options.ParallelRecovery) and, at
// every boundary, issues reads of every object and counter WHILE the
// pipeline is still running — Recover returns with recovery in flight,
// so the reads race the redo drain and the backward undo sweep.  Each
// read triggers on-demand redo of its object's chain and waits for the
// undo of the loser clusters covering it, so it must already return the
// fully recovered value; the reads are judged by the same durable-log
// oracle as the sequential sweep, and the post-WaitRecovered state is
// checked against it a second time.  The undo-visit stream must stay one
// strictly decreasing sweep — the pipeline changes when redo happens,
// never the undo order.
func RunReadsDuringRecovery(cfg Config) (Result, error) {
	return cfg.sweep(core.Options{GroupCommit: core.GroupCommitOff, ParallelRecovery: true})
}

// sweep runs the core sweep on engines opened with opts (PoolSize and
// LogDir are filled in).  With group commit off every commit and abort
// forces exactly one sync, so the crash points are a pure function of
// the trace; with opts.ParallelRecovery every point also reads the whole
// object space mid-recovery.
func (cfg Config) sweep(opts core.Options) (Result, error) {
	cfg = cfg.withDefaults()
	opts.PoolSize = cfg.PoolSize
	trace := sim.Generate(cfg.simConfig())
	var res Result
	_, c, err := runSweep(sweepSpec{seed: cfg.Seed, tornEvery: cfg.TornEvery, max: cfg.MaxBoundaries},
		func() *coreTrial { return &coreTrial{cfg: cfg, opts: opts, trace: trace} },
		func(t *coreTrial) {
			res.AmbiguousWins += t.res.AmbiguousWins
			res.Winners += t.res.Winners
			res.Losers += t.res.Losers
			res.Records += t.res.Records
			res.UndoVisits += t.res.UndoVisits
		})
	res.Boundaries, res.Crashes, res.TornCrashes = c.points, c.crashes, c.torn
	return res, err
}

// coreTrial is one crash point of the core sweep: the sim trace
// replayed on one engine.
type coreTrial struct {
	cfg   Config
	opts  core.Options
	trace []sim.Action
	eng   *core.Engine
	r     *sim.Replayer
	// failed is the index of the action that observed the crash, -1 if
	// the trace ran out first.
	failed int
	res    Result
}

func (t *coreTrial) open(dirs []wal.Dir) (err error) {
	opts := t.opts
	opts.LogDir = dirs[0]
	t.eng, err = core.New(opts)
	return err
}

func (t *coreTrial) run() error {
	t.r = sim.NewReplayer(sim.CoreTarget{Engine: t.eng}, t.trace)
	t.failed = -1
	for {
		ok, err := t.r.Step()
		if err != nil {
			if !isCrashSignal(err) {
				return fmt.Errorf("unexpected replay error: %w", err)
			}
			t.failed = t.r.Pos() - 1
			return nil
		}
		if !ok {
			return nil
		}
	}
}

func (t *coreTrial) empty() error {
	return checkState(t.eng, newLogOracle(), "after init-time crash", t.cfg.Objects, t.cfg.Counters, nil)
}

func (t *coreTrial) judge(b *boundary) error {
	recs := b.recs[0]
	oracle := replayOracle(recs)
	winners := durableWinners(recs)
	ids := t.r.IDs()
	t.res = Result{Records: len(recs), Winners: len(winners), Losers: len(ids) - len(winners)}
	// Commit-ack ambiguity: the replay saw this commit FAIL, yet its
	// record is durable (it landed in the torn tail) — a winner whose
	// ack was lost to the crash.
	if t.failed >= 0 && t.trace[t.failed].Kind == sim.ActCommit && winners[ids[t.trace[t.failed].Tx]] {
		t.res.AmbiguousWins = 1
	}
	if err := t.eng.Crash(); err != nil {
		return err
	}
	var during func() error
	if t.opts.ParallelRecovery {
		during = func() error { return t.readDuringRecovery(oracle) }
	}
	visits, err := recoverVisits(t.eng, func() error {
		if err := t.eng.Recover(); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		return nil
	}, during)
	if err != nil {
		return err
	}
	t.res.UndoVisits = visits
	return checkState(t.eng, oracle, "after recovery", t.cfg.Objects, t.cfg.Counters, nil)
}

// readDuringRecovery races the recovery pipeline: two readers split the
// object space and check every value against the oracle while redo and
// undo are (possibly) still in flight.
func (t *coreTrial) readDuringRecovery(oracle *logOracle) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for part := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[part] = checkState(t.eng, oracle, "mid-recovery", t.cfg.Objects, t.cfg.Counters,
				func(id wal.ObjectID) bool { return int(id)%2 == part })
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
