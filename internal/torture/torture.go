// Package torture is the fault-injection torture harness for crash
// recovery: it drives delegation-heavy randomized workloads over a
// fault.Dir log device, crashes the engine at every injected boundary,
// recovers, and checks the recovered state against the sim oracle plus
// log-level invariants.
//
// The central entry point is Run, the crash-point sweep.  One seed fully
// determines a workload trace AND the set of crash points it is swept
// over: a probe replay counts the device syncs the trace performs (with
// group commit off, every commit and abort forces exactly one), then the
// trace is re-run once per boundary k with a fault.Plan that freezes the
// device after sync k — on even boundaries additionally persisting a
// seeded torn prefix of the unsynced tail.  Every boundary is therefore
// enumerable, reproducible and independently replayable.
//
// Correctness at a boundary is judged against the durable log, not
// against what the replay observed: post-crash state is a function of
// the bytes on the device alone.  A commit whose ack never returned may
// still be durable (its record landed in the torn tail) and is then a
// winner — the classic commit-ack ambiguity — while an abort that ran
// to completion in memory may have left no durable CLRs and so never
// happened.  The harness therefore decodes the post-crash device image
// and replays the record sequence through an independent record-level
// oracle (responsibility moved by delegate records, extinguished by
// commit records and CLRs, losers undone in reverse LSN order), and
// requires the recovered engine to agree with it on every object and
// counter.  The sim package's trace-level oracle judges the no-crash
// modes (TransientRun), where volatile execution and durable log agree.
//
// Two further modes complement the sweep: ScopeAudit replays a trace
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
	"runtime"
	"sort"
	"sync"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/obs"
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

// isCrashSignal reports whether a replay error is the expected face of an
// armed crash schedule: the frozen device surfacing through a commit
// force, or the engine having already moved to degraded mode because an
// abort absorbed the device error.
func isCrashSignal(err error) bool {
	return errors.Is(err, fault.ErrCrashPoint) || errors.Is(err, core.ErrDegraded)
}

// decodeStable decodes a post-crash directory image into its durable
// record sequence via wal.ReadDurable: manifest selection, per-segment
// frames, stopping cleanly at the torn tail — exactly as recovery's
// analysis scan does.
func decodeStable(dir *fault.Dir) ([]*wal.Record, error) {
	_, recs, err := wal.ReadDurable(dir.StableDir())
	return recs, err
}

// initCrashRecovery settles a boundary that fired inside log
// initialization: the segmented log takes its own syncs to come up (the
// first segment header, then manifest generation 1), so the earliest
// boundaries freeze the device before the engine ever exists.  The
// crash contract is the same as at any other point — the durable image
// (a partial bootstrap: possibly a segment header with no manifest)
// must decode to zero records, and a fresh engine opened over it must
// come up empty.  Reports whether a torn tail was persisted.
func initCrashRecovery(store *fault.Dir, open func() (*core.Engine, error)) (bool, error) {
	tornBytes, err := store.CrashNow()
	if err != nil {
		return false, err
	}
	recs, err := decodeStable(store)
	if err != nil {
		return false, fmt.Errorf("decode durable log after init-time crash: %w", err)
	}
	if len(recs) != 0 {
		return false, fmt.Errorf("init-time crash left %d durable records, want 0", len(recs))
	}
	eng, err := open()
	if err != nil {
		return false, fmt.Errorf("reopen after init-time crash: %w", err)
	}
	if got, _, err := eng.ReadObject(1); err != nil {
		return false, err
	} else if len(got) != 0 {
		return false, fmt.Errorf("object 1 = %q after init-time crash, want empty", got)
	}
	return tornBytes > 0, nil
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

// Run executes the crash-point sweep for cfg and returns the aggregated
// result.  Boundaries are independent (each gets a fresh engine and
// device) and are swept concurrently; the first failure aborts the sweep.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	trace := sim.Generate(cfg.simConfig())

	// Probe: count the sync boundaries the trace performs.  With group
	// commit off every commit/abort forces exactly one device sync (plus
	// the log-initialization and any rotation syncs), so the count — and
	// with it every crash point — is a pure function of the trace.
	probe := fault.NewDir(fault.Plan{})
	eng, err := core.New(core.Options{
		LogDir:      probe,
		GroupCommit: core.GroupCommitOff,
		PoolSize:    cfg.PoolSize,
	})
	if err != nil {
		return Result{}, err
	}
	if err := sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace).RunTo(-1); err != nil {
		return Result{}, fmt.Errorf("torture: probe replay: %w", err)
	}
	boundaries := int(probe.Syncs())

	res := Result{Boundaries: boundaries}
	sweep := boundaries
	if cfg.MaxBoundaries > 0 && sweep > cfg.MaxBoundaries {
		sweep = cfg.MaxBoundaries
	}

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for k := 1; k <= sweep; k++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			b, err := cfg.runBoundary(trace, uint64(k))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("torture: seed %d boundary %d: %w", cfg.Seed, k, err)
				}
				return
			}
			res.Crashes++
			res.TornCrashes += b.torn
			res.AmbiguousWins += b.ambiguous
			res.Winners += b.winners
			res.Losers += b.losers
			res.Records += b.records
			res.UndoVisits += b.undoVisits
		}(k)
	}
	wg.Wait()
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

type boundaryStats struct {
	torn       int
	ambiguous  int
	winners    int
	losers     int
	records    int
	undoVisits int
}

// runBoundary replays trace against a device that freezes after sync k,
// crashes at the frozen boundary, recovers, and checks the recovered
// state against the oracle and the undo-pass invariants.
func (cfg Config) runBoundary(trace []sim.Action, k uint64) (boundaryStats, error) {
	var bs boundaryStats
	plan := fault.Plan{
		// Decorrelate the torn-tail length choice across boundaries
		// while keeping each boundary individually reproducible.
		Seed:        cfg.Seed ^ int64(uint64(k)*0x9E3779B97F4A7C15),
		CrashAtSync: k,
		TornTail:    cfg.TornEvery > 0 && k%uint64(cfg.TornEvery) == 0,
	}
	store := fault.NewDir(plan)
	mk := func() (*core.Engine, error) {
		return core.New(core.Options{
			LogDir:      store,
			GroupCommit: core.GroupCommitOff,
			PoolSize:    cfg.PoolSize,
		})
	}
	eng, err := mk()
	if err != nil {
		if !isCrashSignal(err) {
			return bs, err
		}
		// The boundary fired inside log initialization — no engine, no
		// workload.  Settle it as a crash over the partial bootstrap.
		torn, err := initCrashRecovery(store, mk)
		if err != nil {
			return bs, err
		}
		if torn {
			bs.torn = 1
		}
		return bs, nil
	}
	r := sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace)

	// Replay until the crash schedule surfaces (or the trace ends, for
	// boundaries at or past the last sync).  failedIdx is the index of
	// the one action that observed the device error, -1 if none did.
	failedIdx := -1
	for {
		ok, err := r.Step()
		if err != nil {
			if !isCrashSignal(err) {
				return bs, fmt.Errorf("unexpected replay error: %w", err)
			}
			failedIdx = r.Pos() - 1
			break
		}
		if !ok {
			break
		}
	}
	// Materialize the crash: rewind the device to the stable image plus
	// the plan's torn tail, then judge everything from what is actually
	// on the device.
	tornBytes, err := store.CrashNow()
	if err != nil {
		return bs, err
	}
	if tornBytes > 0 {
		bs.torn = 1
	}
	recs, err := decodeStable(store)
	if err != nil {
		return bs, fmt.Errorf("decode durable log: %w", err)
	}
	bs.records = len(recs)
	winners := durableWinners(recs)

	// Expected state: replay the durable record sequence through the
	// log oracle, then undo whatever is still attributable to a loser.
	oracle := newLogOracle()
	for _, rec := range recs {
		oracle.apply(rec)
	}
	oracle.crashUndo()

	ids := r.IDs()
	bs.winners = len(winners)
	bs.losers = len(ids) - len(winners)
	// Commit-ack ambiguity: the replay saw this commit FAIL, yet its
	// record is durable (it landed in the torn tail) — a winner whose
	// ack was lost to the crash.
	if failedIdx >= 0 && trace[failedIdx].Kind == sim.ActCommit && winners[ids[trace[failedIdx].Tx]] {
		bs.ambiguous++
	}

	// Crash and recover, capturing the undo visit stream.
	if err := eng.Crash(); err != nil {
		return bs, err
	}
	var visits []wal.LSN
	eng.SetEventHook(func(ev obs.Event) {
		if ev.Name == "undo.visit" {
			visits = append(visits, wal.LSN(ev.LSN))
		}
	})
	err = eng.Recover()
	eng.SetEventHook(nil)
	if err != nil {
		return bs, fmt.Errorf("recover: %w", err)
	}
	bs.undoVisits = len(visits)

	// Log-level invariants: the backward pass is one monotone sweep —
	// strictly decreasing LSNs, no record visited twice.
	seen := make(map[wal.LSN]bool, len(visits))
	for i, lsn := range visits {
		if seen[lsn] {
			return bs, fmt.Errorf("undo visited LSN %d twice", lsn)
		}
		seen[lsn] = true
		if i > 0 && lsn >= visits[i-1] {
			return bs, fmt.Errorf("undo visits not strictly decreasing: %d then %d", visits[i-1], lsn)
		}
	}

	// State check: the recovered engine must agree with the oracle on
	// every object and every counter.
	for obj := 1; obj <= cfg.Objects; obj++ {
		id := wal.ObjectID(obj)
		want := oracle.values[id]
		got, _, err := eng.ReadObject(id)
		if err != nil {
			return bs, err
		}
		if string(got) != string(want) {
			return bs, fmt.Errorf("object %d: engine %q, oracle %q (winners %v)",
				obj, got, want, winners)
		}
	}
	for c := cfg.Objects + 1; c <= cfg.Objects+cfg.Counters; c++ {
		id := wal.ObjectID(c)
		got, err := eng.CounterValue(id)
		if err != nil {
			return bs, err
		}
		if want := oracle.counters[id]; got != want {
			return bs, fmt.Errorf("counter %d: engine %d, oracle %d", c, got, want)
		}
	}
	return bs, nil
}
