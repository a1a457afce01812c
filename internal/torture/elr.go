// ELR torture: the crash-between-release-and-flush sweep.
//
// Early lock release opens a window the core sweep in torture.go cannot
// reach: a committer has appended its commit record and released its
// write locks, but the record is not yet durable.  Other transactions
// acquire those locks inside the window, form commit dependencies, and
// commit on top of the pre-durable predecessor.  A crash inside the
// window must not let any dependent survive a predecessor whose commit
// record was lost — that would expose a write derived from a commit that
// never happened.
//
// The serial replayer cannot open this window (it issues one operation at
// a time, so nothing runs while a commit waits for its flush), so the ELR
// sweep drives a genuinely concurrent workload: several workers hammer a
// small set of hot objects, occasionally delegating mid-transaction, with
// every device sync slowed by an injected delay so that commits linger in
// the pre-durable state while competitors run.  The interleaving is
// nondeterministic; correctness is judged — exactly as in the serial
// sweep — from the durable bytes alone, via the record-level log oracle.
// On top of the oracle check the sweep asserts the dependency invariant
// directly: every violation edge (dependent, predecessor) observed at
// runtime must satisfy "dependent durable ⇒ predecessor durable", which
// the single prefix-flushed log is supposed to make structural.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/lock"
	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// ELRConfig parameterizes an early-lock-release crash sweep.  The zero
// value is usable; every field defaults to a contended workload.
type ELRConfig struct {
	// Seed drives each worker's operation choices and each boundary's
	// torn-tail length.  The interleaving itself is scheduler-dependent,
	// so unlike Config the sweep is not byte-reproducible — judging from
	// the durable image makes that sound.
	Seed int64
	// Workers is the number of concurrent committers.
	Workers int
	// Rounds is the number of transactions each worker attempts.
	Rounds int
	// Objects is the number of hot value objects (IDs 1..Objects); small
	// counts maximize lock violations.  Counters adds hot counter
	// objects (IDs Objects+1..Objects+Counters) exercised by Increment.
	Objects  int
	Counters int
	// DelegationRate is the fraction of rounds that delegate their first
	// object to a second transaction before committing — covering the
	// delegate-then-violate interaction.
	DelegationRate float64
	// AbortFraction is the fraction of rounds that abort instead of
	// committing.
	AbortFraction float64
	// MaxBoundaries caps the number of crash points swept (0 = all).
	MaxBoundaries int
	// TornEvery tears the unsynced tail at every TornEvery-th boundary.
	TornEvery int
	// SyncDelay is injected before every device sync, widening the
	// pre-durable window so violations actually form.
	SyncDelay time.Duration
}

func (c ELRConfig) withDefaults() ELRConfig {
	if c.Workers <= 0 {
		c.Workers = 6
	}
	if c.Rounds <= 0 {
		c.Rounds = 30
	}
	if c.Objects <= 0 {
		c.Objects = 4
	}
	if c.Counters == 0 {
		c.Counters = 2
	}
	if c.DelegationRate == 0 {
		c.DelegationRate = 0.2
	}
	if c.AbortFraction == 0 {
		c.AbortFraction = 0.15
	}
	if c.TornEvery == 0 {
		c.TornEvery = 2
	}
	if c.SyncDelay == 0 {
		c.SyncDelay = 200 * time.Microsecond
	}
	return c
}

// ELRResult aggregates an ELR sweep.
type ELRResult struct {
	// Boundaries is the sync count of the fault-free probe run; Crashes
	// is how many boundaries were swept; Fired counts boundaries where
	// the crash schedule actually triggered (a boundary past the swept
	// run's own sync count never freezes — the workload just finishes).
	Boundaries int
	Crashes    int
	Fired      int
	// TornCrashes counts boundaries that persisted a torn tail.
	TornCrashes int
	// Violations is the cumulative count of lock violations observed
	// (elr.violate events = commit-dependency edges formed); every one
	// was checked against the dependency invariant.
	Violations int
	// Winners, Losers and Records are cumulative durable-log
	// classifications across boundaries, as in Result.
	Winners, Losers int
	Records         int
}

// violationEdge is one observed elr.violate event: dep acquired a lock
// released early by the then-pre-durable pred.
type violationEdge struct {
	dep, pred wal.TxID
}

// elrStop reports whether a worker should stop: the device is frozen or
// the engine has left normal processing.  ErrCommitAborted means this
// worker's own commit was rolled back by a flush failure — under the
// injected crash schedule the device never heals, so there is no point
// continuing.
func elrStop(err error) bool {
	return errors.Is(err, fault.ErrCrashPoint) ||
		errors.Is(err, core.ErrDegraded) ||
		errors.Is(err, core.ErrCrashed) ||
		errors.Is(err, core.ErrCommitAborted)
}

// elrBenign reports whether a worker error is an expected casualty of the
// concurrent workload rather than a bug: a deadlock victimization, or the
// transaction having been terminated underneath the worker by a cascaded
// abort.
func elrBenign(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) || errors.Is(err, core.ErrNoSuchTxn)
}

// ELRRun executes the early-lock-release crash sweep and returns the
// aggregated result.  Every device sync sleeps cfg.SyncDelay, in the
// probe as at every boundary, and each post-crash image is judged by the
// log oracle plus the dependency invariant.
func ELRRun(cfg ELRConfig) (ELRResult, error) {
	cfg = cfg.withDefaults()
	spec := sweepSpec{
		name:      "elr ",
		seed:      cfg.Seed,
		plan:      fault.Plan{SyncDelay: cfg.SyncDelay, DelayEveryNthSync: 1},
		tornEvery: cfg.TornEvery,
		max:       cfg.MaxBoundaries,
	}
	var res ELRResult
	_, c, err := runSweep(spec, func() *elrTrial { return &elrTrial{cfg: cfg} },
		func(t *elrTrial) {
			res.Violations += t.res.Violations
			res.Winners += t.res.Winners
			res.Losers += t.res.Losers
			res.Records += t.res.Records
		})
	res.Boundaries, res.Crashes, res.Fired, res.TornCrashes = c.points, c.crashes, c.fired, c.torn
	return res, err
}

// elrTrial is one crash point of the ELR sweep.
type elrTrial struct {
	cfg ELRConfig
	eng *core.Engine
	// edges are the commit-dependency edges the run formed.  The hook
	// runs under the engine latch, so the slice needs its own lock only
	// against the judge's read.
	edgeMu sync.Mutex
	edges  []violationEdge
	res    ELRResult
}

func (t *elrTrial) open(dirs []wal.Dir) (err error) {
	t.eng, err = core.New(core.Options{
		LogDir:           dirs[0],
		GroupCommit:      core.GroupCommitOn,
		EarlyLockRelease: true,
		PoolSize:         64,
	})
	return err
}

func (t *elrTrial) run() error {
	t.eng.SetEventHook(func(ev obs.Event) {
		if ev.Name == "elr.violate" {
			t.edgeMu.Lock()
			t.edges = append(t.edges, violationEdge{dep: wal.TxID(ev.Tx), pred: wal.TxID(ev.Value)})
			t.edgeMu.Unlock()
		}
	})
	defer t.eng.SetEventHook(nil)
	return t.cfg.workload(t.eng)
}

func (t *elrTrial) empty() error {
	return checkState(t.eng, newLogOracle(), "after init-time crash", t.cfg.Objects, t.cfg.Counters, nil)
}

func (t *elrTrial) judge(b *boundary) error {
	recs := b.recs[0]
	winners := durableWinners(recs)

	// The dependency invariant: a dependent's durable commit implies its
	// predecessor's.  The dependent committed strictly after the
	// predecessor appended its commit record, so with prefix-ordered
	// flushing a surviving dependent commit record certifies the
	// predecessor's — any violation here means a dependent survived a
	// predecessor's lost commit.
	t.edgeMu.Lock()
	edges := t.edges
	t.edgeMu.Unlock()
	for _, e := range edges {
		if winners[e.dep] && !winners[e.pred] {
			return fmt.Errorf("dependent %d durable but predecessor %d's commit was lost",
				e.dep, e.pred)
		}
	}
	t.res = ELRResult{Violations: len(edges), Records: len(recs)}
	t.res.Winners, t.res.Losers = classify(recs)

	oracle := replayOracle(recs)
	if err := t.eng.Crash(); err != nil {
		return err
	}
	if _, err := recoverVisits(t.eng, t.eng.Recover, nil); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	return checkState(t.eng, oracle, "after recovery", t.cfg.Objects, t.cfg.Counters, nil)
}

// workload drives cfg.Workers concurrent committers over the hot object
// set until every worker finishes its rounds or stops on a crash signal.
// It returns the first unexpected error any worker hit (nil if the run —
// crashed or not — stayed within the fault model).
func (cfg ELRConfig) workload(eng *core.Engine) error {
	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		badErr error
		setErr = func(err error) {
			errMu.Lock()
			if badErr == nil {
				badErr = err
			}
			errMu.Unlock()
		}
	)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000003 + int64(w)))
			for r := 0; r < cfg.Rounds; r++ {
				stop, err := cfg.round(eng, rng, w, r)
				if err != nil {
					setErr(err)
					return
				}
				if stop {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return badErr
}

// round runs one worker transaction: update one or two hot objects (in
// ascending ID order, bounding deadlocks), sometimes increment a hot
// counter, sometimes delegate the first object to a second transaction
// before committing, sometimes abort.  It reports (stop, err): stop ends
// the worker (the device froze or the engine left normal processing); a
// non-nil err is an unexpected failure that fails the boundary.  Every
// exit path terminates the transactions it began — a leaked active
// transaction would hold locks forever and wedge the other workers.
func (cfg ELRConfig) round(eng *core.Engine, rng *rand.Rand, w, r int) (bool, error) {
	tx, err := eng.Begin()
	if err != nil {
		if elrStop(err) {
			return true, nil
		}
		return true, err
	}
	// settle classifies an operation error: benign casualties abort the
	// transaction and end the round; crash signals end the worker.
	settle := func(err error) (bool, error) {
		_ = eng.Abort(tx) // best-effort; the tx may already be gone
		if elrStop(err) {
			return true, nil
		}
		if elrBenign(err) {
			return false, nil
		}
		return true, err
	}

	first := wal.ObjectID(1 + rng.Intn(cfg.Objects))
	objs := []wal.ObjectID{first}
	if rng.Intn(2) == 0 {
		second := wal.ObjectID(1 + rng.Intn(cfg.Objects))
		if second > first {
			objs = append(objs, second)
		}
	}
	for _, obj := range objs {
		val := []byte(fmt.Sprintf("w%d.r%d.o%d", w, r, obj))
		if err := eng.Update(tx, obj, val); err != nil {
			return settle(err)
		}
	}
	if rng.Float64() < 0.3 {
		ctr := wal.ObjectID(cfg.Objects + 1 + rng.Intn(cfg.Counters))
		if _, err := eng.Increment(tx, ctr, int64(rng.Intn(5)+1)); err != nil {
			return settle(err)
		}
	}

	if rng.Float64() < cfg.AbortFraction {
		if err := eng.Abort(tx); err != nil {
			if elrStop(err) || elrBenign(err) {
				return elrStop(err), nil
			}
			return true, err
		}
		return false, nil
	}

	if rng.Float64() < cfg.DelegationRate {
		return cfg.delegateAndCommit(eng, rng, tx, objs[0], w, r)
	}

	if err := eng.Commit(tx); err != nil {
		return settle(err)
	}
	return false, nil
}

// delegateAndCommit covers the delegation × ELR interaction: tx delegates
// its first object to a fresh transaction tee, commits (releasing its
// remaining locks early), and tee then updates the delegated object again
// and commits on top — the delegate-then-violate interleaving.  A crash
// between the two commits must take tee down with tx.
func (cfg ELRConfig) delegateAndCommit(eng *core.Engine, rng *rand.Rand, tx wal.TxID, obj wal.ObjectID, w, r int) (bool, error) {
	tee, err := eng.Begin()
	if err != nil {
		_ = eng.Abort(tx)
		if elrStop(err) {
			return true, nil
		}
		return true, err
	}
	settleBoth := func(err error) (bool, error) {
		_ = eng.Abort(tee)
		_ = eng.Abort(tx)
		if elrStop(err) {
			return true, nil
		}
		if elrBenign(err) {
			return false, nil
		}
		return true, err
	}
	if err := eng.Delegate(tx, tee, obj); err != nil {
		return settleBoth(err)
	}
	if err := eng.Commit(tx); err != nil {
		_ = eng.Abort(tee)
		if elrStop(err) {
			return true, nil
		}
		if elrBenign(err) {
			return false, nil
		}
		return true, err
	}
	settleTee := func(err error) (bool, error) {
		_ = eng.Abort(tee)
		if elrStop(err) {
			return true, nil
		}
		if elrBenign(err) {
			return false, nil
		}
		return true, err
	}
	if err := eng.Update(tee, obj, []byte(fmt.Sprintf("w%d.r%d.tee", w, r))); err != nil {
		return settleTee(err)
	}
	if err := eng.Commit(tee); err != nil {
		return settleTee(err)
	}
	return false, nil
}
