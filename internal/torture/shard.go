package torture

// Cross-shard crash torture: the sharded analogue of Run.  One seed
// determines a trace of global transactions over a shard.DB — updates,
// cross-shard delegations, commits (single-shard and two-phase) and
// aborts — plus the full set of crash points it is swept over: a probe
// replay counts each shard's device syncs, then the trace is re-run
// once per (shard, boundary) pair with a fault.Plan freezing THAT
// shard's device after ITS sync k, so every participant of every
// two-phase commit is crashed at every force it performs: before its
// prepare, between prepare and the coordinator's decision, after the
// decision but before phase 2, and inside its own log bootstrap.
//
// Atomicity is judged against the durable logs alone, per the
// per-shard-logged protocol's own rule: a global transaction is
// committed iff some shard's durable log carries both its prepare
// record and a commit record for the same local transaction — the
// coordinator's decision, or a phase-2 commit that can only exist
// after it.  Every shard's expected state is then the log oracle's
// settlement under those decisions (prepared branches of decided
// winners survive; everything else falls to presumed abort), and the
// recovered cluster must agree on every object, with no transaction
// left in doubt.

import (
	"fmt"
	"math/rand"

	"ariesrh/internal/core"
	"ariesrh/internal/shard"
	"ariesrh/internal/wal"
)

// ShardConfig parameterizes a cross-shard sweep.  The zero value is
// usable.
type ShardConfig struct {
	// Seed determines the trace and every injected fault.
	Seed int64
	// Shards is the cluster size (default 3 — enough for a coordinator
	// plus two voting participants in one transaction).
	Shards int
	// Steps is the number of global transactions the trace terminates.
	Steps int
	// Objects is the object-id space; ids route to shard id%Shards.
	Objects int
	// MaxOpen bounds concurrently open global transactions.
	MaxOpen int
	// DelegationRate is the per-step probability of a cross-transaction
	// delegation; AbortFraction the fraction of terminations that abort.
	DelegationRate float64
	AbortFraction  float64
	// PoolSize is each shard engine's buffer-pool size.
	PoolSize int
	// MaxBoundaries caps the number of (shard, sync) crash points swept
	// (0 = all).  Points are enumerated boundary-first across shards, so
	// a capped sweep still crashes every shard.
	MaxBoundaries int
	// TornEvery tears the crashed shard's unsynced tail at every
	// TornEvery-th boundary (0 disables; default every 2nd).
	TornEvery int
}

func (c ShardConfig) withDefaults() ShardConfig {
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Steps <= 0 {
		c.Steps = 60
	}
	if c.Objects <= 0 {
		c.Objects = 18
	}
	if c.MaxOpen <= 0 {
		c.MaxOpen = 3
	}
	if c.DelegationRate == 0 {
		c.DelegationRate = 0.30
	}
	if c.AbortFraction == 0 {
		c.AbortFraction = 0.30
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 64
	}
	if c.TornEvery == 0 {
		c.TornEvery = 2
	}
	return c
}

// ShardResult aggregates a cross-shard sweep.
type ShardResult struct {
	// Boundaries is the number of (shard, sync) crash points enumerated;
	// Crashes how many were crashed and recovered.
	Boundaries int
	Crashes    int
	// TornCrashes counts boundaries where the crashed shard persisted a
	// non-empty torn prefix of its unsynced tail.
	TornCrashes int
	// GlobalCommits is the cumulative count of globally-decided
	// two-phase commits found durable across all boundaries; Resolved
	// the cumulative in-doubt transactions recovery had to settle.
	GlobalCommits int
	Resolved      int
	// Records is the cumulative durable record count decoded from
	// post-crash images, summed over shards.
	Records int
}

// shardModRouter routes obj to shard obj % n: deterministic placement
// so the trace generator knows every transaction's participant set.
type shardModRouter struct{}

func (shardModRouter) Route(obj wal.ObjectID, n int) uint32 {
	return uint32(uint64(obj) % uint64(n))
}

// Trace ops.
const (
	shardOpBegin = iota
	shardOpUpdate
	shardOpDelegate
	shardOpCommit
	shardOpAbort
)

type shardOp struct {
	kind int
	txn  int // trace-local transaction index
	to   int // delegatee index (delegate only)
	obj  wal.ObjectID
	val  []byte
}

// genTxn is the generator's view of one open global transaction.
type genTxn struct {
	idx    int
	locked []wal.ObjectID        // lock-acquisition order, for deterministic picks
	resp   map[wal.ObjectID]bool // objects with undoable updates (delegable)
}

// genShardTrace generates a deterministic, conflict-free trace: the
// replay runs single-threaded, and the generator only ever lets a
// transaction update an object no OTHER open transaction holds, so no
// op can block on a lock.  Delegation shares the object's lock between
// delegator and delegatee (matching the engine's transfer semantics),
// after which neither — nor anyone else — updates it until both have
// terminated.
func genShardTrace(cfg ShardConfig) []shardOp {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var ops []shardOp
	var open []*genTxn
	holders := make(map[wal.ObjectID][]int)
	next, terminated, seq := 0, 0, 0

	holdsOnly := func(obj wal.ObjectID, idx int) bool {
		hs := holders[obj]
		return len(hs) == 0 || (len(hs) == 1 && hs[0] == idx)
	}
	holds := func(obj wal.ObjectID, idx int) bool {
		for _, h := range holders[obj] {
			if h == idx {
				return true
			}
		}
		return false
	}
	terminate := func(t *genTxn, kind int) {
		ops = append(ops, shardOp{kind: kind, txn: t.idx})
		for _, obj := range t.locked {
			hs := holders[obj][:0]
			for _, h := range holders[obj] {
				if h != t.idx {
					hs = append(hs, h)
				}
			}
			holders[obj] = hs
		}
		for i, o := range open {
			if o == t {
				open = append(open[:i], open[i+1:]...)
				break
			}
		}
		terminated++
	}

	for terminated < cfg.Steps {
		if len(open) < cfg.MaxOpen && (len(open) == 0 || rng.Float64() < 0.35) {
			t := &genTxn{idx: next, resp: make(map[wal.ObjectID]bool)}
			next++
			open = append(open, t)
			ops = append(ops, shardOp{kind: shardOpBegin, txn: t.idx})
		}
		t := open[rng.Intn(len(open))]
		r := rng.Float64()
		switch {
		case r < 0.22:
			kind := shardOpCommit
			if rng.Float64() < cfg.AbortFraction {
				kind = shardOpAbort
			}
			terminate(t, kind)
		case r < 0.22+cfg.DelegationRate && len(open) >= 2 && len(t.resp) > 0:
			// Delegate one of t's objects to another open transaction.
			var cands []wal.ObjectID
			for _, obj := range t.locked {
				if t.resp[obj] {
					cands = append(cands, obj)
				}
			}
			obj := cands[rng.Intn(len(cands))]
			var others []*genTxn
			for _, o := range open {
				if o != t {
					others = append(others, o)
				}
			}
			to := others[rng.Intn(len(others))]
			ops = append(ops, shardOp{kind: shardOpDelegate, txn: t.idx, to: to.idx, obj: obj})
			delete(t.resp, obj)
			if !holds(obj, to.idx) {
				holders[obj] = append(holders[obj], to.idx)
				to.locked = append(to.locked, obj)
			}
		default:
			// Update an object free of other transactions' locks.
			var cands []wal.ObjectID
			for obj := wal.ObjectID(1); obj <= wal.ObjectID(cfg.Objects); obj++ {
				if holdsOnly(obj, t.idx) {
					cands = append(cands, obj)
				}
			}
			if len(cands) == 0 {
				terminate(t, shardOpCommit)
				continue
			}
			obj := cands[rng.Intn(len(cands))]
			seq++
			ops = append(ops, shardOp{
				kind: shardOpUpdate, txn: t.idx, obj: obj,
				val: []byte(fmt.Sprintf("g%d.%d", t.idx, seq)),
			})
			if !holds(obj, t.idx) {
				holders[obj] = append(holders[obj], t.idx)
				t.locked = append(t.locked, obj)
			}
			t.resp[obj] = true
		}
	}
	return ops
}

// replayShardTrace drives the trace against db, stopping cleanly at
// the first crash signal (the armed schedule surfacing).  Any other
// error is a harness failure.
func replayShardTrace(db *shard.DB, ops []shardOp) error {
	txns := make(map[int]*shard.Txn)
	for _, op := range ops {
		var err error
		switch op.kind {
		case shardOpBegin:
			txns[op.txn], err = db.Begin()
		case shardOpUpdate:
			err = txns[op.txn].Update(op.obj, op.val)
		case shardOpDelegate:
			err = txns[op.txn].Delegate(txns[op.to], op.obj)
		case shardOpCommit:
			err = txns[op.txn].Commit()
		case shardOpAbort:
			err = txns[op.txn].Abort()
		}
		if err != nil {
			if isCrashSignal(err) {
				return nil
			}
			return fmt.Errorf("unexpected replay error: %w", err)
		}
	}
	return nil
}

// durableDecisions scans every shard's durable records for the
// protocol's commit evidence: a prepare record binding a local
// transaction to a gid, followed by a commit record for that local
// transaction on the same log.  On the coordinator that pair IS the
// decision; on a participant it is phase 2, which only runs after the
// decision was forced — either way the gid is globally committed.
//
// It also enforces the protocol's no-contradiction invariant directly
// on the durable bytes: no shard's log may carry an abort record for a
// prepared branch of a gid any log commits.  A prepared branch may
// only be aborted while no decision can be durable (a phase-1 failure,
// or presumed abort at recovery — which runs after this scan), so a
// durable commit decision coexisting with a durable participant abort
// means some run aborted a branch whose global transaction was
// decided committed: the exact cross-shard atomicity violation a
// failed decision force could cause if it were treated as an abort.
func durableDecisions(perShard [][]*wal.Record) (map[uint64]bool, error) {
	committed := make(map[uint64]bool)
	aborted := make(map[uint64]int)
	for i, recs := range perShard {
		prepGID := make(map[wal.TxID]uint64)
		for _, rec := range recs {
			switch rec.Type {
			case wal.TypePrepare:
				prepGID[rec.TxID] = rec.GID
			case wal.TypeCommit:
				if gid, ok := prepGID[rec.TxID]; ok {
					committed[gid] = true
				}
			case wal.TypeAbort:
				if gid, ok := prepGID[rec.TxID]; ok {
					aborted[gid] = i
					delete(prepGID, rec.TxID)
				}
			}
		}
	}
	for gid, shard := range aborted {
		if committed[gid] {
			return nil, fmt.Errorf("atomicity violation in durable logs: shard %d aborted a prepared branch of gid %d, which another log commits", shard, gid)
		}
	}
	return committed, nil
}

// RunShards executes the cross-shard crash sweep for cfg with group
// commit off: every prepare, decision and single-shard commit forces
// exactly one sync on its shard, so each shard's crash points are a pure
// function of the trace and the router.
func RunShards(cfg ShardConfig) (ShardResult, error) {
	return cfg.sweep(core.Options{GroupCommit: core.GroupCommitOff})
}

// sweep runs the cross-shard sweep on clusters whose shards take
// opts' GroupCommit, EarlyLockRelease and ParallelRecovery.  Each crash
// point freezes one shard's device after its sync k and crashes the
// whole cluster there.
func (cfg ShardConfig) sweep(opts core.Options) (ShardResult, error) {
	cfg = cfg.withDefaults()
	trace := genShardTrace(cfg)
	spec := sweepSpec{seed: cfg.Seed, devices: cfg.Shards, tornEvery: cfg.TornEvery, max: cfg.MaxBoundaries}
	var res ShardResult
	_, c, err := runSweep(spec, func() *shardTrial { return &shardTrial{cfg: cfg, opts: opts, trace: trace} },
		func(t *shardTrial) {
			res.GlobalCommits += t.res.GlobalCommits
			res.Resolved += t.res.Resolved
			res.Records += t.res.Records
		})
	res.Boundaries, res.Crashes, res.TornCrashes = c.points, c.crashes, c.torn
	return res, err
}

// shardTrial is one crash point of the cross-shard sweep.
type shardTrial struct {
	cfg   ShardConfig
	opts  core.Options
	trace []shardOp
	db    *shard.DB
	res   ShardResult
}

// open opens a shard.DB over the per-shard log devices with the sweep's
// deterministic mod router.
func (t *shardTrial) open(dirs []wal.Dir) (err error) {
	t.db, err = shard.Open(shard.Options{
		Shards:           t.cfg.Shards,
		LogDirs:          dirs,
		PoolSize:         t.cfg.PoolSize,
		GroupCommit:      t.opts.GroupCommit,
		EarlyLockRelease: t.opts.EarlyLockRelease,
		ParallelRecovery: t.opts.ParallelRecovery,
		Router:           shardModRouter{},
	})
	return err
}

func (t *shardTrial) run() error { return replayShardTrace(t.db, t.trace) }

func (t *shardTrial) empty() error {
	defer t.db.Close()
	return t.check(make([]*logOracle, t.cfg.Shards), "after init-time crash")
}

// check requires every shard to agree with its oracle (nil: empty) on
// every object it is home to.
func (t *shardTrial) check(oracles []*logOracle, phase string) error {
	for i, o := range oracles {
		if o == nil {
			o = newLogOracle()
		}
		home := func(id wal.ObjectID) bool { return int(uint64(id)%uint64(t.cfg.Shards)) == i }
		if err := checkState(t.db.Engine(i), o, fmt.Sprintf("shard %d %s", i, phase), t.cfg.Objects, 0, home); err != nil {
			return err
		}
	}
	return nil
}

func (t *shardTrial) judge(b *boundary) error {
	for _, recs := range b.recs {
		t.res.Records += len(recs)
	}
	// The protocol's own atomicity rule, applied to the durable bytes:
	// which global ids are committed, everywhere or nowhere — and no
	// durable abort may contradict a durable decision.
	committed, err := durableDecisions(b.recs)
	if err != nil {
		return err
	}
	t.res.GlobalCommits = len(committed)

	// Expected per-shard state: each shard's durable records through the
	// log oracle, prepared branches settled by the global decisions,
	// remaining losers undone.
	oracles := make([]*logOracle, t.cfg.Shards)
	for i, recs := range b.recs {
		oracles[i] = newLogOracle()
		for _, rec := range recs {
			oracles[i].apply(rec)
		}
		oracles[i].settle(committed)
	}

	// Crash and recover the cluster; Recover waits for every shard's
	// pipeline and resolves every in-doubt participant from the
	// coordinator's durable decision.
	if err := t.db.Crash(); err != nil {
		return err
	}
	if err := t.db.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	t.res.Resolved = int(t.db.Metrics().Counter("router.indoubt_resolved"))
	for i := 0; i < t.cfg.Shards; i++ {
		if d := t.db.Engine(i).InDoubt(); len(d) != 0 {
			return fmt.Errorf("shard %d: %d transactions still in doubt after Recover", i, len(d))
		}
	}

	// State check: this IS the atomicity check, since the oracles
	// applied one global decision set across all shards.
	if err := t.check(oracles, "after recovery"); err != nil {
		return fmt.Errorf("%w (committed gids %v)", err, committed)
	}
	return t.db.Close()
}
