// Package shard implements the sharded ARIES/RH database: N
// independent core.Engine instances — each with its own write-ahead
// log, group flusher, lock manager and buffer pool — behind an
// object→shard router.
//
// Single-shard transactions route straight through to their engine's
// ordinary commit path, untouched.  A transaction that touches several
// shards commits through a lightweight two-phase commit whose
// prepare/commit/abort records ride each participant shard's own log:
// there is no separate coordinator log.  The coordinator is simply the
// first shard the transaction wrote on (read-only branches never
// vote); its local transaction prepares like any participant (binding
// the global id durably) and then commits — that forced commit record
// IS the global decision.  If no
// decision is durable anywhere, the outcome is abort (presumed abort):
// recovery on each shard re-instates its prepared transactions as
// in-doubt, asks the coordinator shard's recovered engine for the
// decision, and resolves them locally.
//
// Cross-shard delegation — the headline primitive — transfers
// responsibility for updates on an object between global transactions
// whose coordinators live on different shards.  The transfer itself is
// a delegate-out record on the object's home shard, between the two
// global transactions' LOCAL transactions there, so the paper's
// cluster-undo machinery never needs to cross a shard boundary; a
// delegate-in record on the acquirer's coordinator shard records the
// acquisition for observability and idempotent replay.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"ariesrh/internal/core"
	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// Errors returned by the sharded database (engines' own errors — lock
// deadlocks, ErrDegraded, ErrCrashed — pass through unchanged).
var (
	// ErrTxnDone is returned for operations on a committed or aborted
	// global transaction handle.
	ErrTxnDone = errors.New("shard: global transaction already terminated")
	// ErrBadShards is returned by Open for an invalid shard count or a
	// LogDirs slice whose length disagrees with Shards.
	ErrBadShards = errors.New("shard: invalid shard configuration")
	// ErrInDoubt is returned (wrapped around the device error) by
	// Txn.Commit when the coordinator's decision force failed: the commit
	// record may or may not be durable, so the global outcome is unknown.
	// Every branch stays prepared, holding its locks, until the next
	// Recover settles them all from the coordinator's durable log —
	// commit if the record made it to the device, presumed abort
	// otherwise.
	ErrInDoubt = errors.New("shard: commit outcome in doubt until recovery")
)

// Router maps objects to shards.  Implementations must be pure
// functions of (obj, shards): the same object must route to the same
// shard on every call and across restarts, or recovery will replay
// records on the wrong engine.
type Router interface {
	// Route returns the home shard of obj, in [0, shards).
	Route(obj wal.ObjectID, shards int) uint32
}

// HashRouter is the default Router: a Fibonacci multiplicative hash of
// the object id.  Stateless, uniform, stable across restarts.
type HashRouter struct{}

// Route implements Router.
func (HashRouter) Route(obj wal.ObjectID, shards int) uint32 {
	h := uint64(obj) * 0x9E3779B97F4A7C15
	return uint32(h % uint64(shards))
}

// Options configures Open.
type Options struct {
	// Shards is the number of engine instances (>= 1).  With one shard
	// the database degenerates to a plain single-engine ARIES/RH
	// instance behind the same API (every transaction is single-shard).
	Shards int
	// Dir, when non-empty, makes the database file-backed: shard i
	// keeps its log, pages and master record under Dir/shard-<i>.
	// Mutually exclusive with LogDirs.
	Dir string
	// LogDirs, when non-nil, supplies each shard's stable log directory
	// — typically fault.Dir instances injecting per-shard crash
	// schedules.  Length must equal Shards.
	LogDirs []wal.Dir
	// PoolSize is each shard's buffer-pool capacity in pages.
	PoolSize int
	// GroupCommit selects commit-time log forcing for every shard.
	GroupCommit core.GroupCommitMode
	// LogSegmentBytes overrides each shard log's segment rotation
	// threshold (0 means the WAL default).
	LogSegmentBytes int64
	// EarlyLockRelease enables controlled lock violation on each
	// shard's single-shard commit path; cross-shard prepares and
	// decisions always force synchronously.
	EarlyLockRelease bool
	// ParallelRecovery runs each shard's recovery on the parallel
	// (instant-restart) schedule.  Sharded recovery waits for every
	// shard's pipeline before resolving in-doubt transactions, so
	// Recover returns with all shards writable.
	ParallelRecovery bool
	// Router overrides the object→shard mapping (default HashRouter).
	// It must be deterministic and stable across restarts.
	Router Router
}

// DB is a sharded ARIES/RH database.  It is safe for concurrent use;
// individual Txn handles are not (like Tx in the public API).
type DB struct {
	engs   []*core.Engine
	router Router

	reg *obs.Registry
	met dbMetrics

	mu      sync.Mutex
	nextGID uint64
}

// Open creates or reopens a sharded database.  Engines holding state
// from a previous incarnation recover individually during Open; Open
// then resolves every in-doubt two-phase participant by asking its
// coordinator shard for the decision (presumed abort when none is
// durable), releases all retained decisions, and seeds the global-id
// counter above every id the logs have seen.  A nil error means all
// shards are writable and no transaction is in doubt.
func Open(opts Options) (*DB, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("%w: Shards=%d", ErrBadShards, opts.Shards)
	}
	if opts.LogDirs != nil && len(opts.LogDirs) != opts.Shards {
		return nil, fmt.Errorf("%w: %d LogDirs for %d shards", ErrBadShards, len(opts.LogDirs), opts.Shards)
	}
	if opts.Dir != "" && opts.LogDirs != nil {
		return nil, fmt.Errorf("%w: Dir and LogDirs are mutually exclusive", ErrBadShards)
	}
	if opts.Router == nil {
		opts.Router = HashRouter{}
	}
	db := &DB{
		router:  opts.Router,
		reg:     obs.NewRegistry(),
		nextGID: 1,
	}
	db.met = bindDBMetrics(db.reg)
	db.met.shards.Set(int64(opts.Shards))
	for i := 0; i < opts.Shards; i++ {
		eo := core.Options{
			ShardID:          uint32(i),
			PoolSize:         opts.PoolSize,
			GroupCommit:      opts.GroupCommit,
			LogSegmentBytes:  opts.LogSegmentBytes,
			EarlyLockRelease: opts.EarlyLockRelease,
			ParallelRecovery: opts.ParallelRecovery,
		}
		cleanup := func() {}
		if opts.LogDirs != nil {
			eo.LogDir = opts.LogDirs[i]
		} else if opts.Dir != "" {
			base := filepath.Join(opts.Dir, fmt.Sprintf("shard-%d", i))
			logDir, err := wal.OpenFileDir(filepath.Join(base, "wal"))
			if err != nil {
				db.closeEngines()
				return nil, err
			}
			master, err := wal.OpenFileStore(filepath.Join(base, "master"))
			if err != nil {
				logDir.Close()
				db.closeEngines()
				return nil, err
			}
			disk, err := storage.OpenFileDisk(filepath.Join(base, "pages.db"))
			if err != nil {
				logDir.Close()
				master.Close()
				db.closeEngines()
				return nil, err
			}
			eo.LogDir = logDir
			eo.MasterStore = master
			eo.Disk = disk
			cleanup = func() {
				logDir.Close()
				master.Close()
				disk.Close()
			}
		}
		eng, err := core.New(eo)
		if err != nil {
			cleanup()
			db.closeEngines()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		db.engs = append(db.engs, eng)
	}
	if opts.ParallelRecovery {
		if err := db.WaitRecovered(); err != nil {
			db.closeEngines()
			return nil, err
		}
	}
	if err := db.resolveInDoubt(); err != nil {
		db.closeEngines()
		return nil, err
	}
	return db, nil
}

// closeEngines best-effort closes whatever engines were constructed.
func (db *DB) closeEngines() {
	for _, e := range db.engs {
		e.Close()
	}
}

// Shards returns the number of shards.
func (db *DB) Shards() int { return len(db.engs) }

// Engine returns shard i's engine for tools, tests and the torture
// harness.  Callers must not drive two-phase state behind the DB's
// back.
func (db *DB) Engine(i int) *core.Engine { return db.engs[i] }

// Route returns the home shard of obj under the database's router.
func (db *DB) Route(obj wal.ObjectID) uint32 {
	return db.router.Route(obj, len(db.engs))
}

// Checkpoint takes a fuzzy checkpoint on every shard, bounding the
// work of each shard's next recovery.  Checkpoints are per-shard and
// not mutually atomic — they don't need to be: each shard's checkpoint
// carries that shard's prepared transactions and retained decisions,
// and recovery correctness depends only on each log individually.
func (db *DB) Checkpoint() error {
	for i, e := range db.engs {
		if err := e.Checkpoint(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Crash simulates a whole-cluster failure: every shard loses its
// volatile state (buffer pool, lock table, transaction table, object
// lists, unflushed log tail).  All live Txn handles become invalid.
// Call Recover before issuing new work.
func (db *DB) Crash() error {
	var first error
	for i, e := range db.engs {
		if err := e.Crash(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// Recover replays every shard's log (concurrently — shard recoveries
// are independent until in-doubt resolution), then resolves in-doubt
// two-phase participants: each shard's prepared transactions are
// committed iff the coordinator shard's recovered log holds the commit
// decision for their global id, aborted otherwise (presumed abort).
// Retained decisions are then released on every shard and the
// global-id counter re-seeded.  A nil return means every shard is
// writable and no transaction is in doubt.
func (db *DB) Recover() error {
	errs := make([]error, len(db.engs))
	var wg sync.WaitGroup
	for i, e := range db.engs {
		wg.Add(1)
		go func(i int, e *core.Engine) {
			defer wg.Done()
			if err := e.Recover(); err != nil {
				errs[i] = err
				return
			}
			// With ParallelRecovery, Recover returns with the pipeline
			// in flight; in-doubt resolution needs the rebuilt prepared
			// set, so wait for this shard's pipeline here (shards still
			// overlap with each other).
			errs[i] = e.WaitRecovered()
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return db.resolveInDoubt()
}

// resolveInDoubt settles every prepared transaction left by recovery
// (or found at Open) using the coordinator's durable decision, then
// releases all retained decisions and re-seeds the global-id counter.
func (db *DB) resolveInDoubt() error {
	for i, e := range db.engs {
		for _, d := range e.InDoubt() {
			committed := false
			if int(d.Coord) < len(db.engs) {
				committed = db.engs[d.Coord].GlobalDecision(d.GID)
			}
			if err := e.ResolveInDoubt(d.Tx, committed); err != nil {
				return fmt.Errorf("shard %d: resolve t%d (gid %d): %w", i, d.Tx, d.GID, err)
			}
			db.met.indoubtResolved.Inc()
		}
	}
	// Every in-doubt participant is resolved, so no decision needs
	// retaining (and pinning its shard's archive) any longer.
	for _, e := range db.engs {
		e.ReleaseAllGlobals()
	}
	var max uint64
	for _, e := range db.engs {
		if g := e.MaxSeenGID(); g > max {
			max = g
		}
	}
	db.mu.Lock()
	if db.nextGID <= max {
		db.nextGID = max + 1
	}
	db.mu.Unlock()
	return nil
}

// WaitRecovered blocks until every shard's in-flight recovery pipeline
// completes, returning the first failure (that shard is back
// in the crashed state; Recover may be retried).
func (db *DB) WaitRecovered() error {
	for i, e := range db.engs {
		if err := e.WaitRecovered(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Health returns the worst availability state across shards: a single
// degraded or crashed shard makes the cluster report it, since any
// cross-shard transaction may need that shard.
func (db *DB) Health() core.Health {
	worst := core.Health{State: core.StateHealthy}
	for _, e := range db.engs {
		h := e.Health()
		if h.State > worst.State {
			worst = h
		}
	}
	return worst
}

// ShardHealth returns each shard's individual availability.
func (db *DB) ShardHealth() []core.Health {
	out := make([]core.Health, len(db.engs))
	for i, e := range db.engs {
		out[i] = e.Health()
	}
	return out
}

// ReadCommitted returns the current committed/buffered value of obj
// from its home shard, without any transactional context.
func (db *DB) ReadCommitted(obj wal.ObjectID) ([]byte, bool, error) {
	v, present, err := db.engs[db.Route(obj)].ReadObject(obj)
	if err != nil || !present || len(v) == 0 {
		return nil, false, err
	}
	return v, true, nil
}

// CounterValue reads the committed/buffered counter value of obj from
// its home shard without any transactional context.
func (db *DB) CounterValue(obj wal.ObjectID) (int64, error) {
	return db.engs[db.Route(obj)].CounterValue(obj)
}

// SetEventHook installs fn as every shard's structured event hook; nil
// uninstalls.  Same contract as the single-engine hook: synchronous,
// often under an engine latch, must not call back into the database.
func (db *DB) SetEventHook(fn func(obs.Event)) {
	for _, e := range db.engs {
		e.SetEventHook(fn)
	}
}

// Close flushes and closes every shard, returning the first error.
func (db *DB) Close() error {
	var first error
	for i, e := range db.engs {
		if err := e.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}
