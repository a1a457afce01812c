package core

import (
	"fmt"
	"time"

	"ariesrh/internal/delegation"
	"ariesrh/internal/lock"
	"ariesrh/internal/obs"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Begin starts a new transaction and returns its ID (§3.5 begin: add to
// Tr_List, create Ob_List).
func (e *Engine) Begin() (wal.TxID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return wal.NilTx, err
	}
	info := e.txns.Begin()
	lsn, err := e.log.Append(&wal.Record{Type: wal.TypeBegin, TxID: info.ID})
	if err != nil {
		return wal.NilTx, err
	}
	info.LastLSN = lsn
	e.state[info.ID] = delegation.NewObList()
	e.stats.Begins++
	e.met.begins.Inc()
	return info.ID, nil
}

// activeInfo returns the table entry for tx if it is active.
func (e *Engine) activeInfo(tx wal.TxID) (*txn.Info, error) {
	info := e.txns.Get(tx)
	if info == nil || info.Status != txn.Active {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	return info, nil
}

// activeAfterLockLocked revalidates tx after an unlatched lock wait.  A
// transaction can terminate while one of its operations is blocked in
// lock.Acquire — a cascading abort, or a deadlock victimization on
// another of its own goroutines — and the grant then re-registers a lock
// hold for a dead transaction.  That stale grant must be dropped here,
// or the object stays blocked forever.  The caller holds the engine
// latch, having re-acquired it after the lock grant.
func (e *Engine) activeAfterLockLocked(tx wal.TxID) (*txn.Info, error) {
	info, err := e.activeInfo(tx)
	if err != nil {
		e.locks.ReleaseAll(tx)
		return nil, err
	}
	return info, nil
}

// Read returns the value of obj under a shared lock held by tx.  Absent
// objects read as an empty value (objects are registers; see
// internal/object).
func (e *Engine) Read(tx wal.TxID, obj wal.ObjectID) ([]byte, error) {
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return nil, ErrCrashed
	}
	if _, err := e.activeInfo(tx); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	e.mu.Unlock()

	// Block on the lock without holding the engine latch.
	if err := e.locks.Acquire(tx, obj, lock.Shared); err != nil {
		return nil, err
	}

	// See Update: take the page fault before re-acquiring the latch.
	e.store.Prefetch(obj)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		e.activeAfterLockLocked(tx) // see Update
		return nil, ErrCrashed
	}
	if _, err := e.activeAfterLockLocked(tx); err != nil {
		return nil, err
	}
	e.noteViolationsLocked(tx, obj, lock.Shared)
	v, _, err := e.store.Read(obj)
	if err != nil {
		return nil, err
	}
	e.stats.Reads++
	e.met.reads.Inc()
	return v, nil
}

// Update performs update[tx, obj] ← val (§3.5 update): it X-locks the
// object, logs the physical before/after images, adjusts tx's scope on the
// object (open a new scope on the first update since begin or since tx
// last delegated obj; extend the active scope otherwise), and applies the
// change in place.
func (e *Engine) Update(tx wal.TxID, obj wal.ObjectID, val []byte) error {
	start := time.Now()
	e.mu.Lock()
	if err := e.writableLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	if _, err := e.activeInfo(tx); err != nil {
		e.mu.Unlock()
		return err
	}
	e.mu.Unlock()

	if err := e.locks.Acquire(tx, obj, lock.Exclusive); err != nil {
		return err
	}

	// Latch-scope reduction: fault the object's page into the buffer pool
	// now, while no latch is held, so the latched section below hits
	// memory.  Any page-fault read — and any eviction write-back with its
	// WAL-rule log flush — lands on this goroutine instead of stalling
	// every other transaction behind the engine latch.
	e.store.Prefetch(obj)

	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		// A live tx keeps its lock grant: it must be able to abort,
		// which releases everything.  A tx terminated during the wait
		// (a cascaded abort, an ELR rollback) never will — drop its
		// stale grant, or waiters on obj block forever.
		e.activeAfterLockLocked(tx)
		return err
	}
	info, err := e.activeAfterLockLocked(tx)
	if err != nil {
		return err
	}
	e.noteViolationsLocked(tx, obj, lock.Exclusive)
	before, _, err := e.store.Read(obj)
	if err != nil {
		return err
	}
	rec := &wal.Record{
		Type:    wal.TypeUpdate,
		TxID:    tx,
		PrevLSN: info.LastLSN,
		Object:  obj,
		Before:  before,
		After:   val,
	}
	lsn, err := e.log.Append(rec)
	if err != nil {
		return err
	}
	// The update is on the log: complete ALL volatile bookkeeping — scope
	// and backward chain — before touching the page, so a failed page
	// write leaves the tables consistent with the log and Abort (or
	// recovery) can compensate the logged update.  Advancing LastLSN
	// only after the write would leave a logged update outside the
	// backward chain on error.
	e.state[tx].RecordUpdate(tx, obj, lsn)
	info.LastLSN = lsn
	if err := e.store.Write(obj, val, lsn); err != nil {
		return err
	}
	e.stats.Updates++
	e.met.updates.Inc()
	e.met.updateNs.Observe(time.Since(start))
	return nil
}

// Delegate executes delegate(tor, tee, obj) (§3.5): after checking the
// precondition (tor is responsible for updates on obj), it writes a
// delegate log record linked into both backward chains and transfers the
// object's scopes from tor's Ob_List to tee's.  The delegatee also
// inherits tor's lock on the object, broadening its visibility.
func (e *Engine) Delegate(tor, tee wal.TxID, obj wal.ObjectID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	return e.delegateLocked(tor, tee, obj)
}

// delegateLocked is Delegate's body; the caller holds the engine latch.
// Factored out so DelegateAll can apply a whole batch under one latch
// acquisition.
func (e *Engine) delegateLocked(tor, tee wal.TxID, obj wal.ObjectID) error {
	return e.delegateAsLocked(tor, tee, obj, wal.TypeDelegate, 0, 0)
}

// delegateAsLocked is the shared body of Delegate and DelegateOut: the
// record type distinguishes a purely local delegation from the home-shard
// half of a cross-shard one (which additionally stamps the delegatee's
// global transaction id and coordinator shard onto the record).  The
// volatile effects are identical — responsibility moves between two LOCAL
// transactions on this engine's log either way.
func (e *Engine) delegateAsLocked(tor, tee wal.TxID, obj wal.ObjectID, typ wal.RecordType, gid uint64, peer uint32) error {
	start := time.Now()
	if tor == tee {
		return fmt.Errorf("core: delegate(t%d, t%d): delegator and delegatee must differ", tor, tee)
	}
	torInfo, err := e.activeInfo(tor)
	if err != nil {
		return err
	}
	teeInfo, err := e.activeInfo(tee)
	if err != nil {
		return err
	}
	// WELL-FORMED?  (§3.5 step 1)
	if !e.state[tor].Has(obj) {
		return fmt.Errorf("%w: t%d does not hold updates on object %d", ErrNotResponsible, tor, obj)
	}
	// PREPARE + WRITE DELEGATION LOG RECORD (§3.5 steps 2 and 4).
	rec := &wal.Record{
		Type:    typ,
		TxID:    tor,
		PrevLSN: torInfo.LastLSN,
		Tor:     tor,
		Tee:     tee,
		TorPrev: torInfo.LastLSN,
		TeePrev: teeInfo.LastLSN,
		Object:  obj,
		GID:     gid,
		Shard:   peer,
	}
	lsn, err := e.log.Append(rec)
	if err != nil {
		return err
	}
	// TRANSFER RESPONSIBILITY (§3.5 step 3).
	e.state[tor].DelegateTo(e.state[tee], tor, obj)
	// The delegatee inherits a hold on the delegator's lock so the
	// delegated updates stay protected by their (new) responsible
	// transaction; the delegator keeps its own hold and may continue to
	// operate on the object (§2.1.2).  Third parties remain excluded
	// until every holder terminates.
	if _, held := e.locks.Holds(tor, obj); held {
		if err := e.locks.Share(tor, tee, obj); err != nil {
			return err
		}
	}
	// A delegated scope carries its recoverability lineage: if the
	// delegator's updates were built over a pre-durable committer's
	// early-released locks (it holds an abort dependency on one), the
	// delegatee now owns those updates and must share their fate — the
	// delegator's own abort no longer undoes them.  Copying all such
	// edges (not just ones attributable to obj) is conservative: it can
	// only over-abort, never let dirty data survive.
	if len(e.predurable) > 0 {
		for _, edge := range e.deps[tor] {
			if edge.kind != AbortDependency {
				continue
			}
			if _, pending := e.predurable[edge.on]; !pending {
				continue
			}
			e.addDependencyEdgeLocked(tee, edge.on, AbortDependency)
		}
	}
	// The delegate record heads both backward chains.
	if !e.opts.DisableChaining {
		torInfo.LastLSN = lsn
		teeInfo.LastLSN = lsn
	}
	e.stats.Delegations++
	e.met.delegations.Inc()
	e.met.delegateNs.Observe(time.Since(start))
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "txn.delegate", Tx: uint64(tor), LSN: uint64(lsn), Object: uint64(obj), Value: int64(tee)})
	}
	return nil
}

// DelegateAll delegates every object in tor's Ob_List to tee — the
// "delegate(t2, t1)" form used by join and nested-transaction commit
// (§2.2).  The delegations are applied atomically with respect to other
// engine operations.
func (e *Engine) DelegateAll(tor, tee wal.TxID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	ol, ok := e.state[tor]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchTxn, tor)
	}
	// The latch is held across the whole loop: no other operation — in
	// particular no termination of tor or tee — can interleave between
	// the per-object delegations.
	for _, obj := range ol.Objects() {
		if err := e.delegateLocked(tor, tee, obj); err != nil {
			return err
		}
	}
	return nil
}

// Permit grants grantee access to holder's lock on obj without
// transferring responsibility — ASSET's permit primitive: data sharing
// without forming dependencies.  Nothing is logged; permits are pure
// visibility and play no role in recovery.
func (e *Engine) Permit(holder, grantee wal.TxID, obj wal.ObjectID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	if _, err := e.activeInfo(holder); err != nil {
		return err
	}
	if _, err := e.activeInfo(grantee); err != nil {
		return err
	}
	if _, held := e.locks.Holds(holder, obj); !held {
		return fmt.Errorf("core: permit of object %d from t%d which holds no lock", obj, holder)
	}
	return e.locks.Share(holder, grantee, obj)
}

// ObjectsOf returns the objects tx is currently responsible for (its
// Ob_List), sorted.
func (e *Engine) ObjectsOf(tx wal.TxID) ([]wal.ObjectID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ol, ok := e.state[tx]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	return ol.Objects(), nil
}

// Commit commits tx (§3.5): the operations tx is responsible for are
// already on the log; a commit record is appended and the log is flushed
// through it before the commit is acknowledged.
//
// With group commit (Options.GroupCommit, the default) the flush happens
// off-latch: the commit record is appended under the latch, the latch is
// released, and the committer waits on wal.Log.FlushAsync — one device
// sync then covers every commit record queued meanwhile, and unrelated
// operations (Update/Delegate/Read) proceed during the sync instead of
// stalling behind it.  With GroupCommitOff every commit performs its own
// synchronous flush under the latch, the pre-group-commit behavior.
func (e *Engine) Commit(tx wal.TxID) error {
	start := time.Now()
	e.mu.Lock()
	if err := e.writableLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	info, err := e.activeInfo(tx)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	if err := e.checkCommitDependenciesLocked(tx); err != nil {
		e.mu.Unlock()
		return err
	}
	prevLast := info.LastLSN
	lsn, err := e.log.Append(&wal.Record{Type: wal.TypeCommit, TxID: tx, PrevLSN: prevLast})
	if err != nil {
		e.mu.Unlock()
		return err
	}

	if !e.opts.groupCommit() {
		defer e.mu.Unlock()
		if err := e.log.Flush(lsn); err != nil {
			// The WAL already retried transient errors; what surfaces
			// here is a persistent device failure.  The commit was
			// never acknowledged (the transaction stays Active and
			// abortable); the engine degrades to read-only.
			e.degradeLocked(err)
			return err
		}
		info.Status = txn.Committed
		info.LastLSN = lsn
		return e.finishCommitLocked(tx, info, lsn, start)
	}

	if e.opts.elr() {
		// Early lock release: release the locks at the commit point and
		// defer only the durability ack.  See internal/core/elr.go.
		return e.commitELR(tx, info, lsn, prevLast, start)
	}

	// Group commit.  The appended commit record is the commit point: mark
	// the transaction Committed *before* releasing the latch so cascading
	// aborts (which only victimize Active transactions) cannot undo its
	// updates during the unlatched wait.  A dependent that observes the
	// Committed status and commits ahead of us is safe: its commit record
	// has a higher LSN, and flushes are prefix-ordered, so it cannot
	// become durable unless ours does.
	info.Status = txn.Committed
	info.LastLSN = lsn
	ch := e.log.FlushAsync(lsn)
	e.mu.Unlock()
	ferr := <-ch

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		// A crash interleaved with the flush wait.  Whether the commit
		// record reached the device before the crash decides the
		// transaction's fate at Recover — the usual commit-ack
		// ambiguity of a crash during commit processing.
		return ErrCrashed
	}
	if ferr != nil {
		// The device refused the flush: the commit is not durable and
		// was never acknowledged.  Return the transaction to Active —
		// matching the synchronous path, where a failed flush also
		// leaves the transaction alive (retriable, abortable,
		// cascadable) — and rewind LastLSN past the never-flushed
		// commit record: the transaction's backward chain must head at
		// its last update/CLR, or a subsequent Abort would hang its
		// CLRs off a commit record that recovery may never see.
		if info := e.txns.Get(tx); info != nil && info.Status == txn.Committed {
			info.Status = txn.Active
			info.LastLSN = prevLast
		}
		// A force failure past the WAL's retry budget is a persistent
		// device problem: degrade so later mutations are turned away
		// instead of queuing more never-flushable records.
		e.degradeLocked(ferr)
		return ferr
	}
	info = e.txns.Get(tx)
	if info == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	return e.finishCommitLocked(tx, info, lsn, start)
}

// finishCommitLocked completes a commit whose commit record (at lsn) is
// durable: append the end record, release locks and clean up the volatile
// tables.  The caller holds the latch and has already set info.Status.
func (e *Engine) finishCommitLocked(tx wal.TxID, info *txn.Info, lsn wal.LSN, start time.Time) error {
	endLSN, err := e.log.Append(&wal.Record{Type: wal.TypeEnd, TxID: tx, PrevLSN: lsn})
	if err != nil {
		return err
	}
	info.LastLSN = endLSN
	e.locks.ReleaseAll(tx)
	delete(e.state, tx)
	delete(e.deps, tx)
	e.txns.Remove(tx)
	e.stats.Commits++
	e.met.commits.Inc()
	e.met.commitNs.Observe(time.Since(start))
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "txn.commit", Tx: uint64(tx), LSN: uint64(lsn)})
	}
	return nil
}

// Abort rolls back tx (§3.5): every update tx is responsible for — whether
// invoked by tx or received through delegation — is undone in reverse LSN
// order using the scope machinery, writing a compensation log record per
// undo.  Updates tx delegated away are NOT undone: they now belong to
// their delegatee.
//
// With group commit (Options.GroupCommit, the default) the log force for
// the abort record happens off-latch on the coalesced flusher
// (wal.Log.FlushAsync), so concurrent aborts — and aborts racing commits —
// share device syncs instead of serializing the whole engine behind one
// sync per abort.  The abort itself (undo, abort and end records, lock
// release, dependency cascade) still happens atomically under the latch,
// exactly as in the synchronous path: ARIES does not require the abort
// record to be durable before the abort completes — an abort that never
// reaches the device is simply re-aborted idempotently by recovery — so
// deferring the force changes only when Abort returns, not what state it
// leaves behind.  With GroupCommitOff every abort performs its own
// synchronous flush under the latch, the pre-group-commit behavior.
//
// Crash-safety contract: a nil return means the abort took effect in
// volatile state; its durability is NOT guaranteed.  If the device
// refuses the force the abort still stands — recovery re-aborts the
// loser idempotently from the durable log — so Abort succeeds and the
// device error instead degrades the engine (see ErrDegraded, Health).
// This also makes Abort available IN degraded mode: it is the one
// mutating operation that needs no new durable bytes, and the escape
// hatch by which in-flight transactions release their locks.
func (e *Engine) Abort(tx wal.TxID) error {
	start := time.Now()
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return ErrCrashed
	}
	if !e.opts.groupCommit() {
		defer e.mu.Unlock()
		if err := e.abortLocked(tx); err != nil {
			return err
		}
		e.met.abortNs.Observe(time.Since(start))
		return nil
	}

	// Group-commit mode: complete the abort — including any cascaded
	// aborts, whose records are appended before we read Head — then wait
	// for one coalesced flush covering all of it with the latch released.
	if err := e.abortLocked(tx); err != nil {
		e.mu.Unlock()
		return err
	}
	ch := e.log.FlushAsync(e.log.Head())
	e.mu.Unlock()
	if ferr := <-ch; ferr != nil {
		// The abort stands — the transaction is terminated and recovery
		// would re-abort it regardless — but the force failed past the
		// WAL's retry budget: degrade instead of failing the abort.
		e.mu.Lock()
		e.degradeLocked(ferr)
		e.mu.Unlock()
	}
	e.met.abortNs.Observe(time.Since(start))
	return nil
}

func (e *Engine) abortLocked(tx wal.TxID) error {
	if e.crashed {
		return ErrCrashed
	}
	info, err := e.activeInfo(tx)
	if err != nil {
		return err
	}
	// ABORT OPERATIONS: undo everything covered by tx's scopes, sweeping
	// backwards from the largest covered LSN to minLSN (§3.5).
	if err := e.undoScopes(e.state[tx].OwnedScopes(tx), undoSweep{}); err != nil {
		return err
	}
	// WRITE ABORT RECORD.  In group-commit mode the force is deferred to
	// the top-level Abort's coalesced off-latch flush (every abort —
	// cascaded ones included — runs under exactly one top-level Abort);
	// with GroupCommitOff the record is forced here, under the latch.
	info = e.txns.Get(tx) // lastLSN advanced by the CLRs
	lsn, err := e.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: tx, PrevLSN: info.LastLSN})
	if err != nil {
		return err
	}
	if !e.opts.groupCommit() {
		if err := e.log.Flush(lsn); err != nil {
			// See Abort's contract: the force is best-effort — the
			// abort completes in volatile state and the device error
			// degrades the engine rather than failing the abort.
			e.degradeLocked(err)
		}
	}
	info.Status = txn.Aborted
	info.LastLSN = lsn
	endLSN, err := e.log.Append(&wal.Record{Type: wal.TypeEnd, TxID: tx, PrevLSN: lsn})
	if err != nil {
		return err
	}
	info.LastLSN = endLSN
	e.locks.ReleaseAll(tx)
	delete(e.state, tx)
	delete(e.deps, tx)
	e.txns.Remove(tx)
	e.stats.Aborts++
	e.met.aborts.Inc()
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "txn.abort", Tx: uint64(tx), LSN: uint64(lsn)})
	}
	// Cascade: abort-dependents of tx must abort too.
	return e.cascadeAbortsLocked(tx)
}

// undoSweep configures one run of undoScopes.  The zero value is the
// normal-processing sweep — abort, savepoint rollback, the ELR cascade:
// cluster order, counters into e.stats, each CLR written directly.  Only
// the recovery pipeline sets the rest.
type undoSweep struct {
	// compensated lists update LSNs already undone by a CLR the forward
	// pass saw; the sweep skips them.
	compensated map[wal.LSN]bool
	// fullScan swaps the cluster planner for the A1 ablation's full
	// backward scan (Options.FullScanUndo).
	fullScan bool
	// stats receives the sweep's counters; nil means e.stats.
	stats *Stats
	// passed is told each position as the sweep reaches it, and NilLSN
	// when it ends: every position above it is settled.
	passed func(k wal.LSN)
	// undo replaces the direct CLR write (undoRecord).
	undo func(owner wal.TxID, rec *wal.Record) error
}

// undoScopes is the backward sweep of ARIES/RH (§3.5 abort, §3.6.2
// recovery): it visits the given scopes in strictly decreasing LSN order,
// each position at most once, and undoes every covered update by writing
// a CLR on behalf of its responsible transaction.  Abort sweeps one
// transaction's scopes, recovery and promotion sweep all loser scopes.
func (e *Engine) undoScopes(scopes []delegation.Scope, sw undoSweep) error {
	st := sw.stats
	if st == nil {
		st = &e.stats
	}
	planner := delegation.NewPlanner(scopes)
	var order undoOrder = planner
	if sw.fullScan {
		order = newFullScanOrder(scopes)
	}
	hooked := e.reg.HasEventHook()
	for {
		k, ok := order.Next()
		if !ok {
			break
		}
		if sw.passed != nil {
			sw.passed(k)
		}
		st.RecBackwardVisited++
		e.met.undoVisited.Inc()
		if hooked {
			e.reg.Emit(obs.Event{Name: "undo.visit", LSN: uint64(k)})
		}
		rec, err := e.log.Get(k)
		if err != nil {
			return fmt.Errorf("core: undo sweep at %d: %w", k, err)
		}
		if !rec.IsUndoable() {
			continue
		}
		owner, hit := order.ShouldUndo(rec.TxID, rec.Object, k)
		if !hit || sw.compensated[k] {
			continue
		}
		if sw.undo != nil {
			err = sw.undo(owner, rec)
		} else {
			err = e.undoRecord(owner, rec, st)
		}
		if err != nil {
			return err
		}
	}
	// Both stay zero under the full scan, which never runs the planner.
	st.RecBackwardSkipped += planner.Skipped
	e.met.undoSkipped.Add(planner.Skipped)
	e.met.undoClusters.Add(planner.Clusters)
	if sw.passed != nil {
		sw.passed(wal.NilLSN)
	}
	return nil
}

// undoRecord compensates rec on behalf of the responsible transaction
// owner: it logs a CLR — restoring the before-image of an update, or
// carrying the negated delta of an increment (logical undo, see
// counter.go) — and applies it.
func (e *Engine) undoRecord(owner wal.TxID, rec *wal.Record, st *Stats) error {
	info := e.txns.Get(owner)
	prev := wal.NilLSN
	if info != nil {
		prev = info.LastLSN
	}
	clr := &wal.Record{
		Type:        wal.TypeCLR,
		TxID:        owner,
		PrevLSN:     prev,
		Object:      rec.Object,
		UndoNextLSN: rec.PrevLSN,
		Compensates: rec.LSN,
	}
	if rec.Type == wal.TypeIncrement {
		clr.Logical, clr.Delta = true, -rec.Delta
	} else {
		clr.Before = rec.Before
	}
	lsn, err := e.log.Append(clr)
	if err != nil {
		return err
	}
	if err := e.redoRecord(clr); err != nil {
		return err
	}
	if info != nil {
		info.LastLSN = lsn
	}
	st.CLRs++
	e.met.clrs.Inc()
	return nil
}

// Checkpoint takes a fuzzy checkpoint (no page flushing): it brackets a
// serialized snapshot of the transaction table, the delegation state (all
// object lists with their scopes) and the dirty-page table between
// checkpoint-begin/end records, flushes the log, and updates the master
// record.  Recovery starts analysis at the checkpoint instead of the
// beginning of the log.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	beginLSN, err := e.log.Append(&wal.Record{Type: wal.TypeCheckpointBegin})
	if err != nil {
		return err
	}
	payload := encodeCheckpoint(&checkpointData{
		beginLSN: beginLSN,
		txns:     e.txns.Snapshot(),
		state:    e.state,
		dpt:      e.pool.DirtyPageTable(),
		prepared: e.prepared,
		globals:  e.globals,
	})
	endLSN, err := e.log.Append(&wal.Record{Type: wal.TypeCheckpointEnd, PrevLSN: beginLSN, Payload: payload})
	if err != nil {
		return err
	}
	if err := e.log.Flush(endLSN); err != nil {
		e.degradeLocked(err)
		return err
	}
	if err := e.master.Set(endLSN); err != nil {
		e.degradeLocked(err)
		return err
	}
	e.stats.Checkpoints++
	e.met.checkpoints.Inc()
	return nil
}
