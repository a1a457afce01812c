package core

import (
	"errors"
	"fmt"
	"time"

	"ariesrh/internal/delegation"
	"ariesrh/internal/lock"
	"ariesrh/internal/obs"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Early lock release (controlled lock violation).  See the
// Options.EarlyLockRelease contract in engine.go and the "Commit
// pipeline" section of ARCHITECTURE.md.  The pipeline is:
//
//	append commit record → release locks (violable) → group flush → ack
//
// Only the ack is deferred on durability.  A transaction that acquires
// a conflicting lock on an object whose pre-durable committer released
// it ("violates" the lock) forms an abort dependency on that committer,
// so a flush failure cascades rollback through everything built on the
// never-durable data.  The ordering half of the commit dependency —
// "don't ack the violator before its predecessor" — costs nothing: the
// violator's own commit record has a higher LSN and flushes are
// prefix-ordered, so its ack (and any durable survival across a crash)
// already implies the predecessor's durability.

// pendingCommit is the engine-side bookkeeping for one early-lock-release
// committer whose commit record (at lsn) is not yet durable.  prevLast is
// the transaction's backward-chain head before the commit record, needed
// to rewind past it if the commit has to be rolled back.
type pendingCommit struct {
	lsn      wal.LSN
	prevLast wal.LSN
}

// commitELR is Commit's early-lock-release tail: entered with the engine
// latch held, the commit record for tx already appended at lsn, and info
// current.  It releases tx's locks (marking them violable), waits for
// the group flush off-latch, and completes or rolls back the commit.
func (e *Engine) commitELR(tx wal.TxID, info *txn.Info, lsn, prevLast wal.LSN, start time.Time) error {
	// The appended commit record is the commit point: mark Committed
	// before unlatching so cascading aborts (Active victims only) cannot
	// undo the updates during the wait, exactly as in the plain
	// group-commit path — and release every lock now, which is the whole
	// point: waiters stop paying for this transaction's device sync.
	info.Status = txn.Committed
	info.LastLSN = lsn
	e.predurable[tx] = pendingCommit{lsn: lsn, prevLast: prevLast}
	e.locks.ReleaseAllViolable(tx)
	e.met.elrCommits.Inc()
	// The durability callback clears the violable markers promptly (so
	// acquirers stop forming edges) even though this committer may still
	// be parked on the flush channel.
	e.log.OnDurable(lsn, func(err error) { e.durableNotify(tx, lsn, err) })
	ch := e.log.FlushAsync(lsn)
	e.mu.Unlock()

	deferStart := time.Now()
	ferr := <-ch
	e.met.elrAckDeferNs.Observe(time.Since(deferStart))

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		// Crash during the wait: the usual commit-ack ambiguity.  The
		// durable log alone decides the transaction's fate at Recover,
		// and prefix flushing guarantees no violator's commit survived
		// if ours did not.
		return ErrCrashed
	}
	if ferr != nil {
		if errors.Is(ferr, wal.ErrLogCrashed) {
			// Not a device refusal: the log instance went down (Crash)
			// while the ack was pending, discarding the volatile tail.
			// The engine-level crashed flag may not be visible yet (Crash
			// takes the WAL lock before the engine latch), but the
			// outcome is the same commit-ack ambiguity as the e.crashed
			// branch above: recovery alone decides the record's fate, so
			// report the crash rather than degrading a healthy device.
			return ErrCrashed
		}
		// The device refused the flush past the WAL's retry budget.  But
		// under group commit a failed round is not the last word: other
		// queued FlushAsync waiters trigger later rounds, and one of
		// those may have carried our record to the device before we
		// reacquired the latch.  If so, the commit IS durable — its
		// updates are visible and must stay — so finish it and report
		// success; returning ErrCommitAborted here would break the
		// "rolled back" contract and leak the txn as Committed forever.
		// The entry still being present with lsn above the horizon is
		// the only genuinely failed shape: the success delivery is the
		// sole path that removes it while leaving the status Committed,
		// and elrFlushFailureLocked (run by a sibling waiter of the same
		// round) consumes it only after demoting the victim.
		if info = e.txns.Get(tx); info != nil && info.Status == txn.Committed {
			if _, pending := e.predurable[tx]; !pending || lsn <= e.log.FlushedLSN() {
				delete(e.predurable, tx)
				e.locks.ClearViolable(tx)
				return e.finishCommitLocked(tx, info, lsn, start)
			}
		}
		// The locks are gone, so the transaction cannot return to Active
		// the way the default path's failure handling does — strict 2PL
		// no longer isolates its updates.  Roll back every pre-durable
		// committer stranded above the durable horizon, cascading
		// through the dependencies the violation window admitted.
		e.degradeLocked(ferr)
		if err := e.elrFlushFailureLocked(); err != nil {
			return err
		}
		return fmt.Errorf("%w: %w", ErrCommitAborted, ferr)
	}
	info = e.txns.Get(tx)
	if info == nil || info.Status != txn.Committed {
		// Defensive: with our record durable nothing victimizes us, but
		// never finish a commit for a transaction the tables disown.
		return fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	// Backstop the durability callback: the WAL drops ALL OnDurable
	// registrations with an error on any failed flush attempt — including
	// a direct Flush of a smaller prefix (e.g. a checkpoint) that never
	// tried our LSN — and durableNotify ignores error deliveries.  If the
	// record then became durable via a succeeding round, nothing else
	// would ever remove the predurable entry or the violable markers, and
	// later acquirers would keep forming abort edges on a long-durable
	// committer.  Both calls are no-ops in the common case where the
	// success delivery already cleaned up.
	delete(e.predurable, tx)
	e.locks.ClearViolable(tx)
	return e.finishCommitLocked(tx, info, lsn, start)
}

// durableNotify is the wal.OnDurable callback for an early-lock-release
// commit: once tx's commit record (at lsn) is on stable storage its
// violable markers are moot — clear them so later acquirers stop forming
// edges.  The entry is validated against the predurable map before
// acting: TxIDs and LSNs are both reused after a crash, so a stale or
// failed delivery must never touch a reincarnated transaction's state.
// Failure deliveries are ignored outright — the committer's own flush
// wait (or Crash) settles those paths, and commitELR clears the entry
// and markers itself whenever it finds the commit durable, so a dropped
// or failed delivery is never load-bearing.
func (e *Engine) durableNotify(tx wal.TxID, lsn wal.LSN, err error) {
	if err != nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	pc, ok := e.predurable[tx]
	if !ok || pc.lsn != lsn {
		return
	}
	delete(e.predurable, tx)
	e.locks.ClearViolable(tx)
}

// noteViolationsLocked records the controlled lock violations tx just
// committed by acquiring a mode lock on obj: for every pre-durable
// committer whose early-released conflicting lock on obj is still
// marked, tx gains an abort dependency — if the committer's record never
// reaches the device, tx (having read or overwritten its dirty data)
// must go down with it.  Called under the engine latch right after the
// post-acquire revalidation; a marker whose releaser already left the
// predurable map (durability won a callback race) forms no edge.
func (e *Engine) noteViolationsLocked(tx wal.TxID, obj wal.ObjectID, mode lock.Mode) {
	if len(e.predurable) == 0 {
		return
	}
	hooked := e.reg.HasEventHook()
	for _, pred := range e.locks.Violators(tx, obj, mode) {
		if _, pending := e.predurable[pred]; !pending {
			continue
		}
		e.addDependencyEdgeLocked(tx, pred, AbortDependency)
		e.met.elrViolations.Inc()
		if hooked {
			e.reg.Emit(obs.Event{Name: "elr.violate", Tx: uint64(tx), Object: uint64(obj), Value: int64(pred)})
		}
	}
}

// elrFlushFailureLocked rolls back every early-lock-release committer
// whose commit record is stranded above the durable horizon after a
// failed flush round, together with — transitively — every active
// transaction holding an abort dependency on one of them (the violators
// that built on the never-durable data).
//
// All of them are undone in ONE combined reverse-LSN sweep over the
// union of their scopes, driven by the recovery cluster planner.  With
// early lock release, two live transactions CAN have interleaved
// updates on one object (the violator overwrote after the committer
// released); per-transaction aborts would then restore a later
// transaction's stale after-image over an earlier one's restored
// before-image.  The global reverse order is the same argument recovery
// itself relies on.
//
// Idempotent: victims are identified by their live predurable entries,
// which are consumed here, so the second waiter woken by the same
// failed round finds nothing left to do.
func (e *Engine) elrFlushFailureLocked() error {
	flushed := e.log.FlushedLSN()
	type victim struct {
		tx       wal.TxID
		prevLast wal.LSN
	}
	var victims []victim
	for tx, pc := range e.predurable {
		if pc.lsn > flushed {
			victims = append(victims, victim{tx: tx, prevLast: pc.prevLast})
			delete(e.predurable, tx)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	failed := len(victims)
	// Transitive closure of active abort-dependents: they interleave
	// with the victims on the log, so they join the same sweep.
	doomed := make(map[wal.TxID]bool, failed)
	for _, v := range victims {
		doomed[v.tx] = true
	}
	for changed := true; changed; {
		changed = false
		for dep, edges := range e.deps {
			if doomed[dep] {
				continue
			}
			info := e.txns.Get(dep)
			if info == nil || info.Status != txn.Active {
				continue
			}
			for _, edge := range edges {
				if edge.kind == AbortDependency && doomed[edge.on] {
					doomed[dep] = true
					victims = append(victims, victim{tx: dep, prevLast: info.LastLSN})
					changed = true
					break
				}
			}
		}
	}
	// Every victim becomes an Active loser with its backward chain
	// rewound past any never-durable commit record, so the sweep's CLRs
	// hang off its last update, exactly as recovery would chain them.
	var scopes []delegation.Scope
	for _, v := range victims {
		e.locks.ClearViolable(v.tx)
		if info := e.txns.Get(v.tx); info != nil {
			info.Status = txn.Active
			info.LastLSN = v.prevLast
		}
		if ol, ok := e.state[v.tx]; ok {
			scopes = append(scopes, ol.OwnedScopes(v.tx)...)
		}
	}
	if err := e.undoScopes(scopes, undoSweep{}); err != nil {
		return err
	}
	// Terminate each victim: abort + end records and volatile cleanup.
	// No further cascading is needed — the closure above already
	// collected every abort-dependent.
	hooked := e.reg.HasEventHook()
	for i, v := range victims {
		info := e.txns.Get(v.tx)
		if info == nil {
			continue
		}
		lsn, err := e.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: v.tx, PrevLSN: info.LastLSN})
		if err != nil {
			return err
		}
		info.Status = txn.Aborted
		info.LastLSN = lsn
		endLSN, err := e.log.Append(&wal.Record{Type: wal.TypeEnd, TxID: v.tx, PrevLSN: lsn})
		if err != nil {
			return err
		}
		info.LastLSN = endLSN
		e.locks.ReleaseAll(v.tx)
		delete(e.state, v.tx)
		delete(e.deps, v.tx)
		e.txns.Remove(v.tx)
		e.stats.Aborts++
		e.met.aborts.Inc()
		if i < failed {
			e.met.elrFailedCommits.Inc()
		} else {
			e.met.elrCascadeAborts.Inc()
		}
		if hooked {
			e.reg.Emit(obs.Event{Name: "elr.rollback", Tx: uint64(v.tx), LSN: uint64(lsn)})
		}
	}
	return nil
}
