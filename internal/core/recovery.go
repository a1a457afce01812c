package core

import (
	"errors"
	"fmt"

	"ariesrh/internal/delegation"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// ErrInjectedRecoveryFailure is returned by Recover or Promote (or by
// WaitRecovered, on the parallel schedule) when an armed failpoint fires
// (see SetRecoveryFailpoint).
var ErrInjectedRecoveryFailure = errors.New("core: injected recovery failure")

// Recover restores the engine after a Crash, following §3.6:
//
//  1. A single forward pass (analysis + redo) from the last checkpoint —
//     or from the minimum recLSN in its dirty-page table, if smaller —
//     rebuilds the transaction table and the object lists, replaying
//     delegate records into the scopes exactly as normal processing did,
//     and repeats history by redoing logged updates not yet on the pages.
//  2. Winners (committed before the crash) and Losers (everything else,
//     including transactions that had aborted) are identified; LsrScopes
//     is the union of the loser objects' scopes.
//  3. The backward pass sweeps the clusters of overlapping loser scopes in
//     strictly decreasing LSN order, undoing exactly the loser updates —
//     updates whose *final delegatee* is a loser — and writing a CLR per
//     undo.  Updates invoked by losers but delegated to winners survive;
//     updates invoked by winners but delegated to losers are obliterated.
//
// The log is never modified in place: history is rewritten by
// interpretation, not mutation.
//
// Recover runs the recovery pipeline (instant.go) on the schedule
// Options.ParallelRecovery selects: to completion before returning, or —
// with the flag set — returning after analysis with redo and undo still
// in flight (see WaitRecovered).
func (e *Engine) Recover() error {
	return e.runPipeline(e.setupRecoveryLocked)
}

// setupRecoveryLocked runs Recover's scan and analysis stages from a
// clean slate and installs the pipeline.  Caller holds e.mu.
func (e *Engine) setupRecoveryLocked() (*recoveryPipeline, error) {
	if e.follower {
		return nil, fmt.Errorf("core: a follower does not Recover; reopen it in follower mode or Promote it")
	}
	if !e.crashed {
		return nil, fmt.Errorf("core: Recover called without a crash")
	}
	// Start from a clean slate even if a previous Recover attempt died
	// midway (e.g. an injected failure): replaying analysis onto
	// half-built tables would double-apply delegate records.
	e.txns.Reset(1)
	e.state = delegation.State{}
	e.prepared = make(map[wal.TxID]preparedInfo)
	e.globals = make(map[uint64]globalDecision)

	e.met.recRuns.Inc()
	p := e.newPipelineLocked(make(map[wal.LSN]bool))
	if err := p.scanLocked(); err != nil {
		return nil, err
	}
	if err := p.installLocked(); err != nil {
		return nil, err
	}
	e.crashed = false
	return p, nil
}

// locateCheckpointLocked consults the master record, seeds the transaction
// table and the object lists from the last complete checkpoint, and
// returns where the forward scan starts (the checkpoint's redo point, or
// LSN 1 without one) and the LSN at or below which records are redo-only
// because analysis state comes from the checkpoint snapshot.
func (e *Engine) locateCheckpointLocked() (scanStart, analysisAfter wal.LSN, err error) {
	scanStart = 1
	analysisAfter = wal.NilLSN
	head := e.log.Head()
	ckptEnd, err := e.master.Get()
	if err != nil {
		return 0, 0, err
	}
	if ckptEnd == wal.NilLSN || ckptEnd > head {
		return scanStart, analysisAfter, nil
	}
	rec, err := e.log.Get(ckptEnd)
	if err != nil {
		return 0, 0, err
	}
	if rec.Type != wal.TypeCheckpointEnd {
		return 0, 0, fmt.Errorf("core: master record points at %v, not a checkpoint end", rec.Type)
	}
	ck, err := decodeCheckpoint(rec.Payload)
	if err != nil {
		return 0, 0, err
	}
	for _, info := range ck.txns {
		reg := e.txns.Register(info.ID)
		reg.Status = info.Status
		reg.LastLSN = info.LastLSN
		reg.UndoNextLSN = info.UndoNextLSN
	}
	e.state = ck.state
	for tx, pi := range ck.prepared {
		e.prepared[tx] = pi
		if pi.gid > e.maxGID {
			e.maxGID = pi.gid
		}
	}
	for gid, g := range ck.globals {
		e.globals[gid] = g
		if gid > e.maxGID {
			e.maxGID = gid
		}
	}
	redoStart := ck.beginLSN
	for _, recLSN := range ck.dpt {
		if recLSN == wal.NilLSN {
			// A dirty page with no known recLSN forces a full redo
			// (defensive; the buffer layer always records one).
			redoStart = 1
			break
		}
		if recLSN < redoStart {
			redoStart = recLSN
		}
	}
	return redoStart, ckptEnd, nil
}

// redoable reports whether rec changes an object's page: updates,
// increments and CLRs are the records redo repeats.
func redoable(rec *wal.Record) bool {
	switch rec.Type {
	case wal.TypeUpdate, wal.TypeIncrement, wal.TypeCLR:
		return true
	}
	return false
}

// redoRecord applies one redoable record to its object's page, stamping
// the page with the record's LSN: an update's after-image, an
// increment's delta, a CLR's restored before-image or negated delta.  It
// is the single page applier of repeating history — chain redo, follower
// replay, and the CLRs the undo sweep writes all go through it.  Whether
// the page already reflects the record is the caller's decision.
func (e *Engine) redoRecord(rec *wal.Record) error {
	switch {
	case rec.Type == wal.TypeUpdate:
		return e.store.Write(rec.Object, rec.After, rec.LSN)
	case rec.Type == wal.TypeIncrement, rec.Type == wal.TypeCLR && rec.Logical:
		return e.applyDelta(rec.Object, rec.Delta, rec.LSN)
	case rec.Type == wal.TypeCLR:
		return e.store.Write(rec.Object, rec.Before, rec.LSN)
	}
	return nil
}

// analyzeRecordLocked is the analysis half of the forward pass: the
// transaction-table and object-list bookkeeping for one record, with no
// page access.  When analyze is false (the record precedes the
// checkpoint the tables were seeded from) only CLRs are noted, into
// compensated — the update LSNs the backward pass must skip.  The
// pipeline runs it in LSN order over the scanned shards (analysis is
// inherently ordered — a delegate record rewrites the scopes the records
// before it built) while redo is deferred to the per-object chains; a
// follower runs it once per shipped record.
func (e *Engine) analyzeRecordLocked(rec *wal.Record, analyze bool, compensated map[wal.LSN]bool) error {
	switch rec.Type {
	case wal.TypeBegin:
		if analyze {
			info := e.txns.Register(rec.TxID)
			info.Status = txn.Active
			info.LastLSN = rec.LSN
			e.state[rec.TxID] = delegation.NewObList()
		}
	case wal.TypeUpdate, wal.TypeIncrement:
		if analyze {
			info := e.txns.Register(rec.TxID)
			info.LastLSN = rec.LSN
			ol := e.state[rec.TxID]
			if ol == nil {
				ol = delegation.NewObList()
				e.state[rec.TxID] = ol
			}
			ol.RecordUpdate(rec.TxID, rec.Object, rec.LSN)
		}
	case wal.TypeCLR:
		compensated[rec.Compensates] = true
		if analyze {
			if info := e.txns.Get(rec.TxID); info != nil {
				info.LastLSN = rec.LSN
			}
		}
	case wal.TypeDelegate:
		if analyze {
			torList := e.state[rec.Tor]
			teeList := e.state[rec.Tee]
			if torList == nil || teeList == nil {
				return fmt.Errorf("core: delegate record %d references unknown transactions", rec.LSN)
			}
			torList.DelegateTo(teeList, rec.Tor, rec.Object)
			if torInfo := e.txns.Get(rec.Tor); torInfo != nil {
				torInfo.LastLSN = rec.LSN
			}
			if teeInfo := e.txns.Get(rec.Tee); teeInfo != nil {
				teeInfo.LastLSN = rec.LSN
			}
		}
	case wal.TypeCommit:
		if analyze {
			e.stats.RecWinners++
			if info := e.txns.Get(rec.TxID); info != nil {
				info.Status = txn.Committed
				info.LastLSN = rec.LSN
			}
			// A commit following a prepare record resolves the global
			// transaction.  On the coordinator (the prepare record named
			// this shard) retain the decision — queryable by peer shards,
			// archive-pinned at the prepare record — until released; a
			// participant's commit merely applied it, so retain nothing.
			if pi, ok := e.prepared[rec.TxID]; ok {
				if pi.coord == e.opts.ShardID {
					e.globals[pi.gid] = globalDecision{prepareLSN: pi.prepareLSN}
				}
				delete(e.prepared, rec.TxID)
			}
		}
	case wal.TypeAbort:
		if analyze {
			if info := e.txns.Get(rec.TxID); info != nil {
				info.Status = txn.Aborted
				info.LastLSN = rec.LSN
			}
			// An aborted voter is no longer in-doubt; presumed abort
			// retains nothing.
			delete(e.prepared, rec.TxID)
		}
	case wal.TypeEnd:
		if analyze {
			e.txns.Remove(rec.TxID)
			delete(e.state, rec.TxID)
			delete(e.prepared, rec.TxID)
		}
	case wal.TypePrepare:
		if analyze {
			info := e.txns.Register(rec.TxID)
			info.Status = txn.Prepared
			info.LastLSN = rec.LSN
			e.prepared[rec.TxID] = preparedInfo{gid: rec.GID, coord: rec.Shard, prepareLSN: rec.LSN}
			if rec.GID > e.maxGID {
				e.maxGID = rec.GID
			}
		}
	case wal.TypeDelegateOut:
		// The home-shard half of a cross-shard delegation transfers
		// responsibility between two local transactions exactly like a
		// plain delegate record; the gid/peer fields are audit trail.
		if analyze {
			torList := e.state[rec.Tor]
			teeList := e.state[rec.Tee]
			if torList == nil || teeList == nil {
				return fmt.Errorf("core: delegate-out record %d references unknown transactions", rec.LSN)
			}
			torList.DelegateTo(teeList, rec.Tor, rec.Object)
			if torInfo := e.txns.Get(rec.Tor); torInfo != nil {
				torInfo.LastLSN = rec.LSN
			}
			if teeInfo := e.txns.Get(rec.Tee); teeInfo != nil {
				teeInfo.LastLSN = rec.LSN
			}
			if rec.GID > e.maxGID {
				e.maxGID = rec.GID
			}
		}
	case wal.TypeDelegateIn:
		// Acquirer-side bookkeeping of a cross-shard delegation: no state
		// change on this shard — the object and its scopes live on the
		// home shard — only the backward chain advances.
		if analyze {
			info := e.txns.Register(rec.TxID)
			info.LastLSN = rec.LSN
			if rec.GID > e.maxGID {
				e.maxGID = rec.GID
			}
		}
	case wal.TypeCheckpointBegin, wal.TypeCheckpointEnd:
		// Checkpoints carry no database changes.
	default:
		return fmt.Errorf("core: unexpected record %v during recovery", rec.Type)
	}
	return nil
}

// classifyLocked identifies winners and losers from the transaction
// table after the forward pass (§3.6.1): winners whose End record was
// lost get one appended and leave the tables; everything else is a loser
// and contributes its owned scopes to LsrScopes.  The pipeline's setup
// runs it for both recovery and promotion.
func (e *Engine) classifyLocked() (losers []wal.TxID, lsrScopes []delegation.Scope, err error) {
	for _, info := range e.txns.Snapshot() {
		if info.Status == txn.Committed {
			// Winner whose End record was lost with the crash:
			// its effects are already redone; finish bookkeeping.
			if _, err := e.log.Append(&wal.Record{Type: wal.TypeEnd, TxID: info.ID, PrevLSN: info.LastLSN}); err != nil {
				return nil, nil, err
			}
			e.txns.Remove(info.ID)
			delete(e.state, info.ID)
			continue
		}
		if info.Status == txn.Prepared {
			// In-doubt 2PC participant: neither winner nor loser.  Its
			// effects stay redone and un-undone, its entry and scopes
			// stay live, until the coordinator's decision (or presumed
			// abort) resolves it via CommitPrepared/AbortPrepared.
			continue
		}
		losers = append(losers, info.ID)
	}
	for _, id := range losers {
		e.stats.RecLosers++
		if ol := e.state[id]; ol != nil {
			lsrScopes = append(lsrScopes, ol.OwnedScopes(id)...)
		}
	}
	return losers, lsrScopes, nil
}

// terminateLosers appends the Abort (where needed) and End records that
// finish every loser and drops them from the volatile tables.  The
// caller is the pipeline's finisher, holding the engine latch after the
// redo drain and the undo sweep have completed.
func (e *Engine) terminateLosers(losers []wal.TxID) error {
	for _, id := range losers {
		info := e.txns.Get(id)
		if info == nil {
			continue
		}
		if info.Status != txn.Aborted {
			lsn, err := e.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: id, PrevLSN: info.LastLSN})
			if err != nil {
				return err
			}
			info.LastLSN = lsn
		}
		if _, err := e.log.Append(&wal.Record{Type: wal.TypeEnd, TxID: id, PrevLSN: info.LastLSN}); err != nil {
			return err
		}
		e.txns.Remove(id)
		delete(e.state, id)
	}
	// With the losers gone the lock table is empty; in-doubt participants
	// re-take their object locks so nothing can touch their data before
	// the decision arrives.
	return e.relockInDoubtLocked()
}

// undoOrder is the visit order of the backward sweep: the positions to
// examine in strictly decreasing LSN order, and which loser (if any) is
// responsible for the update at each.
type undoOrder interface {
	Next() (wal.LSN, bool)
	ShouldUndo(invoker wal.TxID, object wal.ObjectID, lsn wal.LSN) (wal.TxID, bool)
}

// fullScanOrder is the A1 ablation's visit order (Options.FullScanUndo):
// the alternative §3.6.2 rejects — "scan all log records backwards,
// identifying the loser updates … unnecessarily inspecting many winner
// updates."  It yields EVERY position from the highest loser LSN down to
// the lowest and tests each against every scope.  Functionally identical
// to the cluster planner; the visit counters expose the cost difference
// the paper's cluster design avoids.
type fullScanOrder struct {
	scopes    []delegation.Scope
	next, low wal.LSN
}

func newFullScanOrder(scopes []delegation.Scope) *fullScanOrder {
	f := &fullScanOrder{scopes: scopes}
	for i, s := range scopes {
		if i == 0 || s.First < f.low {
			f.low = s.First
		}
		if s.Last > f.next {
			f.next = s.Last
		}
	}
	return f
}

func (f *fullScanOrder) Next() (wal.LSN, bool) {
	if f.next == wal.NilLSN || f.next < f.low {
		return wal.NilLSN, false
	}
	f.next--
	return f.next + 1, true
}

func (f *fullScanOrder) ShouldUndo(invoker wal.TxID, object wal.ObjectID, lsn wal.LSN) (wal.TxID, bool) {
	for _, s := range f.scopes {
		if s.Invoker == invoker && s.Object == object && s.Contains(lsn) {
			return s.Owner, true
		}
	}
	return wal.NilTx, false
}

// IsCrashed reports whether the engine is between Crash and Recover.
func (e *Engine) IsCrashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// ErrIs reports whether err matches any engine sentinel; convenience for
// callers that treat deadlock and ill-formed delegation uniformly.
func ErrIs(err error, sentinels ...error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}
