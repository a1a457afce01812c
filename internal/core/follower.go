package core

import (
	"errors"
	"fmt"

	"ariesrh/internal/wal"
)

// Follower mode runs the engine as a replication standby: recovery's
// forward pass (analysis + redo), normally a bounded scan, becomes a
// continuous process fed one batch of shipped log records at a time.
// Updates land on pages, delegate records rewrite the live Ob_List scopes
// exactly as they did on the primary, and the transaction table tracks
// every in-flight transaction — so at any instant the follower holds
// precisely the state a crashed primary's recovery would have after its
// forward pass.  That is what makes Promote cheap and honest: it runs the
// recovery pipeline (instant.go) from classification on — the backward
// sweep over clusters of loser scopes, loser termination, the final
// force — and nothing else.  There is no separate promotion code path to
// trust.

// ErrFollower is returned for mutating operations on a follower engine;
// Promote turns the follower into a primary that accepts them.
var ErrFollower = errors.New("core: engine is a read-only follower; Promote to accept writes")

// IsFollower reports whether the engine is in follower mode.
func (e *Engine) IsFollower() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.follower
}

// followerCatchUpLocked replays the local log from the last checkpoint
// into the follower's live replay state: the recovery pipeline's scan,
// analysis and redo stages, with no classification and no undo.  On a
// restored backup this is exactly restart recovery's forward pass; the
// difference is that in-flight transactions are left live — the stream
// will decide their fate — instead of being rolled back as losers.
func (e *Engine) followerCatchUpLocked() error {
	p := e.newPipelineLocked(e.compensated)
	if err := p.scanLocked(); err != nil {
		return err
	}
	if err := p.drain(); err != nil {
		return err
	}
	e.stats.RecRedone += p.stats.RecRedone
	e.replayedLSN = e.log.Head()
	e.met.replReplayed.Set(int64(e.replayedLSN))
	return nil
}

// FollowerApply appends a batch of shipped records to the local log and
// replays them.  Records must arrive in strict LSN order with no gaps:
// the first record's LSN must be exactly Head()+1 (Append then re-derives
// the same LSN, and the encoding is deterministic, so the follower's log
// stays a byte-identical prefix of the primary's durable log).  The
// records become durable on the follower only at the next FollowerFlush;
// acknowledgements sent upstream must wait for that.
func (e *Engine) FollowerApply(recs []*wal.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.follower {
		return fmt.Errorf("core: FollowerApply on a non-follower engine")
	}
	if e.crashed {
		return ErrCrashed
	}
	for _, rec := range recs {
		if want := e.log.Head() + 1; rec.LSN != want {
			return fmt.Errorf("core: follower apply out of order: record lsn %d, expected %d", rec.LSN, want)
		}
		if _, err := e.log.Append(rec); err != nil {
			return err
		}
		// Analysis and redo of one record, as in restart recovery.  A
		// shipped record is always above the local head, so no page can
		// already reflect it.
		e.stats.RecForwardRecords++
		if err := e.analyzeRecordLocked(rec, true, e.compensated); err != nil {
			return err
		}
		if redoable(rec) {
			if err := e.redoRecord(rec); err != nil {
				return err
			}
			e.stats.RecRedone++
		}
		e.replayedLSN = rec.LSN
	}
	e.met.replApplied.Add(uint64(len(recs)))
	e.met.replReplayed.Set(int64(e.replayedLSN))
	return nil
}

// FollowerFlush forces the follower's local log through the current head
// and returns the durable LSN.  The replica's acknowledgement to the
// primary — which releases the primary's retention pin — must never
// exceed this value.
func (e *Engine) FollowerFlush() (wal.LSN, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.follower {
		return wal.NilLSN, fmt.Errorf("core: FollowerFlush on a non-follower engine")
	}
	if e.crashed {
		return wal.NilLSN, ErrCrashed
	}
	head := e.log.Head()
	if err := e.log.Flush(head); err != nil {
		return wal.NilLSN, err
	}
	return head, nil
}

// ReplayedLSN returns the highest LSN the engine has replayed — the
// consistency point follower reads are served at.  On a promoted or
// primary engine it is simply the last value reached in follower mode
// (NilLSN if the engine was never a follower).
func (e *Engine) ReplayedLSN() wal.LSN {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replayedLSN
}

// FollowerRead returns obj's value together with the replayed LSN it is
// consistent with, under one latch acquisition — the read-at-LSN
// primitive replica-side queries are built on.
func (e *Engine) FollowerRead(obj wal.ObjectID) ([]byte, bool, wal.LSN, error) {
	e.mu.Lock()
	if p := e.recovering; p != nil {
		// A promotion is sweeping the loser clusters; the read
		// waits for its object's undo gate, so it observes either the
		// follower value (object untouched by losers) or the promoted
		// one — never a half-undone state.
		replayed := e.replayedLSN
		e.mu.Unlock()
		v, ok, err := p.readObject(obj)
		return v, ok, replayed, err
	}
	defer e.mu.Unlock()
	if e.crashed {
		return nil, false, wal.NilLSN, ErrCrashed
	}
	v, ok, err := e.store.Read(obj)
	return v, ok, e.replayedLSN, err
}

// Promote turns the follower into a primary.  The follower's replay state
// IS a completed recovery forward pass, so promotion is exactly the rest
// of recovery: classify winners and losers, run the backward cluster
// sweep over the loser scopes, terminate the losers, force the log
// (§3.6.2).  On success the engine accepts writes; on error it remains a
// follower and Promote may be retried (the CLRs already written are found
// via the compensated set and not re-applied).
//
// Promote runs the recovery pipeline on the schedule
// Options.ParallelRecovery selects.  Without it, Promote returns once the
// promotion is complete.  With it, Promote returns once the sweep is
// started; the engine reports StateRecovering, follower reads keep
// flowing (each gated on the undo of the loser clusters covering its
// object), and writes are accepted after WaitRecovered returns nil.
func (e *Engine) Promote() error {
	return e.runPipeline(e.setupPromotionLocked)
}

// setupPromotionLocked installs a promotion pipeline over the follower's
// replay state.  Caller holds e.mu.
func (e *Engine) setupPromotionLocked() (*recoveryPipeline, error) {
	if !e.follower {
		return nil, fmt.Errorf("core: Promote on a non-follower engine")
	}
	if e.crashed {
		return nil, ErrCrashed
	}
	// The replayed prefix must be durable before the backward pass piles
	// CLRs on top of it (write-ahead: a CLR's flush assumes everything
	// below it is already on the device).
	if err := e.log.Flush(e.log.Head()); err != nil {
		return nil, err
	}
	e.met.recRuns.Inc()
	p := e.newPipelineLocked(e.compensated)
	p.promotion = true
	if err := p.installLocked(); err != nil {
		return nil, err
	}
	e.follower = false
	e.compensated = nil
	return p, nil
}
