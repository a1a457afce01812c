package core

import (
	"time"

	"ariesrh/internal/obs"
)

// engineMetrics holds the engine's pre-resolved metric handles (see
// internal/obs).  The engine owns the registry; the WAL, buffer pool and
// lock manager bind their own handles to the same registry at
// construction, so one snapshot covers the whole stack.
type engineMetrics struct {
	begins, updates, reads, delegations, commits, aborts,
	clrs, checkpoints *obs.Counter

	// Backward-sweep counters, shared by normal-processing aborts and
	// the recovery backward pass: positions visited, positions skipped
	// between clusters, clusters entered.
	undoVisited, undoSkipped, undoClusters *obs.Counter

	// Recovery counters (cumulative over Recover calls).
	recRuns, recForwardRecords, recRedone, recCLRs,
	recLosers, recWinners *obs.Counter

	// Degraded-mode accounting: deviceErrors counts persistent device
	// errors that degraded the engine, degradedRejects the operations
	// turned away with ErrDegraded; degraded is 1 while degraded.
	deviceErrors, degradedRejects *obs.Counter
	degraded                      *obs.Gauge

	// Follower-mode accounting: records applied via FollowerApply and
	// the replayed LSN watermark (the replica side of replication lag;
	// the primary side lives in internal/repl).
	replApplied  *obs.Counter
	replReplayed *obs.Gauge

	// Early-lock-release accounting: commits that released their locks
	// pre-durably, violations admitted (dependency edges formed on a
	// pre-durable committer), ELR commits rolled back by a failed flush,
	// and the transactions those rollbacks cascaded into.
	elrCommits, elrViolations, elrFailedCommits, elrCascadeAborts *obs.Counter

	// Cross-shard 2PC accounting (internal/shard): prepares voted,
	// prepared transactions committed/aborted by a decision, and in-doubt
	// transactions resolved after recovery by the coordinator's answer.
	prepares, twopcCommits, twopcAborts,
	indoubtCommitted, indoubtAborted,
	delegateOuts, delegateIns *obs.Counter

	// Per-operation end-to-end latency (lock waits included).
	updateNs, delegateNs, commitNs, abortNs *obs.Histogram

	// prepareNs is the end-to-end prepare latency, force included.
	prepareNs *obs.Histogram

	// elrAckDeferNs is the span an ELR committer spends between releasing
	// its locks (commit-record append) and receiving the durability ack —
	// the time the violation window is open.
	elrAckDeferNs *obs.Histogram

	// Per-phase recovery durations.
	recForwardNs, recBackwardNs, recTotalNs *obs.Histogram
}

func bindEngineMetrics(r *obs.Registry) engineMetrics {
	return engineMetrics{
		begins:            r.Counter("core.begins"),
		updates:           r.Counter("core.updates"),
		reads:             r.Counter("core.reads"),
		delegations:       r.Counter("core.delegations"),
		commits:           r.Counter("core.commits"),
		aborts:            r.Counter("core.aborts"),
		clrs:              r.Counter("core.clrs"),
		checkpoints:       r.Counter("core.checkpoints"),
		undoVisited:       r.Counter("undo.visited"),
		undoSkipped:       r.Counter("undo.skipped"),
		undoClusters:      r.Counter("undo.clusters"),
		recRuns:           r.Counter("recovery.runs"),
		recForwardRecords: r.Counter("recovery.forward_records"),
		recRedone:         r.Counter("recovery.redone"),
		recCLRs:           r.Counter("recovery.clrs"),
		recLosers:         r.Counter("recovery.losers"),
		recWinners:        r.Counter("recovery.winners"),
		deviceErrors:      r.Counter("core.device_errors"),
		degradedRejects:   r.Counter("core.degraded_rejects"),
		degraded:          r.Gauge("core.degraded"),
		replApplied:       r.Counter("repl.applied_records"),
		replReplayed:      r.Gauge("repl.replayed_lsn"),
		elrCommits:        r.Counter("elr.commits"),
		elrViolations:     r.Counter("elr.violations"),
		elrFailedCommits:  r.Counter("elr.failed_commits"),
		elrCascadeAborts:  r.Counter("elr.cascade_aborts"),
		elrAckDeferNs:     r.Histogram("elr.ack_defer_ns"),
		prepares:          r.Counter("twopc.prepares"),
		twopcCommits:      r.Counter("twopc.commits"),
		twopcAborts:       r.Counter("twopc.aborts"),
		indoubtCommitted:  r.Counter("twopc.indoubt_committed"),
		indoubtAborted:    r.Counter("twopc.indoubt_aborted"),
		delegateOuts:      r.Counter("twopc.delegate_out"),
		delegateIns:       r.Counter("twopc.delegate_in"),
		prepareNs:         r.Histogram("twopc.prepare_ns"),
		updateNs:          r.Histogram("core.update_ns"),
		delegateNs:        r.Histogram("core.delegate_ns"),
		commitNs:          r.Histogram("core.commit_ns"),
		abortNs:           r.Histogram("core.abort_ns"),
		recForwardNs:      r.Histogram("recovery.forward_ns"),
		recBackwardNs:     r.Histogram("recovery.backward_ns"),
		recTotalNs:        r.Histogram("recovery.total_ns"),
	}
}

// RecoveryStage is one stage of a recovery run: its name, wall-clock
// duration, and how many units (records, chains, positions — per the
// stage) it processed.  Every run reports scan, analysis, redo, undo and
// finish; on the parallel schedule redo and undo overlap in wall time,
// which is the point.  Promotion's scan, analysis and redo are empty:
// the follower already ran its forward pass.
type RecoveryStage struct {
	Name  string
	Dur   time.Duration
	Units uint64
}

// RecoveryTrace describes one Recover call: how long each phase took and
// how much log it touched.  The counters here are per-run (unlike the
// cumulative registry counters), which is what the claim tests and the
// rhrecover tool want.
type RecoveryTrace struct {
	// Phase durations.  ForwardDur covers scan + analysis (the work done
	// before the parallel schedule makes reads available) and
	// BackwardDur the undo sweep; the Stages list has the full split.
	ForwardDur  time.Duration
	BackwardDur time.Duration
	TotalDur    time.Duration

	// Stages is the per-stage breakdown in execution order.  Stage
	// durations may overlap (on the parallel schedule redo and undo run
	// concurrently), so they need not sum to TotalDur.
	Stages []RecoveryStage

	// Parallel reports whether this recovery ran on the parallel
	// (instant-restart) schedule; Segments is the number of log shards
	// its scan fanned out over, and OnDemandReads counts reads served
	// mid-recovery (each triggering redo of just its object's chain).
	Parallel      bool
	Segments      int
	OnDemandReads uint64

	// Forward pass: records scanned and redone.
	ForwardRecords uint64
	Redone         uint64

	// Backward pass: positions visited by the cluster sweep, positions
	// skipped between clusters, clusters entered, CLRs written.
	BackwardVisited uint64
	BackwardSkipped uint64
	Clusters        uint64
	CLRs            uint64

	// Classification.
	Losers  uint64
	Winners uint64
}

// Registry returns the engine's metric registry.  Callers may read
// metrics or install an event hook; they must not repurpose the registry
// for unrelated series.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Metrics returns a point-in-time snapshot of every metric in the
// engine's registry — WAL, buffer pool, lock manager and engine series
// together.  Subtract two snapshots (obs.Snapshot.Sub) for a delta.
func (e *Engine) Metrics() obs.Snapshot { return e.reg.Snapshot() }

// SetEventHook installs fn as the engine's structured event hook; nil
// uninstalls.  The hook runs synchronously on the emitting goroutine,
// often under the engine latch: it must be fast and must not call back
// into the engine.
func (e *Engine) SetEventHook(fn func(obs.Event)) { e.reg.SetEventHook(fn) }

// LastRecoveryTrace returns the trace of the most recent Recover call
// (zero value if Recover has not run).
func (e *Engine) LastRecoveryTrace() RecoveryTrace {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastTrace
}
