package core

// The recovery engine.  Restart recovery (Recover, including the implicit
// recovery in New), promotion (Promote) and follower catch-up all run one
// pipeline (§3.6):
//
//	scan     — one worker per log segment groups the redoable records
//	           (updates, increments, CLRs) into per-object redo chains.
//	analysis — every scanned record is replayed, strictly in LSN order,
//	           into the transaction table and the object lists (a
//	           delegate record rewrites the scopes the records before it
//	           built), then winners and losers are classified.
//	redo     — each chain is applied exactly once: by the drainer
//	           (longest chain first), by a read of the object, or by the
//	           undo sweep before it compensates a record of the object (a
//	           CLR — especially a logical counter CLR — must land on a
//	           fully redone object).
//	undo     — undoScopes, the backward cluster sweep abort also uses,
//	           hooked to redo before undo and to release read gates.
//	finish   — losers are terminated, the log is forced, the trace is
//	           recorded and the engine flips back to writable.
//
// Options.ParallelRecovery chooses only the schedule.  Off, Recover and
// Promote run the pipeline to completion on the calling goroutine, and
// the redo drain finishes before undo starts.  On, they return after
// analysis; redo drains in the background concurrently with undo.
// Promotion starts at classification — the follower's replay state is a
// completed forward pass — and follower catch-up stops after redo.
//
// Correctness hinges on one rule LSN-ordered redo would get for free: a
// page flushed at pageLSN pl contains exactly the updates with LSN ≤ pl of
// EVERY object stored on it, so each object's redo baseline must be its
// page's pre-recovery pageLSN.  Chains apply (and undo writes CLRs) out of
// global LSN order, and any such write ratchets the shared page's LSN —
// which would corrupt the baseline of objects on the same page whose
// chains apply later.  Therefore every page application runs under one
// applyMu, and the page's stable pageLSN is captured into pageBase at the
// first pipeline touch, before the first pipeline write to it.  applyMu
// also keeps recovering reads atomic with pipeline writes; the
// parallelism that pays for time-to-first-read lives in the scan and in
// the ORDER of redo (on-demand first), not in concurrent page writes,
// which the shared buffer pool would serialise anyway.
//
// Lock order: e.mu → applyMu.  Goroutines holding applyMu never take
// e.mu; the finisher takes e.mu and never applyMu.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ariesrh/internal/delegation"
	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// objectChain is one object's redo work: its redoable records in LSN
// order.  Applied exactly once (sync.Once) — by the first of the
// background drainer, an on-demand read, or the undo sweep's
// redo-before-undo hook.
type objectChain struct {
	obj  wal.ObjectID
	recs []*wal.Record
	once sync.Once
	err  error
}

// undoGate blocks reads of an object covered by loser scopes until the
// backward sweep has passed below minFirst — the lowest First of the
// scopes covering the object, below which no loser record can touch it.
// Released (closed) by the undo sweep.
type undoGate struct {
	minFirst wal.LSN
	ch       chan struct{}
}

// recoveryPipeline is one recovery, promotion or follower catch-up.  Once
// the pipeline is installed its mutable state is the per-chain once, the
// applyMu-guarded page state, and what only the undo sweep touches:
// gateSeq, compensated and failpoint.
type recoveryPipeline struct {
	e         *Engine
	promotion bool
	// parallel is the schedule (Options.ParallelRecovery): return after
	// analysis and overlap redo with undo, instead of running to
	// completion with redo drained first.
	parallel bool

	// Built during setup.
	chains      map[wal.ObjectID]*objectChain
	heat        []*objectChain // chains by descending length; drain order
	gates       map[wal.ObjectID]*undoGate
	gateSeq     []*undoGate // gates by descending minFirst; consumed by releaseGates
	losers      []wal.TxID
	scopes      []delegation.Scope
	compensated map[wal.LSN]bool
	segments    int
	hold        <-chan struct{}

	// Trace bookkeeping: the per-run trace is computed at finish as
	// deltas of the cumulative stats captured here.
	start          time.Time
	statsBefore    Stats
	clustersBefore uint64
	scanDur        time.Duration
	analysisDur    time.Duration

	// applyMu serializes every page application of the pipeline: chain
	// redo, undo CLR writes, and recovering reads.  pageBase holds each
	// page's pre-recovery pageLSN, captured before the pipeline's first
	// write to the page; stats holds the pipeline-local counters merged
	// into e.stats under e.mu at finish.
	applyMu  sync.Mutex
	pageBase map[storage.PageID]wal.LSN
	stats    Stats

	// failpoint is the captured one-shot recovery failpoint; decremented
	// only by the undo sweep.
	failpoint int

	onDemand atomic.Uint64

	// err is the terminal pipeline error; written (if at all) before done
	// is closed, or before e.recovering is cleared under e.mu.
	err  error
	done chan struct{}
}

// newPipelineLocked starts the bookkeeping of one pipeline run over the
// given forward-pass compensated set.  Caller holds e.mu.
func (e *Engine) newPipelineLocked(compensated map[wal.LSN]bool) *recoveryPipeline {
	return &recoveryPipeline{
		e:              e,
		parallel:       e.opts.ParallelRecovery,
		chains:         map[wal.ObjectID]*objectChain{},
		compensated:    compensated,
		start:          time.Now(),
		statsBefore:    e.stats,
		clustersBefore: e.met.undoClusters.Load(),
		pageBase:       make(map[storage.PageID]wal.LSN),
		done:           make(chan struct{}),
	}
}

// WaitRecovered blocks until any in-flight recovery (or promotion)
// pipeline completes and returns its error.  With no pipeline in flight
// it returns nil immediately — or ErrCrashed if the engine is crashed,
// which is what a failed pipeline leaves behind for callers that arrive
// after the fact.  Only the parallel schedule returns from Recover or
// Promote with a pipeline still in flight.
func (e *Engine) WaitRecovered() error {
	e.mu.Lock()
	p := e.recovering
	crashed := e.crashed
	e.mu.Unlock()
	if p == nil {
		if crashed {
			return ErrCrashed
		}
		return nil
	}
	<-p.done
	return p.err
}

// scanLocked runs the scan and analysis stages: per-object redo chains
// from a parallel scan of the log segments from the last checkpoint,
// then analysis of every scanned record, in LSN order, into the volatile
// tables.  Redo is left to the chains.  Caller holds e.mu.
func (p *recoveryPipeline) scanLocked() error {
	e := p.e
	scanStart, analysisAfter, err := e.locateCheckpointLocked()
	if err != nil {
		return err
	}
	e.log.ResetReadCursor()

	scanT := time.Now()
	shards := e.log.RecordShards(scanStart)
	indexes := make([]map[wal.ObjectID][]*wal.Record, len(shards))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(shards) {
		workers = len(shards)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				m := make(map[wal.ObjectID][]*wal.Record)
				for _, rec := range shards[i] {
					if redoable(rec) {
						m[rec.Object] = append(m[rec.Object], rec)
					}
				}
				indexes[i] = m
			}
		}()
	}
	wg.Wait()
	// Merge in shard order: shards are LSN-ordered between themselves and
	// within, so each chain comes out in LSN order.
	for _, m := range indexes {
		for obj, recs := range m {
			c := p.chains[obj]
			if c == nil {
				c = &objectChain{obj: obj}
				p.chains[obj] = c
			}
			c.recs = append(c.recs, recs...)
		}
	}
	p.segments = len(shards)
	p.scanDur = time.Since(scanT)

	analysisT := time.Now()
	for _, shard := range shards {
		for _, rec := range shard {
			e.stats.RecForwardRecords++
			if err := e.analyzeRecordLocked(rec, rec.LSN > analysisAfter, p.compensated); err != nil {
				return err
			}
		}
	}
	p.heat = make([]*objectChain, 0, len(p.chains))
	for _, c := range p.chains {
		p.heat = append(p.heat, c)
	}
	sort.Slice(p.heat, func(i, j int) bool {
		if len(p.heat[i].recs) != len(p.heat[j].recs) {
			return len(p.heat[i].recs) > len(p.heat[j].recs)
		}
		return p.heat[i].obj < p.heat[j].obj
	})
	p.analysisDur = time.Since(analysisT)
	return nil
}

// installLocked finishes setup — winner/loser classification, the undo
// gates, the one-shot test hooks — and makes p the engine's live
// recovery: from here on reads route through it and writes are rejected
// with ErrRecovering.  Caller holds e.mu.
func (p *recoveryPipeline) installLocked() error {
	e := p.e
	classifyT := time.Now()
	losers, scopes, err := e.classifyLocked()
	if err != nil {
		return err
	}
	p.analysisDur += time.Since(classifyT)
	p.losers, p.scopes = losers, scopes
	p.gates, p.gateSeq = buildUndoGates(scopes)
	p.failpoint, p.hold = e.recoveryFailpoint, e.recoveryHold
	e.recoveryFailpoint, e.recoveryHold = 0, nil
	e.recovering = p
	return nil
}

// runPipeline sets up and installs a pipeline under the engine latch,
// then runs it on its schedule: in the background with an immediate
// return (parallel), or to completion on the calling goroutine,
// returning its error.
func (e *Engine) runPipeline(setupLocked func() (*recoveryPipeline, error)) error {
	e.mu.Lock()
	p, err := setupLocked()
	e.mu.Unlock()
	if err != nil {
		return err
	}
	if p.parallel {
		go p.run()
		return nil
	}
	p.run()
	return p.err
}

// buildUndoGates derives the per-object undo gates from the loser scopes:
// one gate per covered object, keyed by the lowest First among the scopes
// covering it, plus the same gates sorted by descending minFirst for the
// sweep to release in order.
func buildUndoGates(scopes []delegation.Scope) (map[wal.ObjectID]*undoGate, []*undoGate) {
	gates := make(map[wal.ObjectID]*undoGate, len(scopes))
	for _, s := range scopes {
		g := gates[s.Object]
		if g == nil {
			gates[s.Object] = &undoGate{minFirst: s.First, ch: make(chan struct{})}
		} else if s.First < g.minFirst {
			g.minFirst = s.First
		}
	}
	seq := make([]*undoGate, 0, len(gates))
	for _, g := range gates {
		seq = append(seq, g)
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i].minFirst > seq[j].minFirst })
	return gates, seq
}

// run drives the pipeline to completion — redo drain and undo sweep,
// concurrently on the parallel schedule and one after the other
// otherwise — then loser termination, the final log force, the trace,
// and the flip back to a writable state.
func (p *recoveryPipeline) run() {
	e := p.e
	var redoErr error
	var redoDur time.Duration
	redo := func() {
		t := time.Now()
		redoErr = p.drain()
		redoDur = time.Since(t)
	}
	var wg sync.WaitGroup
	if p.parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			redo()
		}()
	} else if redo(); redoErr != nil {
		p.fail(redoErr)
		return
	}
	undoT := time.Now()
	err := e.undoScopes(p.scopes, undoSweep{
		compensated: p.compensated,
		fullScan:    e.opts.FullScanUndo,
		stats:       &p.stats,
		passed:      p.releaseGates,
		undo:        p.undo,
	})
	undoDur := time.Since(undoT)
	wg.Wait()
	if err == nil {
		err = redoErr
	}
	if err != nil {
		p.fail(err)
		return
	}

	finishT := time.Now()
	e.mu.Lock()
	err = e.terminateLosers(p.losers)
	if err == nil {
		err = e.log.Flush(e.log.Head())
	}
	if err != nil {
		e.mu.Unlock()
		p.fail(err)
		return
	}
	finishDur := time.Since(finishT)

	// Merge the pipeline-local counters into the engine stats, then
	// record the per-run trace as deltas and feed the cumulative
	// recovery metrics from it.
	e.stats.RecRedone += p.stats.RecRedone
	e.stats.RecBackwardVisited += p.stats.RecBackwardVisited
	e.stats.RecBackwardSkipped += p.stats.RecBackwardSkipped
	e.stats.CLRs += p.stats.CLRs
	e.stats.RecCLRs += p.stats.CLRs
	e.stats.RecUndone += p.stats.CLRs
	before := p.statsBefore
	tr := RecoveryTrace{
		ForwardDur:      p.scanDur + p.analysisDur,
		BackwardDur:     undoDur,
		TotalDur:        time.Since(p.start),
		Parallel:        p.parallel,
		Segments:        p.segments,
		ForwardRecords:  e.stats.RecForwardRecords - before.RecForwardRecords,
		Redone:          e.stats.RecRedone - before.RecRedone,
		BackwardVisited: e.stats.RecBackwardVisited - before.RecBackwardVisited,
		BackwardSkipped: e.stats.RecBackwardSkipped - before.RecBackwardSkipped,
		Clusters:        e.met.undoClusters.Load() - p.clustersBefore,
		CLRs:            e.stats.RecCLRs - before.RecCLRs,
		Losers:          e.stats.RecLosers - before.RecLosers,
		Winners:         e.stats.RecWinners - before.RecWinners,
	}
	tr.Stages = []RecoveryStage{
		{Name: "scan", Dur: p.scanDur, Units: tr.ForwardRecords},
		{Name: "analysis", Dur: p.analysisDur, Units: tr.ForwardRecords},
		{Name: "redo", Dur: redoDur, Units: tr.Redone},
		{Name: "undo", Dur: undoDur, Units: tr.BackwardVisited},
		{Name: "finish", Dur: finishDur, Units: uint64(len(p.losers))},
	}
	e.lastTrace = tr
	e.met.recForwardRecords.Add(tr.ForwardRecords)
	e.met.recRedone.Add(tr.Redone)
	e.met.recCLRs.Add(tr.CLRs)
	e.met.recLosers.Add(tr.Losers)
	e.met.recWinners.Add(tr.Winners)
	e.met.recForwardNs.Observe(tr.ForwardDur)
	e.met.recBackwardNs.Observe(tr.BackwardDur)
	e.met.recTotalNs.Observe(tr.TotalDur)
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "recovery.complete", Value: int64(tr.CLRs), Dur: tr.TotalDur})
	}
	e.mu.Unlock()

	// One-shot test hook: everything is recovered — reads are fully
	// served — but the flip to a writable state waits for the release.
	if p.hold != nil {
		<-p.hold
	}
	e.mu.Lock()
	// Reads are routed through the pipeline until this flip, the hold
	// included.
	e.lastTrace.OnDemandReads = p.onDemand.Load()
	e.recovering = nil
	e.mu.Unlock()
	close(p.done)
}

// fail moves the engine back to the state a failed recovery leaves
// behind — crashed for restart recovery, follower for promotion — and
// publishes the error to every waiter.
func (p *recoveryPipeline) fail(err error) {
	e := p.e
	p.err = err
	e.mu.Lock()
	if p.promotion {
		e.follower = true
		e.compensated = p.compensated
	} else {
		e.crashed = true
	}
	e.recovering = nil
	e.mu.Unlock()
	close(p.done)
}

// drain applies every chain in descending heat order.  On-demand reads
// jump this queue: their applyChain wins the chain's once and the
// drainer's call becomes a no-op.
func (p *recoveryPipeline) drain() error {
	for _, c := range p.heat {
		if err := p.applyChain(c); err != nil {
			return err
		}
	}
	return nil
}

// applyChain redoes c exactly once; concurrent callers block until the
// first finishes and share its error.
func (p *recoveryPipeline) applyChain(c *objectChain) error {
	c.once.Do(func() { c.err = p.redoChain(c) })
	return c.err
}

// redoChain applies c's records in LSN order under applyMu.  The baseline
// is the object's page pre-recovery pageLSN (pageBase), NilLSN for
// objects absent from stable storage — per-page, not per-object, because
// a page flushed at pageLSN pl covers the ≤ pl updates of every object on
// it.
func (p *recoveryPipeline) redoChain(c *objectChain) error {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	base, err := p.baselineLocked(c.obj)
	if err != nil {
		return err
	}
	for _, rec := range c.recs {
		if rec.LSN <= base {
			continue
		}
		if err := p.ensurePageLocked(c.obj); err != nil {
			return err
		}
		if err := p.e.redoRecord(rec); err != nil {
			return err
		}
		p.stats.RecRedone++
	}
	return nil
}

// baselineLocked returns the redo baseline for obj: the captured stable
// pageLSN of the page holding it, or NilLSN for objects absent from the
// stable directory (their page — possibly allocated later by a pipeline
// write of another object — says nothing about them).  Caller holds
// applyMu.
func (p *recoveryPipeline) baselineLocked(obj wal.ObjectID) (wal.LSN, error) {
	pid, ok := p.e.store.PageOf(obj)
	if !ok {
		return wal.NilLSN, nil
	}
	if b, ok := p.pageBase[pid]; ok {
		return b, nil
	}
	pl, err := p.e.store.PageLSNAt(pid)
	if err != nil {
		return wal.NilLSN, err
	}
	p.pageBase[pid] = pl
	return pl, nil
}

// ensurePageLocked locates (allocating if needed) obj's page and captures
// its pageLSN into pageBase if this is the pipeline's first touch — it
// must run before every pipeline write, because the write ratchets the
// page's LSN and would poison the baseline of the page's other objects.
// Caller holds applyMu.
func (p *recoveryPipeline) ensurePageLocked(obj wal.ObjectID) error {
	pid, err := p.e.store.Locate(obj)
	if err != nil {
		return err
	}
	if _, ok := p.pageBase[pid]; !ok {
		pl, err := p.e.store.PageLSNAt(pid)
		if err != nil {
			return err
		}
		p.pageBase[pid] = pl
	}
	return nil
}

// releaseGates is the undo sweep's progress hook: the sweep has reached
// k, so every position above it is settled and any gate whose records all
// lie above k opens.  Gates at exactly k stay shut until the record at k
// is undone; NilLSN (the end of the sweep) opens the rest.
func (p *recoveryPipeline) releaseGates(k wal.LSN) {
	for len(p.gateSeq) > 0 && p.gateSeq[0].minFirst > k {
		close(p.gateSeq[0].ch)
		p.gateSeq = p.gateSeq[1:]
	}
}

// undo is the undo sweep's compensation hook: redo the record's object
// first (redo-before-undo — a no-op once the drain has passed it), then
// write the CLR under applyMu with the page's baseline captured, then
// count the failpoint.  The compensated set learns each CLR, so a retried
// promotion does not undo the record twice.
func (p *recoveryPipeline) undo(owner wal.TxID, rec *wal.Record) error {
	if c := p.chains[rec.Object]; c != nil {
		if err := p.applyChain(c); err != nil {
			return err
		}
	}
	p.applyMu.Lock()
	err := p.ensurePageLocked(rec.Object)
	if err == nil {
		err = p.e.undoRecord(owner, rec, &p.stats)
	}
	p.applyMu.Unlock()
	if err != nil {
		return err
	}
	p.compensated[rec.LSN] = true
	if p.failpoint > 0 {
		p.failpoint--
		if p.failpoint == 0 {
			return ErrInjectedRecoveryFailure
		}
	}
	return nil
}

// readObject serves a read during recovery: redo the object's chain on
// demand, wait for its undo gate, then read — the caller never observes
// a half-recovered object.  If the pipeline completes (or fails) while
// waiting, the read follows the engine's new state.
func (p *recoveryPipeline) readObject(obj wal.ObjectID) ([]byte, bool, error) {
	p.onDemand.Add(1)
	if c := p.chains[obj]; c != nil {
		if err := p.applyChain(c); err != nil {
			return nil, false, err
		}
	}
	if g := p.gates[obj]; g != nil {
		select {
		case <-g.ch:
		case <-p.done:
			// Success releases every gate before done closes, so this
			// branch means failure.
			if err := p.err; err != nil {
				return nil, false, err
			}
		}
	}
	e := p.e
	e.mu.Lock()
	if e.recovering != p {
		// The pipeline finished while we waited; the flip (or the
		// failure) is visible because both happen under e.mu.
		e.mu.Unlock()
		if err := p.err; err != nil {
			return nil, false, err
		}
		return e.ReadObject(obj)
	}
	// Hold e.mu (so the pipeline cannot flip and admit a writer) and
	// applyMu (so no pipeline write interleaves) across the read.
	p.applyMu.Lock()
	v, ok, err := e.store.Read(obj)
	p.applyMu.Unlock()
	e.mu.Unlock()
	return v, ok, err
}
