package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// recoverAndWait runs Recover to completion on either schedule and
// returns the recovery's error.
func recoverAndWait(e *Engine) error {
	if err := e.Recover(); err != nil {
		return err
	}
	return e.WaitRecovered()
}

func crashAndRecover(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := recoverAndWait(e); err != nil {
		t.Fatal(err)
	}
}

// forEachSchedule runs body once per recovery schedule: sequential, and
// the parallel pipeline (Options.ParallelRecovery).
func forEachSchedule(t *testing.T, body func(t *testing.T, parallel bool)) {
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) { body(t, parallel) })
	}
}

// newScheduledEngine is newEngine on the given recovery schedule.
func newScheduledEngine(t *testing.T, parallel bool) *Engine {
	t.Helper()
	e, err := New(Options{PoolSize: 16, ParallelRecovery: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRecoveryCommittedSurvivesCrash(t *testing.T) {
	forEachSchedule(t, testRecoveryCommittedSurvivesCrash)
}

func testRecoveryCommittedSurvivesCrash(t *testing.T, parallel bool) {
	e := newScheduledEngine(t, parallel)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "durable")
	mustCommit(t, e, tx)
	crashAndRecover(t, e)
	wantValue(t, e, 1, "durable")
}

func TestRecoveryUncommittedRolledBack(t *testing.T) {
	forEachSchedule(t, testRecoveryUncommittedRolledBack)
}

func testRecoveryUncommittedRolledBack(t *testing.T, parallel bool) {
	e := newScheduledEngine(t, parallel)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	mustCommit(t, e, setup)

	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "dirty")
	mustUpdate(t, e, tx, 2, "junk")
	// No commit: crash loses the unflushed tail... but the updates may
	// have been flushed by pool pressure; force the worst case by
	// flushing the log explicitly (steal policy).
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "base")
	wantValue(t, e, 2, "")
}

func TestRecoveryUnflushedCommittedLost(t *testing.T) {
	forEachSchedule(t, testRecoveryUnflushedCommittedLost)
}

func testRecoveryUnflushedCommittedLost(t *testing.T, parallel bool) {
	// A transaction whose commit record never reached stable storage is
	// a loser: its updates must not survive.
	e := newScheduledEngine(t, parallel)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "phantom")
	// Commit flushes; instead simulate the crash BEFORE commit.
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
	// The engine accepts new work after recovery.
	tx2 := mustBegin(t, e)
	mustUpdate(t, e, tx2, 1, "fresh")
	mustCommit(t, e, tx2)
	wantValue(t, e, 1, "fresh")
}

// TestRecoveryDelegationWinner is the heart of ARIES/RH: an update whose
// invoking transaction aborted/crashed survives because it was delegated
// to a transaction that committed before the crash.
func TestRecoveryDelegationWinner(t *testing.T) { forEachSchedule(t, testRecoveryDelegationWinner) }

func testRecoveryDelegationWinner(t *testing.T, parallel bool) {
	e := newScheduledEngine(t, parallel)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	// t1 never commits; crash.
	crashAndRecover(t, e)
	wantValue(t, e, 1, "delegated")
}

// TestRecoveryDelegationLoser: the dual — the invoker committed, but the
// final delegatee is a loser, so the update is obliterated.
func TestRecoveryDelegationLoser(t *testing.T) { forEachSchedule(t, testRecoveryDelegationLoser) }

func testRecoveryDelegationLoser(t *testing.T, parallel bool) {
	e := newScheduledEngine(t, parallel)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "doomed")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t1)
	// t2 active at crash time → loser.
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
}

func TestRecoveryDelegationChainAcrossCrash(t *testing.T) {
	forEachSchedule(t, testRecoveryDelegationChainAcrossCrash)
}

func testRecoveryDelegationChainAcrossCrash(t *testing.T, parallel bool) {
	e := newScheduledEngine(t, parallel)
	t0 := mustBegin(t, e)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t0, 5, "chained")
	mustUpdate(t, e, t0, 6, "undelegated")
	mustDelegate(t, e, t0, t1, 5)
	mustDelegate(t, e, t1, t2, 5)
	mustCommit(t, e, t2)
	// t0 and t1 are losers.
	crashAndRecover(t, e)
	wantValue(t, e, 5, "chained") // final delegatee committed
	wantValue(t, e, 6, "")        // t0's own update rolled back
}

func TestRecoveryPaperExample2(t *testing.T) { forEachSchedule(t, testRecoveryPaperExample2) }

func testRecoveryPaperExample2(t *testing.T, parallel bool) {
	// Example 2 with a crash instead of explicit terminations: t1
	// committed (first update survives), t2 active at crash (second
	// update undone), t committed.
	e := newScheduledEngine(t, parallel)
	tt := mustBegin(t, e)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	const ob = 7
	mustUpdate(t, e, tt, ob, "first")
	mustDelegate(t, e, tt, t1, ob)
	mustUpdate(t, e, tt, ob, "second")
	mustDelegate(t, e, tt, t2, ob)
	mustCommit(t, e, tt)
	mustCommit(t, e, t1)
	crashAndRecover(t, e)
	wantValue(t, e, ob, "first")
}

func TestRecoveryWithCheckpoint(t *testing.T) { forEachSchedule(t, testRecoveryWithCheckpoint) }

func testRecoveryWithCheckpoint(t *testing.T, parallel bool) {
	e := newScheduledEngine(t, parallel)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	mustDelegate(t, e, t1, t2, 1)
	mustUpdate(t, e, t2, 2, "own")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, t2, 3, "after-ckpt")
	mustCommit(t, e, t2)
	// t1 is a loser; everything t2 was responsible for must survive,
	// including the delegated update recorded only via the checkpointed
	// scope state.
	crashAndRecover(t, e)
	wantValue(t, e, 1, "delegated")
	wantValue(t, e, 2, "own")
	wantValue(t, e, 3, "after-ckpt")
}

func TestRecoveryCheckpointLoserScopes(t *testing.T) {
	forEachSchedule(t, testRecoveryCheckpointLoserScopes)
}

func testRecoveryCheckpointLoserScopes(t *testing.T, parallel bool) {
	// The loser's delegated-in scopes cross a checkpoint: recovery must
	// undo updates that precede the checkpoint using the checkpointed
	// object lists.
	e := newScheduledEngine(t, parallel)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "doomed")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t1)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, t2, 2, "also-doomed")
	// Flush so the loser updates are stably logged, then crash.
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
	wantValue(t, e, 2, "")
}

func TestRecoveryAbortedBeforeCrashStaysRolledBack(t *testing.T) {
	forEachSchedule(t, testRecoveryAbortedBeforeCrashStaysRolledBack)
}

func testRecoveryAbortedBeforeCrashStaysRolledBack(t *testing.T, parallel bool) {
	e := newScheduledEngine(t, parallel)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	mustCommit(t, e, setup)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "junk")
	mustAbort(t, e, tx)
	crashAndRecover(t, e)
	wantValue(t, e, 1, "base")
}

func TestRecoveryCrashDuringRecovery(t *testing.T) {
	forEachSchedule(t, testRecoveryCrashDuringRecovery)
}

func testRecoveryCrashDuringRecovery(t *testing.T, parallel bool) {
	// Crash, recover partially (simulated by crashing immediately after
	// recovery completes and once more before), recover again: the CLRs
	// and compensated-set logic must keep undo idempotent.
	e := newScheduledEngine(t, parallel)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	mustCommit(t, e, setup)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "dirty")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e) // first recovery rolls tx back, writes CLRs
	crashAndRecover(t, e) // second recovery must not double-undo
	crashAndRecover(t, e)
	wantValue(t, e, 1, "base")
}

func TestRecoveryIdempotentRedo(t *testing.T) { forEachSchedule(t, testRecoveryIdempotentRedo) }

func testRecoveryIdempotentRedo(t *testing.T, parallel bool) {
	// Repeated crash/recover cycles leave committed state intact.
	e := newScheduledEngine(t, parallel)
	tx := mustBegin(t, e)
	for i := 1; i <= 20; i++ {
		mustUpdate(t, e, tx, wal.ObjectID(i%5+1), fmt.Sprintf("v%d", i))
	}
	mustCommit(t, e, tx)
	for i := 0; i < 3; i++ {
		crashAndRecover(t, e)
	}
	wantValue(t, e, 1, "v20")
	wantValue(t, e, 5, "v19")
}

func TestRecoveryReopenFromStores(t *testing.T) {
	// A brand-new engine over the same stable stores (process restart
	// rather than in-process crash) must recover identically.
	logDir := wal.NewMemDir()
	master := wal.NewMemStore()
	disk := storage.NewMemDisk()
	e, err := New(Options{PoolSize: 16, LogDir: logDir, Disk: disk, MasterStore: master})
	if err != nil {
		t.Fatal(err)
	}
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	mustUpdate(t, e, t1, 2, "loser")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	// "Restart": open a second engine over the same stores.
	e2, err := New(Options{PoolSize: 16, LogDir: logDir, Disk: disk, MasterStore: master})
	if err != nil {
		t.Fatal(err)
	}
	wantValue(t, e2, 1, "delegated")
	wantValue(t, e2, 2, "")
}

func TestRecoveryStatsShape(t *testing.T) { forEachSchedule(t, testRecoveryStatsShape) }

func testRecoveryStatsShape(t *testing.T, parallel bool) {
	e := newScheduledEngine(t, parallel)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "a")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	mustUpdate(t, e, t1, 2, "b")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	s := e.Stats()
	if s.RecWinners != 1 || s.RecLosers != 1 {
		t.Fatalf("winners=%d losers=%d", s.RecWinners, s.RecLosers)
	}
	if s.RecCLRs != 1 {
		t.Fatalf("recovery CLRs = %d, want 1 (only t1's own update)", s.RecCLRs)
	}
	if s.RecForwardRecords == 0 || s.RecRedone == 0 {
		t.Fatalf("forward pass stats empty: %+v", s)
	}
	// Both schedules run the same pipeline and trace the same stages;
	// the forward pass is scan plus analysis.
	tr := e.LastRecoveryTrace()
	var names []string
	for _, st := range tr.Stages {
		names = append(names, st.Name)
	}
	if got := strings.Join(names, ","); got != "scan,analysis,redo,undo,finish" {
		t.Fatalf("stages = %s", got)
	}
	if tr.Parallel != parallel {
		t.Fatalf("trace Parallel = %v on the parallel=%v schedule", tr.Parallel, parallel)
	}
	if want := tr.Stages[0].Dur + tr.Stages[1].Dur; tr.ForwardDur != want {
		t.Fatalf("ForwardDur = %v, scan+analysis = %v", tr.ForwardDur, want)
	}
}

func TestCrashRejectsOperationsUntilRecover(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Begin(); err != ErrCrashed {
		t.Fatalf("Begin err = %v", err)
	}
	if err := e.Update(tx, 1, []byte("x")); err != ErrCrashed {
		t.Fatalf("Update err = %v", err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	// Recover without a crash is an error.
	if err := e.Recover(); err == nil {
		t.Fatal("double Recover accepted")
	}
}

func TestRecoveryManyObjectsManyTxns(t *testing.T) {
	forEachSchedule(t, testRecoveryManyObjectsManyTxns)
}

func testRecoveryManyObjectsManyTxns(t *testing.T, parallel bool) {
	e := newScheduledEngine(t, parallel)
	committedVals := map[wal.ObjectID]string{}
	// Interleave 10 committed and 10 crashed transactions over 50 objects.
	for round := 0; round < 10; round++ {
		winner := mustBegin(t, e)
		loser := mustBegin(t, e)
		for i := 0; i < 5; i++ {
			wObj := wal.ObjectID(round*5 + i + 1)
			lObj := wal.ObjectID(round*5 + i + 1 + 500)
			wv := fmt.Sprintf("w%d-%d", round, i)
			mustUpdate(t, e, winner, wObj, wv)
			committedVals[wObj] = wv
			mustUpdate(t, e, loser, lObj, "junk")
		}
		mustCommit(t, e, winner)
		// losers stay active
	}
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	for obj, want := range committedVals {
		wantValue(t, e, obj, want)
	}
	for obj := wal.ObjectID(501); obj <= 550; obj++ {
		wantValue(t, e, obj, "")
	}
}

func TestRecoverRetryWithoutCrashAfterInjectedFailure(t *testing.T) {
	forEachSchedule(t, testRecoverRetryWithoutCrashAfterInjectedFailure)
}

func testRecoverRetryWithoutCrashAfterInjectedFailure(t *testing.T, parallel bool) {
	// A failed recovery attempt must be retryable directly: the second
	// Recover starts from a clean slate instead of double-applying
	// delegations onto the half-built tables.
	e := newScheduledEngine(t, parallel)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	mustUpdate(t, e, t1, 2, "loser-a")
	mustUpdate(t, e, t1, 3, "loser-b")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e.SetRecoveryFailpoint(1)
	if err := recoverAndWait(e); !errors.Is(err, ErrInjectedRecoveryFailure) {
		t.Fatalf("failpoint did not fire: %v", err)
	}
	// Retry WITHOUT another Crash.
	if err := recoverAndWait(e); err != nil {
		t.Fatal(err)
	}
	wantValue(t, e, 1, "delegated")
	wantValue(t, e, 2, "")
	wantValue(t, e, 3, "")
}
