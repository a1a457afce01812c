package core

import (
	"fmt"
	"testing"

	"ariesrh/internal/aries"
	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// claimEngine is the operation surface shared by ARIES/RH and the plain
// ARIES baseline, enough to drive an identical delegation-free workload
// through both for the C1 parity check.
type claimEngine interface {
	Begin() (wal.TxID, error)
	Update(wal.TxID, wal.ObjectID, []byte) error
	Commit(wal.TxID) error
	Abort(wal.TxID) error
	Checkpoint() error
	Crash() error
	Recover() error
	Log() *wal.Log
	ReadObject(wal.ObjectID) ([]byte, bool, error)
}

// runDelegationFreeWorkload drives the same script through either engine:
// committers, explicit aborts, a fuzzy checkpoint mid-stream, and two
// in-flight losers at the crash.  Every operation is deterministic, so
// two engines running it must append records at the same LSNs.
func runDelegationFreeWorkload(t *testing.T, e claimEngine) {
	t.Helper()
	begin := func() wal.TxID {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	update := func(tx wal.TxID, obj wal.ObjectID, val string) {
		if err := e.Update(tx, obj, []byte(val)); err != nil {
			t.Fatal(err)
		}
	}

	// Three committers with interleaved updates.
	t1, t2, t3 := begin(), begin(), begin()
	for i := 0; i < 3; i++ {
		update(t1, wal.ObjectID(10+i), fmt.Sprintf("a%d", i))
		update(t2, wal.ObjectID(20+i), fmt.Sprintf("b%d", i))
		update(t3, wal.ObjectID(30+i), fmt.Sprintf("c%d", i))
	}
	if err := e.Commit(t1); err != nil {
		t.Fatal(err)
	}

	// An explicit abort exercising the CLR path.
	t4 := begin()
	update(t4, 40, "doomed")
	update(t4, 41, "doomed")
	if err := e.Abort(t4); err != nil {
		t.Fatal(err)
	}

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(t2); err != nil {
		t.Fatal(err)
	}

	// Two losers in flight at the crash: t3 committed, t5 and t6 did not.
	t5, t6 := begin(), begin()
	update(t5, 50, "lost")
	update(t5, 51, "lost")
	update(t6, 60, "lost")
	if err := e.Commit(t3); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
}

// TestClaimC1DelegationFreeParity asserts the paper's C1 (§4.2): on a
// workload with no delegations, ARIES/RH performs exactly the work plain
// ARIES performs — same log records appended, same CLRs, and a recovery
// pass that reads, redoes and compensates the same record counts.  The
// comparison is made in internal/obs counter units on the RH side against
// the baseline engine's own counters.
func TestClaimC1DelegationFreeParity(t *testing.T) {
	forEachSchedule(t, func(t *testing.T, parallel bool) {
		testClaimC1DelegationFreeParity(t, parallel)
	})
}

func testClaimC1DelegationFreeParity(t *testing.T, parallel bool) {
	rh, err := New(Options{GroupCommit: GroupCommitOff, ParallelRecovery: parallel})
	if err != nil {
		t.Fatal(err)
	}
	base, err := aries.New(aries.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runDelegationFreeWorkload(t, rh)
	mustDo(t, rh.WaitRecovered())
	runDelegationFreeWorkload(t, base)

	m := rh.Metrics()
	bs := base.Stats()
	bls := base.Log().Stats()
	trace := rh.LastRecoveryTrace()

	if got, want := m.Counter("wal.appends"), bls.Appends; got != want {
		t.Errorf("wal.appends = %d, baseline ARIES appended %d (C1: no delegation, no extra log records)", got, want)
	}
	if got, want := rh.Log().Head(), base.Log().Head(); got != want {
		t.Errorf("log head = %d, baseline %d", got, want)
	}
	if got, want := m.Counter("core.delegations"), uint64(0); got != want {
		t.Errorf("core.delegations = %d on a delegation-free workload", got)
	}
	if got, want := trace.ForwardRecords, bs.RecForwardRecords; got != want {
		t.Errorf("recovery forward records = %d, baseline %d", got, want)
	}
	if got, want := trace.Redone, bs.RecRedone; got != want {
		t.Errorf("recovery redone = %d, baseline %d", got, want)
	}
	if got, want := trace.CLRs, bs.RecCLRs; got != want {
		t.Errorf("recovery CLRs = %d, baseline %d", got, want)
	}
	if got, want := trace.Losers, bs.RecLosers; got != want {
		t.Errorf("recovery losers = %d, baseline %d", got, want)
	}
	if got, want := trace.Winners, bs.RecWinners; got != want {
		t.Errorf("recovery winners = %d, baseline %d", got, want)
	}
	if got, want := m.Counter("recovery.forward_records"), bs.RecForwardRecords; got != want {
		t.Errorf("recovery.forward_records counter = %d, baseline %d", got, want)
	}

	// Same final object states on both sides.
	for obj := wal.ObjectID(10); obj <= 61; obj++ {
		gv, gok, err := rh.ReadObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		bv, bok, err := base.ReadObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		if gok != bok || string(gv) != string(bv) {
			t.Errorf("object %d: ARIES/RH has (%q,%v), baseline (%q,%v)", obj, gv, gok, bv, bok)
		}
	}
}

// TestClaimC2DelegateCostLinear asserts the paper's C2 (§4.2): the
// normal-processing cost of delegate(tor, tee) is linear in the number of
// objects delegated — one appended log record and one lock share per
// object, zero device flushes, and independent of how many updates each
// object carries.
func TestClaimC2DelegateCostLinear(t *testing.T) {
	for _, tc := range []struct {
		objects, updatesPerObject int
	}{
		{1, 1}, {2, 6}, {4, 1}, {4, 6}, {8, 3},
	} {
		e, err := New(Options{GroupCommit: GroupCommitOff})
		if err != nil {
			t.Fatal(err)
		}
		tor := mustBegin(t, e)
		tee := mustBegin(t, e)
		for k := 0; k < tc.objects; k++ {
			for u := 0; u < tc.updatesPerObject; u++ {
				mustUpdate(t, e, tor, wal.ObjectID(1+k), fmt.Sprintf("v%d-%d", k, u))
			}
		}
		before := e.Metrics()
		if err := e.DelegateAll(tor, tee); err != nil {
			t.Fatal(err)
		}
		d := e.Metrics().Sub(before)

		n := uint64(tc.objects)
		if got := d.Counter("wal.appends"); got != n {
			t.Errorf("%d objects × %d updates: delegation appended %d records, want %d (one per object)",
				tc.objects, tc.updatesPerObject, got, n)
		}
		if got := d.Counter("core.delegations"); got != n {
			t.Errorf("%d objects: core.delegations delta = %d, want %d", tc.objects, got, n)
		}
		if got := d.Counter("lock.transfers") + d.Counter("lock.shares"); got != n {
			t.Errorf("%d objects: lock shares+transfers delta = %d, want %d (one inherited hold per object)",
				tc.objects, got, n)
		}
		if got := d.Counter("wal.flushes"); got != 0 {
			t.Errorf("%d objects: delegation forced %d device flushes, want 0 (append-only cost)", tc.objects, got)
		}
		mustCommit(t, e, tee)
		mustCommit(t, e, tor)
	}
}

// TestClaimC3UndoVisitInvariant asserts the paper's C3 (§4.2): the
// backward cluster-undo pass of recovery visits log records at most once
// each, at strictly decreasing LSNs — a single monotone sweep, exactly
// like ARIES' undo, with no extra passes over the log.  The visit order
// is captured from the undo.visit event stream and the at-most-once bound
// from the undo.visited/undo.skipped counters.  Both recovery schedules
// run the same sweep and must satisfy the same invariant.
func TestClaimC3UndoVisitInvariant(t *testing.T) {
	forEachSchedule(t, testClaimC3UndoVisitInvariant)
}

func testClaimC3UndoVisitInvariant(t *testing.T, parallel bool) {
	e, err := New(Options{GroupCommit: GroupCommitOff, ParallelRecovery: parallel})
	if err != nil {
		t.Fatal(err)
	}

	// Losers with delegations and a committed winner interleaved, so the
	// sweep has overlapping loser clusters to merge.
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	t3 := mustBegin(t, e)
	for i := 0; i < 4; i++ {
		mustUpdate(t, e, t1, wal.ObjectID(1+i%2), fmt.Sprintf("l1-%d", i))
		mustUpdate(t, e, t2, wal.ObjectID(10+i%2), fmt.Sprintf("l2-%d", i))
		mustUpdate(t, e, t3, wal.ObjectID(20+i%2), fmt.Sprintf("w-%d", i))
	}
	mustDelegate(t, e, t1, t2, 1)
	mustUpdate(t, e, t2, 1, "l2-after-delegate")
	mustCommit(t, e, t3)
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	var visits []wal.LSN
	e.SetEventHook(func(ev obs.Event) {
		if ev.Name == "undo.visit" {
			visits = append(visits, wal.LSN(ev.LSN))
		}
	})
	if err := recoverAndWait(e); err != nil {
		t.Fatal(err)
	}
	e.SetEventHook(nil)

	if len(visits) == 0 {
		t.Fatal("recovery undid losers but emitted no undo.visit events")
	}
	seen := make(map[wal.LSN]bool, len(visits))
	for i, lsn := range visits {
		if seen[lsn] {
			t.Fatalf("undo visited LSN %d twice (C3: at most one visit per record)", lsn)
		}
		seen[lsn] = true
		if i > 0 && lsn >= visits[i-1] {
			t.Fatalf("undo visit order not strictly decreasing: LSN %d after %d", lsn, visits[i-1])
		}
	}

	trace := e.LastRecoveryTrace()
	m := e.Metrics()
	if got := trace.BackwardVisited; got != uint64(len(visits)) {
		t.Errorf("trace.BackwardVisited = %d, %d undo.visit events", got, len(visits))
	}
	if got := m.Counter("undo.visited"); got != uint64(len(visits)) {
		t.Errorf("undo.visited counter = %d, %d undo.visit events", got, len(visits))
	}
	// No extra sweep: every log position is visited or skipped at most
	// once, so the total backward work is bounded by the log itself.
	if work := trace.BackwardVisited + trace.BackwardSkipped; work > uint64(e.Log().Head()) {
		t.Errorf("backward pass touched %d positions over a %d-record log (C3: no extra sweeps)",
			work, e.Log().Head())
	}
	if trace.Clusters == 0 {
		t.Error("undo.clusters = 0; the sweep should have formed at least one loser cluster")
	}
	if got, want := m.Counter("undo.clusters"), trace.Clusters; got != want {
		t.Errorf("undo.clusters counter = %d, trace says %d", got, want)
	}

	// Correctness corollary (§4.1): all loser updates undone, no winner
	// update undone.
	for _, obj := range []wal.ObjectID{1, 2, 10, 11} {
		wantValue(t, e, obj, "")
	}
	wantValue(t, e, 20, "w-2")
	wantValue(t, e, 21, "w-3")
}
