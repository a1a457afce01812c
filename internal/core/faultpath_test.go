package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ariesrh/internal/fault"
	"ariesrh/internal/wal"
)

// TestPersistentSyncErrorReleasesAllFlushWaiters is the regression test
// for the group-commit flush-waiter audit: when the leader's sync fails
// persistently, EVERY queued waiter must be woken with the error — none
// may be left parked on its channel — and the engine must land in
// queryable read-only degraded mode rather than wedging or panicking.
func TestPersistentSyncErrorReleasesAllFlushWaiters(t *testing.T) {
	store := fault.NewDir(fault.Plan{})
	e, err := New(Options{LogDir: store, GroupCommit: GroupCommitOn})
	if err != nil {
		t.Fatal(err)
	}

	// Some committed-and-durable work the degraded engine must keep serving.
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1000, "durable")
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}

	const committers = 6
	txs := make([]wal.TxID, committers)
	for i := range txs {
		txs[i] = mustBegin(t, e)
		mustUpdate(t, e, txs[i], wal.ObjectID(i+1), fmt.Sprintf("doomed-%d", i))
	}

	store.SetFailAllSyncs(true)
	errs := make([]error, committers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range txs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.Commit(txs[i])
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("committers still blocked after 30s: flush waiters leaked on persistent leader sync error")
	}
	for i, cerr := range errs {
		if cerr == nil {
			t.Fatalf("committer %d succeeded against a dead device", i)
		}
		if !errors.Is(cerr, fault.ErrDeviceFailed) && !errors.Is(cerr, ErrDegraded) {
			t.Fatalf("committer %d error = %v, want the device failure or ErrDegraded", i, cerr)
		}
	}

	// The WAL spent its retry budget before surfacing anything.
	stats := e.LogStats()
	if stats.FlushRetries == 0 {
		t.Fatal("no flush retries recorded; the bounded-backoff path went unexercised")
	}
	if stats.FlushErrors == 0 {
		t.Fatal("no flush errors recorded despite a dead device")
	}

	// Degraded, not crashed — and the state says why.
	h := e.Health()
	if h.State != StateDegraded {
		t.Fatalf("Health = %v, want degraded", h.State)
	}
	if h.Err == nil {
		t.Fatal("degraded Health carries no cause")
	}

	// Reads still serve; mutations are rejected with ErrDegraded.
	if v, ok, err := e.ReadObject(1000); err != nil || !ok || string(v) != "durable" {
		t.Fatalf("read in degraded mode = %q/%v/%v, want the committed value", v, ok, err)
	}
	if _, err := e.Begin(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Begin in degraded mode = %v, want ErrDegraded", err)
	}
	if err := e.Update(txs[0], 1, []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Update in degraded mode = %v, want ErrDegraded", err)
	}
	// Abort is the sanctioned way out for the failed committers: it needs
	// no new durable bytes and must succeed (releasing locks) even now.
	if err := e.Abort(txs[0]); err != nil {
		t.Fatalf("Abort in degraded mode = %v, want success", err)
	}
	if got := e.Metrics().Gauge("core.degraded"); got != 1 {
		t.Fatalf("core.degraded gauge = %d, want 1", got)
	}

	// Heal the device, crash (dropping unsynced bytes, as a real restart
	// would) and recover: the engine is healthy again, committed work
	// survives, the never-acknowledged commits do not.
	store.SetFailAllSyncs(false)
	if _, err := store.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if h := e.Health(); h.State != StateHealthy {
		t.Fatalf("Health after recovery = %v, want healthy", h.State)
	}
	wantValue(t, e, 1000, "durable")
	for i := 0; i < committers; i++ {
		wantValue(t, e, wal.ObjectID(i+1), "")
	}
	if _, err := e.Begin(); err != nil {
		t.Fatalf("Begin after recovery = %v, want success", err)
	}
	if got := e.Metrics().Gauge("core.degraded"); got != 0 {
		t.Fatalf("core.degraded gauge = %d after recovery, want 0", got)
	}
}

// TestDegradedAbortWithoutForce pins the synchronous-path half of the
// abort contract: with GroupCommitOff and a dead device, Abort still
// completes (undo applied, locks released) and degrades the engine
// instead of failing.
func TestDegradedAbortWithoutForce(t *testing.T) {
	store := fault.NewDir(fault.Plan{})
	e, err := New(Options{LogDir: store, GroupCommit: GroupCommitOff})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 7, "undo me")

	store.SetFailAllSyncs(true)
	if err := e.Abort(tx); err != nil {
		t.Fatalf("Abort on dead device = %v, want success (aborts need no durability)", err)
	}
	wantValue(t, e, 7, "")
	if h := e.Health(); h.State != StateDegraded {
		t.Fatalf("Health = %v, want degraded after the failed abort force", h.State)
	}
}

// TestDegradedDropsStaleLockGrant pins a lock leak that wedged the ELR
// crash sweep: a transaction terminated while parked in a lock wait (here
// by a cascaded abort) must not keep the lock once the wait is granted,
// even if the engine degraded meanwhile and the operation fails on the
// writability check.  Nobody can abort a dead transaction, so a kept
// grant would block every later waiter on the object forever.
func TestDegradedDropsStaleLockGrant(t *testing.T) {
	store := fault.NewDir(fault.Plan{})
	e, err := New(Options{LogDir: store, GroupCommit: GroupCommitOn})
	if err != nil {
		t.Fatal(err)
	}
	holder := mustBegin(t, e)
	mustUpdate(t, e, holder, 1, "held")
	victim := mustBegin(t, e)
	cause := mustBegin(t, e)
	if err := e.FormDependency(victim, cause, AbortDependency); err != nil {
		t.Fatal(err)
	}

	// Park the victim behind the holder's X lock.
	errc := make(chan error, 1)
	go func() { errc <- e.Update(victim, 1, []byte("late")) }()
	deadline := time.Now().Add(10 * time.Second)
	for e.Metrics().Gauge("lock.waiters") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("victim never blocked on the holder's lock")
		}
		time.Sleep(time.Millisecond)
	}
	mustAbort(t, e, cause) // cascades: the victim dies while parked

	// Degrade the engine with a commit whose force fails.
	store.SetFailAllSyncs(true)
	other := mustBegin(t, e)
	mustUpdate(t, e, other, 2, "never durable")
	if err := e.Commit(other); err == nil {
		t.Fatal("commit succeeded on a dead device")
	}

	// The holder's abort (allowed while degraded) grants the dead
	// victim's queued request; its Update then fails the degraded check.
	mustAbort(t, e, holder)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("victim Update = %v, want ErrDegraded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("victim Update never returned")
	}
	if _, held := e.locks.Holds(victim, 1); held {
		t.Fatal("terminated transaction still holds its lock on object 1")
	}
}
