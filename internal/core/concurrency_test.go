package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ariesrh/internal/lock"
	"ariesrh/internal/wal"
)

// TestConcurrentDisjointTransactions runs many goroutine transactions over
// disjoint object ranges; all must commit and all values must be correct.
func TestConcurrentDisjointTransactions(t *testing.T) {
	e := newEngine(t)
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx, err := e.Begin()
				if err != nil {
					errs <- err
					return
				}
				obj := wal.ObjectID(w*10_000 + i + 1)
				if err := e.Update(tx, obj, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
				if err := e.Commit(tx); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			wantValue(t, e, wal.ObjectID(w*10_000+i+1), fmt.Sprintf("w%d-%d", w, i))
		}
	}
}

// TestConcurrentContention hammers a small object set; deadlock victims
// retry, and the engine must neither hang nor corrupt values.
func TestConcurrentContention(t *testing.T) {
	e := newEngine(t)
	const workers = 6
	var wg sync.WaitGroup
	var fatal sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				tx, err := e.Begin()
				if err != nil {
					fatal.Store(w, err)
					return
				}
				a := wal.ObjectID(uint64(w+i)%4 + 1)
				b := wal.ObjectID(uint64(w*i)%4 + 1)
				err1 := e.Update(tx, a, []byte("x"))
				var err2 error
				if err1 == nil {
					err2 = e.Update(tx, b, []byte("y"))
				}
				if errors.Is(err1, lock.ErrDeadlock) || errors.Is(err2, lock.ErrDeadlock) {
					if err := e.Abort(tx); err != nil {
						fatal.Store(w, err)
						return
					}
					continue
				}
				if err1 != nil {
					fatal.Store(w, err1)
					return
				}
				if err2 != nil {
					fatal.Store(w, err2)
					return
				}
				if err := e.Commit(tx); err != nil {
					fatal.Store(w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("contention test hung")
	}
	fatal.Range(func(k, v interface{}) bool {
		t.Fatalf("worker %v: %v", k, v)
		return false
	})
}

// TestConcurrentDelegationHandoff pipelines work between producer and
// consumer goroutines via delegation: producers create results and
// delegate them to a committing consumer transaction.
func TestConcurrentDelegationHandoff(t *testing.T) {
	e := newEngine(t)
	const producers, items = 4, 20
	type handoff struct {
		tx  wal.TxID
		obj wal.ObjectID
	}
	ch := make(chan handoff, producers*items)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				tx, err := e.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				obj := wal.ObjectID(p*1000 + i + 1)
				if err := e.Update(tx, obj, []byte(fmt.Sprintf("p%d-%d", p, i))); err != nil {
					t.Error(err)
					return
				}
				ch <- handoff{tx: tx, obj: obj}
			}
		}(p)
	}
	go func() { wg.Wait(); close(ch) }()

	// The consumer collects delegations in batches and commits them; the
	// producers then abort, and their delegated results must survive.
	var producedTxs []wal.TxID
	consumer, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for h := range ch {
		if err := e.Delegate(h.tx, consumer, h.obj); err != nil {
			t.Fatalf("delegate: %v", err)
		}
		producedTxs = append(producedTxs, h.tx)
		n++
	}
	if n != producers*items {
		t.Fatalf("received %d handoffs", n)
	}
	for _, tx := range producedTxs {
		if err := e.Abort(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(consumer); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < producers; p++ {
		for i := 0; i < items; i++ {
			wantValue(t, e, wal.ObjectID(p*1000+i+1), fmt.Sprintf("p%d-%d", p, i))
		}
	}
}

// TestFullScanUndoAblationEquivalent: the rejected full-scan undo produces
// the same state as the cluster sweep, at a higher visit count, on both
// recovery schedules.
func TestFullScanUndoAblationEquivalent(t *testing.T) {
	forEachSchedule(t, testFullScanUndoAblationEquivalent)
}

func testFullScanUndoAblationEquivalent(t *testing.T, parallel bool) {
	run := func(fullScan bool) (*Engine, uint64) {
		e, err := New(Options{PoolSize: 64, FullScanUndo: fullScan, ParallelRecovery: parallel})
		if err != nil {
			t.Fatal(err)
		}
		t1 := mustBegin(t, e)
		t2 := mustBegin(t, e)
		t3 := mustBegin(t, e)
		mustUpdate(t, e, t1, 1, "delegated")
		mustDelegate(t, e, t1, t2, 1)
		mustCommit(t, e, t2)
		mustUpdate(t, e, t1, 2, "loser") // early loser scope...
		// ...then winner traffic between the loser scopes: the full
		// scan must wade through it, the cluster sweep skips it.
		for i := 0; i < 100; i++ {
			w := mustBegin(t, e)
			mustUpdate(t, e, w, wal.ObjectID(100+i), "pad")
			mustCommit(t, e, w)
		}
		mustUpdate(t, e, t3, 3, "loser-too") // late loser scope
		if err := e.Log().Flush(e.Log().Head()); err != nil {
			t.Fatal(err)
		}
		before := e.Stats().RecBackwardVisited
		crashAndRecover(t, e)
		return e, e.Stats().RecBackwardVisited - before
	}
	cluster, clusterVisited := run(false)
	full, fullVisited := run(true)
	for _, obj := range []wal.ObjectID{1, 2, 3} {
		cv, cok, _ := cluster.ReadObject(obj)
		fv, fok, _ := full.ReadObject(obj)
		if string(cv) != string(fv) || (cok && len(cv) > 0) != (fok && len(fv) > 0) {
			t.Fatalf("object %d differs: cluster=%q full=%q", obj, cv, fv)
		}
	}
	wantValue(t, cluster, 1, "delegated")
	wantValue(t, cluster, 2, "")
	wantValue(t, cluster, 3, "")
	if fullVisited <= clusterVisited*2 {
		t.Fatalf("full scan visited %d vs cluster %d — expected a clear gap", fullVisited, clusterVisited)
	}
}
