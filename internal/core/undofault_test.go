package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ariesrh/internal/fault"
	"ariesrh/internal/wal"
)

// errInjectedRead is the device read failure readFailDir injects.
var errInjectedRead = errors.New("injected segment read failure")

// readFailDir is an in-memory log directory whose devices fail every
// ReadAt while armed.  During normal processing the log reads only
// sealed, fully durable segments back from their devices (everything
// else is resident), so armed it fails exactly those reads.
type readFailDir struct {
	*wal.MemDir
	armed atomic.Bool
}

func (d *readFailDir) Open(name string) (wal.Store, error) {
	s, err := d.MemDir.Open(name)
	if err != nil {
		return nil, err
	}
	return &readFailStore{Store: s, d: d}, nil
}

type readFailStore struct {
	wal.Store
	d *readFailDir
}

func (s *readFailStore) ReadAt(p []byte, off int64) (int, error) {
	if s.d.armed.Load() {
		return 0, errInjectedRead
	}
	return s.Store.ReadAt(p, off)
}

// TestStoppedUndoSweepDegrades: an abort whose undo sweep stops part-way
// — a sealed segment cannot be read back, or a CLR append fails on a
// rotation whose sync fails — leaves some CLRs written and others not.
// Abort must fail, the engine must degrade and refuse a retried sweep
// (which would compensate the same records twice), and Crash + Recover
// must finish the rollback from the partial CLR chain: every object,
// counters included, holds its pre-transaction value.
func TestStoppedUndoSweepDegrades(t *testing.T) {
	t.Run("sealed-segment-read-fails", func(t *testing.T) {
		d := &readFailDir{MemDir: wal.NewMemDir()}
		stoppedAbort(t, d, func() { d.armed.Store(true) }, func() { d.armed.Store(false) })
	})
	t.Run("clr-append-fails", func(t *testing.T) {
		d := fault.NewDir(fault.Plan{})
		stoppedAbort(t, d, func() { d.SetFailAllSyncs(true) }, func() { d.SetFailAllSyncs(false) })
	})
}

func stoppedAbort(t *testing.T, dir wal.Dir, arm, disarm func()) {
	e, err := New(Options{LogDir: dir, LogSegmentBytes: 256, GroupCommit: GroupCommitOff, PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	const objs, ctrA, ctrB = 6, 100, 101
	setup := mustBegin(t, e)
	for i := 1; i <= objs; i++ {
		mustUpdate(t, e, setup, wal.ObjectID(i), fmt.Sprintf("pre-%d", i))
	}
	for _, c := range []wal.ObjectID{ctrA, ctrB} {
		if _, err := e.Increment(setup, c, 100); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, e, setup)

	// The victim's records span several segments, all durable: the
	// early ones are sealed and read back from their devices by the
	// sweep, and recovery must undo whatever the sweep left.
	victim := mustBegin(t, e)
	for round := 0; round < 2; round++ {
		for i := 1; i <= objs; i++ {
			mustUpdate(t, e, victim, wal.ObjectID(i), fmt.Sprintf("new-%d-%d", i, round))
		}
		if _, err := e.Increment(victim, ctrA, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Increment(victim, ctrB, -3); err != nil {
			t.Fatal(err)
		}
		mustDo(t, e.Log().Flush(e.Log().Head()))
	}
	if n := len(e.Log().Segments()); n < 3 {
		t.Fatalf("victim spans %d segments, want >= 3", n)
	}

	arm()
	if err := e.Abort(victim); err == nil {
		t.Fatal("Abort succeeded although its undo sweep could not finish")
	}
	if h := e.Health(); h.State != StateDegraded {
		t.Fatalf("Health after a stopped sweep = %v, want degraded", h.State)
	}
	if e.Stats().CLRs == 0 {
		t.Fatal("the sweep stopped before its first CLR; the partial chain goes untested")
	}
	disarm()
	if err := e.Abort(victim); !errors.Is(err, ErrDegraded) {
		t.Fatalf("retried Abort = %v, want ErrDegraded (a second sweep would undo twice)", err)
	}
	// Make the partial CLR chain durable, so recovery has to finish it
	// rather than start from scratch.
	mustDo(t, e.Log().Flush(e.Log().Head()))
	mustDo(t, e.Crash())
	mustDo(t, e.Recover())
	for i := 1; i <= objs; i++ {
		wantValue(t, e, wal.ObjectID(i), fmt.Sprintf("pre-%d", i))
	}
	wantCounter(t, e, ctrA, 100)
	wantCounter(t, e, ctrB, 100)
	if h := e.Health(); h.State != StateHealthy {
		t.Fatalf("Health after recovery = %v, want healthy", h.State)
	}
}
