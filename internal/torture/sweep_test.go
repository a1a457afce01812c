package torture

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/wal"
)

// engineConfigs is the crash-sweep matrix the core and shard sweeps run
// over: group commit off (the deterministic rows), group commit on (the
// default), and group commit on with early lock release.
var engineConfigs = []struct {
	name string
	opts core.Options
}{
	{"group-commit-off", core.Options{GroupCommit: core.GroupCommitOff}},
	{"group-commit-on", core.Options{GroupCommit: core.GroupCommitOn}},
	{"group-commit-on+elr", core.Options{GroupCommit: core.GroupCommitOn, EarlyLockRelease: true}},
}

// syncTrial is a driver-only trial: its workload syncs one device a
// fixed number of times, and its judge is a caller-supplied function.
type syncTrial struct {
	dirs    []wal.Dir
	syncs   int
	judgeFn func(*boundary) error
}

func (t *syncTrial) open(dirs []wal.Dir) error { t.dirs = dirs; return nil }
func (t *syncTrial) empty() error              { return nil }
func (t *syncTrial) judge(b *boundary) error   { return t.judgeFn(b) }

func (t *syncTrial) run() error {
	dev, err := t.dirs[0].Open("dev")
	if err != nil {
		return err
	}
	for i := 0; i < t.syncs; i++ {
		if err := dev.Sync(); err != nil {
			if isCrashSignal(err) {
				return nil
			}
			return err
		}
	}
	return nil
}

// TestSweepStopsAtFirstFailure pins the driver's failure contract: once
// a point fails, no further point is launched, and the error names the
// seed and the failing point.  The judge fails at point 1 of 1000; the
// other points finish only after it has (plus 10 ms for the driver to
// record the failure), so every point that ran was already in flight —
// at most GOMAXPROCS besides point 1.
func TestSweepStopsAtFirstFailure(t *testing.T) {
	var judged atomic.Int64
	failed := make(chan struct{})
	judge := func(b *boundary) error {
		judged.Add(1)
		if b.k == 1 {
			close(failed)
			return errors.New("judge rejects point 1")
		}
		<-failed
		time.Sleep(10 * time.Millisecond)
		return nil
	}
	_, c, err := runSweep(sweepSpec{seed: 42},
		func() *syncTrial { return &syncTrial{syncs: 1000, judgeFn: judge} },
		func(*syncTrial) {})
	if c.points != 1000 {
		t.Fatalf("probe enumerated %d points, want 1000", c.points)
	}
	if err == nil {
		t.Fatal("sweep passed despite a failing point")
	}
	if msg := err.Error(); !strings.Contains(msg, "seed 42") || !strings.Contains(msg, "boundary 1:") {
		t.Fatalf("error %q does not name the seed and the point", msg)
	}
	if n, limit := judged.Load(), int64(1+runtime.GOMAXPROCS(0)); n > limit {
		t.Fatalf("%d points ran after point 1 failed, want at most %d", n, limit)
	}
}
