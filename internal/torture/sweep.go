package torture

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// A trial is the sweep-specific half of one crash point: the system
// under test, its workload and its oracle.  The driver owns the rest —
// the devices and their crash schedule, settling a crash that fires
// before the system is up, and materializing the crash into decoded
// durable images.  A fresh trial serves exactly one crash point (or the
// probe).
type trial interface {
	// open brings the system up over one log directory per device.
	open(dirs []wal.Dir) error
	// run drives the workload until it ends or the crash schedule
	// surfaces.  A crash signal is the expected end, not an error.
	run() error
	// judge crashes and recovers the system and checks it against the
	// sweep's oracle over the durable images in b.
	judge(b *boundary) error
	// empty checks a system reopened over an init-time crash image: no
	// record was ever durable, so every object must read empty.
	empty() error
}

// sweepSpec describes one crash-point sweep to the driver.
type sweepSpec struct {
	// name prefixes the sweep's errors ("repl ", "elr ", ...).
	name string
	seed int64
	// devices is the number of log directories per system (a cluster's
	// shards); 0 means one.
	devices int
	// plan holds the knobs every device carries (sync latency); the
	// driver adds the crash schedule for the armed device.
	plan fault.Plan
	// tornEvery tears the unsynced tail at every tornEvery-th boundary
	// (0 never tears).
	tornEvery int
	// max caps the number of crash points swept (0 sweeps all).
	max int
}

// point is one crash point: device dev freezes right after its k-th
// sync.
type point struct {
	dev int
	k   uint64
}

// boundary is one crash point's devices and, once the crash is
// materialized, what they durably hold.
type boundary struct {
	point
	dirs []*fault.Dir
	// fired reports that the crash schedule froze the armed device
	// (a point past the run's own last sync never fires); torn that
	// its crash kept a non-empty torn tail.
	fired, torn bool
	// base and recs are each device's durable log after the crash.
	base []wal.LSN
	recs [][]*wal.Record
}

// sweepCounts is what the driver counts itself.
type sweepCounts struct {
	points  int // crash points enumerated by the probe
	crashes int // points crashed, recovered and judged
	torn    int // of those, points whose crash kept a torn tail
	fired   int // of those, points whose crash schedule fired
}

// runSweep is the crash-sweep driver.  A fault-free probe runs the
// workload once and counts every device's syncs; each sync is a crash
// point, enumerated boundary-first across devices so a capped sweep
// still crashes every device.  Every point then gets a fresh trial over
// fresh devices, the armed one frozen after its sync k; add folds each
// passing point's trial into the sweep's result (calls are serialized).
// It returns the probe trial (its system ran the whole workload) and the
// driver's counts.
func runSweep[T trial](s sweepSpec, newTrial func() T, add func(T)) (probe T, c sweepCounts, err error) {
	n := max(s.devices, 1)
	probe = newTrial()
	dirs := make([]*fault.Dir, n)
	for i := range dirs {
		dirs[i] = fault.NewDir(s.plan)
	}
	if err := probe.open(walDirs(dirs)); err != nil {
		return probe, c, fmt.Errorf("torture: %sprobe: %w", s.name, err)
	}
	if err := probe.run(); err != nil {
		return probe, c, fmt.Errorf("torture: %sprobe: %w", s.name, err)
	}
	var pts []point
	for k, more := uint64(1), true; more; k++ {
		more = false
		for i, d := range dirs {
			if k <= d.Syncs() {
				pts = append(pts, point{dev: i, k: k})
				more = true
			}
		}
	}
	c.points = len(pts)
	if s.max > 0 && len(pts) > s.max {
		pts = pts[:s.max]
	}
	// Run the points, at most GOMAXPROCS at a time; once one has failed,
	// launch no more.  The error names the sweep, the seed and the first
	// failing point.
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, p := range pts {
		sem <- struct{}{}
		if failed() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t := newTrial()
			b, err := s.boundary(p, t)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				c.crashes++
				if b.torn {
					c.torn++
				}
				if b.fired {
					c.fired++
				}
				add(t)
			} else if firstErr == nil {
				where := fmt.Sprintf("boundary %d", p.k)
				if n > 1 {
					where = fmt.Sprintf("shard %d %s", p.dev, where)
				}
				firstErr = fmt.Errorf("torture: %sseed %d %s: %w", s.name, s.seed, where, err)
			}
		}()
	}
	wg.Wait()
	return probe, c, firstErr
}

// boundary runs trial t at crash point p.  The armed device's plan
// decorrelates the torn-tail length across points (and devices) while
// keeping each point individually reproducible.
func (s sweepSpec) boundary(p point, t trial) (*boundary, error) {
	b := &boundary{point: p, dirs: make([]*fault.Dir, max(s.devices, 1))}
	for i := range b.dirs {
		plan := s.plan
		if i == p.dev {
			plan.Seed = s.seed ^ int64(uint64(i)<<32) ^ int64(p.k*0x9E3779B97F4A7C15)
			plan.CrashAtSync = p.k
			plan.TornTail = s.tornEvery > 0 && p.k%uint64(s.tornEvery) == 0
		}
		b.dirs[i] = fault.NewDir(plan)
	}
	dirs := walDirs(b.dirs)
	if err := t.open(dirs); err != nil {
		if !isCrashSignal(err) {
			return b, err
		}
		// The point fired inside log initialization: the log takes its
		// own syncs to come up, so the earliest points freeze the device
		// before the system exists.  The crash contract is the same as
		// anywhere else — the partial bootstrap must decode to no
		// records, and a system reopened over it must come up empty.
		b.fired = true
		if err := b.crash(); err != nil {
			return b, err
		}
		for i, recs := range b.recs {
			if len(recs) != 0 {
				return b, fmt.Errorf("init-time crash left %d durable records on device %d, want 0", len(recs), i)
			}
		}
		if err := t.open(dirs); err != nil {
			return b, fmt.Errorf("reopen after init-time crash: %w", err)
		}
		return b, t.empty()
	}
	if err := t.run(); err != nil {
		return b, err
	}
	b.fired = b.dirs[p.dev].Frozen()
	if err := b.crash(); err != nil {
		return b, err
	}
	return b, t.judge(b)
}

// crash materializes the crash on every device — the armed one at its
// frozen point plus its plan's torn tail, the others simply losing
// their unsynced bytes — and decodes each durable image the way
// recovery's scan does: manifest selection, per-segment frames,
// stopping cleanly at a torn tail.
func (b *boundary) crash() error {
	for i, d := range b.dirs {
		torn, err := d.CrashNow()
		if err != nil {
			return err
		}
		if i == b.dev && torn > 0 {
			b.torn = true
		}
	}
	b.base = make([]wal.LSN, len(b.dirs))
	b.recs = make([][]*wal.Record, len(b.dirs))
	for i, d := range b.dirs {
		base, recs, err := wal.ReadDurable(d.StableDir())
		if err != nil {
			return fmt.Errorf("decode device %d durable log: %w", i, err)
		}
		b.base[i], b.recs[i] = base, recs
	}
	return nil
}

func walDirs(dirs []*fault.Dir) []wal.Dir {
	out := make([]wal.Dir, len(dirs))
	for i, d := range dirs {
		out[i] = d
	}
	return out
}

// isCrashSignal reports whether an error is the expected face of an
// armed crash schedule: the frozen device surfacing through a log
// force, or the engine having already moved to degraded mode because an
// abort absorbed the device error.
func isCrashSignal(err error) bool {
	return errors.Is(err, fault.ErrCrashPoint) || errors.Is(err, core.ErrDegraded)
}

// recoverVisits runs recovery on eng — rec is Recover or Promote — while
// capturing the backward pass's undo.visit stream.  On the parallel
// schedule rec returns with the pipeline in flight: during (if non-nil)
// runs then, racing it, and the stream is complete only after
// WaitRecovered.  The stream must be one monotone sweep: strictly
// decreasing LSNs, so no record is visited twice.  It returns the
// number of records visited.
func recoverVisits(eng *core.Engine, rec func() error, during func() error) (int, error) {
	var (
		mu     sync.Mutex
		visits []wal.LSN
	)
	eng.SetEventHook(func(ev obs.Event) {
		if ev.Name == "undo.visit" {
			mu.Lock()
			visits = append(visits, wal.LSN(ev.LSN))
			mu.Unlock()
		}
	})
	defer eng.SetEventHook(nil)
	if err := rec(); err != nil {
		return 0, err
	}
	if during != nil {
		if err := during(); err != nil {
			return 0, err
		}
	}
	if err := eng.WaitRecovered(); err != nil {
		return 0, fmt.Errorf("wait recovered: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(visits); i++ {
		if visits[i] >= visits[i-1] {
			return 0, fmt.Errorf("undo visits not strictly decreasing: %d then %d", visits[i-1], visits[i])
		}
	}
	return len(visits), nil
}

// checkState compares eng's visible value of every object 1..objects
// and every counter objects+1..objects+counters that keep admits (nil
// admits all) against the oracle; phase labels the error.
func checkState(eng *core.Engine, o *logOracle, phase string, objects, counters int, keep func(wal.ObjectID) bool) error {
	for i := 1; i <= objects+counters; i++ {
		id := wal.ObjectID(i)
		if keep != nil && !keep(id) {
			continue
		}
		if i <= objects {
			got, _, err := eng.ReadObject(id)
			if err != nil {
				return fmt.Errorf("%s: read object %d: %w", phase, i, err)
			}
			if want := o.values[id]; string(got) != string(want) {
				return fmt.Errorf("%s: object %d: engine %q, oracle %q", phase, i, got, want)
			}
			continue
		}
		got, err := eng.CounterValue(id)
		if err != nil {
			return fmt.Errorf("%s: read counter %d: %w", phase, i, err)
		}
		if want := o.counters[id]; got != want {
			return fmt.Errorf("%s: counter %d: engine %d, oracle %d", phase, i, got, want)
		}
	}
	return nil
}
