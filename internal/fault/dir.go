// Package fault provides deterministic fault injection for the log
// device: Dir is a wal.Dir whose devices are held in memory as dual
// images.
//
// Every device keeps a working image (everything written) and a stable
// image (the contents as of its last successful Sync).  A simulated
// crash (Dir.CrashNow) rewinds every device to its stable image,
// optionally extended by a seeded torn prefix of the unsynced tail —
// exactly the set of states a real disk can present after power loss,
// given that the WAL appends sequentially and syncs in prefix order.
//
// Faults are described by a Plan and are fully deterministic: the same
// plan and the same workload produce the same injected errors, the same
// crash image and the same torn-tail length.  Schedules are enumerable —
// a probe run counts the sync boundaries of a workload, then one run
// per boundary crashes at each (see internal/torture).
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ariesrh/internal/wal"
)

// ErrCrashPoint is the error injected once a crash schedule triggers:
// the directory is frozen (no further bytes can become stable) and every
// subsequent Sync fails with it until CrashNow materializes the crash.
// It wraps wal.ErrNoRetry — retrying a crash is pointless, and skipping
// the backoff keeps enumerated crash sweeps fast.
var ErrCrashPoint = fmt.Errorf("fault: injected crash point (%w)", wal.ErrNoRetry)

// ErrInjectedSync is the transient sync failure injected by
// TransientSyncErrors / FailEveryNthSync plans.  It does not wrap
// wal.ErrNoRetry: the WAL's bounded-backoff retry is expected to absorb
// it.
var ErrInjectedSync = errors.New("fault: injected transient sync failure")

// ErrDeviceFailed is the persistent device failure injected while
// FailAllSyncs is armed.  Deliberately not marked wal.ErrNoRetry: a
// real dying device looks transient until the retry budget is spent, so
// this exercises the full retry-then-degrade path.
var ErrDeviceFailed = errors.New("fault: injected persistent device failure")

// Plan describes the fault schedule of a Dir.  The zero Plan injects
// nothing: the directory then only tracks the stable/working split,
// which is itself useful (StableDir exposes exactly what a crash would
// preserve).
type Plan struct {
	// Seed drives every random choice the injector makes (currently
	// the torn-tail length).  Runs with equal seeds and workloads are
	// byte-identical.
	Seed int64

	// CrashAtSync freezes the directory immediately after the Nth Sync
	// call (1-based, counting every attempt on every device): the
	// stable images are pinned at that boundary and later Syncs fail
	// with ErrCrashPoint.  0 disables the schedule.
	CrashAtSync uint64

	// TornTail, when set, makes CrashNow persist a seeded-length
	// prefix of the unsynced appended tail instead of dropping it
	// whole — the torn-write case a real disk can produce.
	TornTail bool

	// TransientSyncErrors makes the first N Sync calls fail with
	// ErrInjectedSync before the directory starts behaving.
	TransientSyncErrors int

	// FailEveryNthSync makes every Nth Sync attempt (1-based, counting
	// every attempt including retries) fail once with ErrInjectedSync.
	// With a retry budget ≥ 1 and N ≥ 2 every episode is absorbed.
	FailEveryNthSync uint64

	// FailAllSyncs makes every Sync fail with ErrDeviceFailed until
	// disarmed with SetFailAllSyncs(false).
	FailAllSyncs bool

	// SyncDelay and DelayEveryNthSync inject latency: every Nth Sync
	// sleeps SyncDelay before returning.  Either zero disables.  With
	// DelayEveryNthSync 1 the directory is a modelled device whose
	// every sync costs SyncDelay.  The sleep holds no lock, so it
	// delays only its caller.
	SyncDelay         time.Duration
	DelayEveryNthSync uint64
}

// Dir is a fault-injecting wal.Dir: a directory of dual-image devices
// sharing ONE fault schedule.  The segmented WAL spreads its syncs over
// many devices (segment images, manifest generations); a crash schedule
// that counted per device would miss exactly the cross-device windows
// that matter (rotation: segment sync then manifest sync; archive:
// manifest sync then deletes).  Dir counts every Sync on every device
// against the same Plan, so CrashAtSync=N freezes the whole directory
// at the Nth sync boundary of the run, whichever device it lands on.
//
// Model per device: a working image, a stable image advanced by each
// successful Sync, and a torn tail only for pure appends (see CrashNow).
// Namespace model: Remove is durable immediately while the directory is
// healthy; once the crash schedule fires (frozen), Remove fails with
// ErrCrashPoint — files cannot disappear after the crash point — and
// Open of a NEW name fails likewise, since nothing new can become
// stable.  A device created but never successfully synced does not
// survive CrashNow (its directory entry was never durable).
type Dir struct {
	mu    sync.Mutex
	plan  Plan
	rng   *rand.Rand
	files map[string]*dirFile

	frozen        bool
	transientLeft int

	syncs    uint64
	writes   uint64
	injected uint64
	torn     uint64
}

// dirFile is one device in a Dir.  It implements wal.Store; all state is
// guarded by the owning Dir's mutex.
type dirFile struct {
	d    *Dir
	name string

	working []byte
	stable  []byte
	// stableExists is set by the first successful Sync: only then does
	// the device survive a crash at all.
	stableExists bool
	// overwrote is set when an unsynced write or truncation touched the
	// stable image; CrashNow then drops the whole unsynced delta (the
	// torn-tail model only covers pure appends).
	overwrote bool
}

// NewDir creates an empty fault-injecting directory with the given plan.
func NewDir(plan Plan) *Dir {
	return &Dir{
		plan:          plan,
		rng:           rand.New(rand.NewSource(plan.Seed)),
		files:         make(map[string]*dirFile),
		transientLeft: plan.TransientSyncErrors,
	}
}

// Open returns the named device, creating it if absent.  Creation fails
// with ErrCrashPoint while the directory is frozen: past the crash point
// nothing new can become stable, so handing out a writable fresh device
// would let the log believe in bytes the crash must discard.
func (d *Dir) Open(name string) (wal.Store, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		return f, nil
	}
	if d.frozen {
		d.injected++
		return nil, fmt.Errorf("open %s: %w", name, ErrCrashPoint)
	}
	f := &dirFile{d: d, name: name}
	d.files[name] = f
	return f, nil
}

// Remove deletes the named device — immediately durable while healthy,
// refused with ErrCrashPoint while frozen (a crashed directory cannot
// lose entries; recovery must observe them and sweep them itself).
func (d *Dir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("fault: remove %s: no such device", name)
	}
	if d.frozen {
		d.injected++
		return fmt.Errorf("remove %s: %w", name, ErrCrashPoint)
	}
	delete(d.files, name)
	return nil
}

// List returns the device names, sorted.
func (d *Dir) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Close is a no-op (the images are in memory).
func (d *Dir) Close() error { return nil }

// CrashNow materializes the crash across the whole directory: every
// never-synced device vanishes, every other device is rewound to its
// stable image — extended, if the plan asks for torn tails and its
// unsynced delta is a pure append, by a seeded-length prefix of that
// delta.  Devices are processed in sorted name order so the seeded
// choices are deterministic.  The crash schedule is disarmed afterwards;
// persistent failure modes (FailAllSyncs) stay armed.
func (d *Dir) CrashNow() (tornBytes int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frozen = false
	d.plan.CrashAtSync = 0
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := d.files[name]
		if !f.stableExists {
			delete(d.files, name)
			continue
		}
		img := append([]byte(nil), f.stable...)
		if d.plan.TornTail && !f.overwrote && len(f.working) > len(f.stable) {
			tail := f.working[len(f.stable):]
			keep := d.rng.Intn(len(tail) + 1)
			img = append(img, tail[:keep]...)
			tornBytes += keep
			if keep > 0 {
				d.torn++
			}
		}
		f.working = img
		f.stable = append([]byte(nil), img...)
		f.overwrote = false
	}
	return tornBytes, nil
}

// StableDir snapshots the crash-surviving state of the directory as a
// wal.MemDir: exactly the devices (and bytes) CrashNow would leave
// behind, minus torn tails.  Oracles decode it with wal.ReadDurable to
// learn the durable log without disturbing the live directory.
func (d *Dir) StableDir() *wal.MemDir {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := wal.NewMemDir()
	for name, f := range d.files {
		if f.stableExists {
			out.Put(name, append([]byte(nil), f.stable...))
		}
	}
	return out
}

// SetFailAllSyncs arms or disarms the persistent-failure mode.
func (d *Dir) SetFailAllSyncs(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan.FailAllSyncs = on
}

// SetTransientSyncErrors arms n further transient sync failures.
func (d *Dir) SetTransientSyncErrors(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.transientLeft = n
}

// Syncs returns the number of Sync attempts observed across all devices
// (including failed ones); a fault-free probe run's count enumerates the
// sync boundaries of a workload.
func (d *Dir) Syncs() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Writes returns the number of WriteAt calls observed across all devices.
func (d *Dir) Writes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// InjectedErrors returns the number of errors injected so far (failed
// syncs plus refused opens/removes while frozen).
func (d *Dir) InjectedErrors() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injected
}

// TornCrashes returns the number of devices that kept a non-empty torn
// tail across CrashNow calls.
func (d *Dir) TornCrashes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.torn
}

// Frozen reports whether the crash schedule has fired.
func (d *Dir) Frozen() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frozen
}

// ReadAt implements io.ReaderAt over the working image.
func (f *dirFile) ReadAt(p []byte, off int64) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("fault: negative offset %d", off)
	}
	if off >= int64(len(f.working)) {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, fmt.Errorf("fault: read %s at %d beyond size %d", f.name, off, len(f.working))
	}
	n := copy(p, f.working[off:])
	if n < len(p) {
		return n, fmt.Errorf("fault: short read %s at %d", f.name, off)
	}
	return n, nil
}

// WriteAt implements io.WriterAt into the working image; the bytes are
// not durable until the next successful Sync.
func (f *dirFile) WriteAt(p []byte, off int64) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("fault: negative offset %d", off)
	}
	f.d.writes++
	if off < int64(len(f.stable)) {
		f.overwrote = true
	}
	end := off + int64(len(p))
	if end > int64(len(f.working)) {
		if end > int64(cap(f.working)) {
			// Grow geometrically, as wal.MemStore does: an exact-size
			// copy on every growing write makes appends quadratic.
			grown := make([]byte, end, max(2*cap(f.working), int(end)))
			copy(grown, f.working)
			f.working = grown
		} else {
			f.working = f.working[:end]
		}
	}
	copy(f.working[off:], p)
	return len(p), nil
}

// Size returns the working image size.
func (f *dirFile) Size() (int64, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return int64(len(f.working)), nil
}

// Truncate shrinks the working image; truncating into the stable image
// counts as an overwrite for the torn-tail model.
func (f *dirFile) Truncate(size int64) error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if size < int64(len(f.stable)) {
		f.overwrote = true
	}
	if size >= 0 && size < int64(len(f.working)) {
		f.working = f.working[:size]
	}
	return nil
}

// Sync runs the directory's shared fault schedule; on success this
// device's working image becomes its stable image.  A scheduled delay
// is slept after the outcome is decided and outside the directory's
// lock: the sync numbering stays the order of the calls, and a slow
// sync never blocks the other devices' reads and writes.
func (f *dirFile) Sync() error {
	delay, err := f.sync()
	time.Sleep(delay)
	return err
}

func (f *dirFile) sync() (delay time.Duration, err error) {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncs++
	n := d.syncs
	if d.plan.DelayEveryNthSync > 0 && n%d.plan.DelayEveryNthSync == 0 {
		delay = d.plan.SyncDelay
	}
	switch {
	case d.frozen:
		d.injected++
		return delay, ErrCrashPoint
	case d.plan.FailAllSyncs:
		d.injected++
		return delay, ErrDeviceFailed
	case d.transientLeft > 0:
		d.transientLeft--
		d.injected++
		return delay, ErrInjectedSync
	case d.plan.FailEveryNthSync > 0 && n%d.plan.FailEveryNthSync == 0:
		d.injected++
		return delay, ErrInjectedSync
	}
	if f.overwrote {
		f.stable = append(f.stable[:0], f.working...)
	} else {
		// A pure append since the last sync: only the new tail moves.
		f.stable = append(f.stable, f.working[len(f.stable):]...)
	}
	f.stableExists = true
	f.overwrote = false
	if d.plan.CrashAtSync > 0 && n >= d.plan.CrashAtSync {
		d.frozen = true
	}
	return delay, nil
}

// Close is a no-op; the Dir owns the images.
func (f *dirFile) Close() error { return nil }
