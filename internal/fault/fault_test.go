package fault

import (
	"errors"
	"reflect"
	"testing"

	"ariesrh/internal/wal"
)

// appendRecords appends n update records to l and returns their LSNs.
func appendRecords(t *testing.T, l *wal.Log, tx wal.TxID, n int) []wal.LSN {
	t.Helper()
	lsns := make([]wal.LSN, 0, n)
	for i := 0; i < n; i++ {
		lsn, err := l.Append(&wal.Record{
			Type:   wal.TypeUpdate,
			TxID:   tx,
			Object: wal.ObjectID(i + 1),
			After:  []byte("payload-payload-payload"),
		})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	return lsns
}

// snapshotBytes flattens a MemDir snapshot to name → bytes for equality
// checks.
func snapshotBytes(t *testing.T, d *wal.MemDir) map[string]string {
	t.Helper()
	names, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(names))
	for _, name := range names {
		dev, err := d.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = deviceBytes(t, dev)
	}
	return out
}

func openDevice(t *testing.T, d *Dir, name string) wal.Store {
	t.Helper()
	dev, err := d.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func writeAt(t *testing.T, dev wal.Store, s string, off int64) {
	t.Helper()
	if _, err := dev.WriteAt([]byte(s), off); err != nil {
		t.Fatal(err)
	}
}

// deviceBytes returns a device's whole current image.
func deviceBytes(t *testing.T, dev wal.Store) string {
	t.Helper()
	size, err := dev.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := dev.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	return string(buf)
}

// Opening a fresh log costs two syncs (segment-1 header, manifest gen 1);
// the directory's shared schedule counts them, so "crash at the first
// flush" is CrashAtSync: 3.
const initSyncs = 2

// TestDirStableImageSemantics checks the dual-image core across a whole
// directory: synced bytes survive CrashNow, unsynced bytes do not
// (TornTail off).
func TestDirStableImageSemantics(t *testing.T) {
	d := NewDir(Plan{})
	l, err := wal.NewLog(d)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, l, 1, 3)
	if err := l.Flush(l.Head()); err != nil {
		t.Fatal(err)
	}
	durableHead := l.Head()
	appendRecords(t, l, 1, 2) // volatile: appended, never flushed

	_, recs, err := wal.ReadDurable(d.StableDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != int(durableHead) {
		t.Fatalf("stable snapshot holds %d records, want %d", len(recs), durableHead)
	}
	stableBefore := snapshotBytes(t, d.StableDir())

	if _, err := d.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := l.Head(); got != durableHead {
		t.Fatalf("post-crash head = %d, want %d (only synced records survive)", got, durableHead)
	}
	// Recovery over the crashed directory rewrites nothing durable beyond
	// pruning; the surviving records must be byte-identical.
	if !reflect.DeepEqual(snapshotBytes(t, d.StableDir()), stableBefore) {
		t.Fatal("stable image changed across a crash with no torn tail")
	}
}

// TestUnsyncedWriteLostWithoutSync makes the volatile window explicit:
// bytes written to a device but never covered by a successful Sync are
// gone after CrashNow, while the synced prefix survives.
func TestUnsyncedWriteLostWithoutSync(t *testing.T) {
	d := NewDir(Plan{})
	dev := openDevice(t, d, "dev")
	writeAt(t, dev, "durable", 0)
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	writeAt(t, dev, " never synced", 7)
	if _, err := d.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if got := deviceBytes(t, dev); got != "durable" {
		t.Fatalf("device holds %q after crash, want only the synced %q", got, "durable")
	}
}

// TestOverwriteSurvivesSync covers Sync's full-copy path: once a write
// lands inside the stable image, the next Sync must make the whole
// working image stable, overwritten bytes included, not just the tail.
func TestOverwriteSurvivesSync(t *testing.T) {
	d := NewDir(Plan{TornTail: true})
	dev := openDevice(t, d, "dev")
	writeAt(t, dev, "aaaaaaaa", 0)
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	writeAt(t, dev, "XY", 3)
	writeAt(t, dev, "tail", 8)
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if got, want := deviceBytes(t, dev), "aaaXYaaatail"; got != want {
		t.Fatalf("device holds %q after crash, want %q", got, want)
	}
}

// TestDirCrashAtSyncFreezes verifies the shared crash schedule: the
// directory freezes right after the Nth sync wherever it lands, later
// syncs fail with ErrCrashPoint (marked no-retry), and CrashNow disarms
// the freeze.
func TestDirCrashAtSyncFreezes(t *testing.T) {
	d := NewDir(Plan{CrashAtSync: initSyncs + 1})
	l, err := wal.NewLog(d)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, l, 1, 2)
	if err := l.Flush(l.Head()); err != nil { // sync 3: succeeds, then freezes
		t.Fatal(err)
	}
	frozenHead := l.Head()
	appendRecords(t, l, 1, 2)
	ferr := l.Flush(l.Head())
	if !errors.Is(ferr, ErrCrashPoint) {
		t.Fatalf("post-freeze flush error = %v, want ErrCrashPoint", ferr)
	}
	if !errors.Is(ferr, wal.ErrNoRetry) {
		t.Fatal("ErrCrashPoint must be marked wal.ErrNoRetry (sweeps would burn the backoff budget)")
	}
	if !d.Frozen() {
		t.Fatal("directory not frozen after its crash schedule fired")
	}

	if _, err := d.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := l.Head(); got != frozenHead {
		t.Fatalf("post-crash head = %d, want %d (the frozen boundary)", got, frozenHead)
	}
	// Disarmed: the directory must work again for recovery traffic.
	appendRecords(t, l, 2, 1)
	if err := l.Flush(l.Head()); err != nil {
		t.Fatalf("flush after disarmed crash: %v", err)
	}
}

// TestDirFrozenNamespace pins the namespace half of the crash model:
// past the crash point nothing new can become stable (Open of a fresh
// name is refused), nothing can disappear (Remove is refused), and a
// device created but never synced does not survive CrashNow.
func TestDirFrozenNamespace(t *testing.T) {
	d := NewDir(Plan{CrashAtSync: 1})
	dev, err := d.Open("unsynced")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt([]byte("volatile"), 0); err != nil {
		t.Fatal(err)
	}
	synced, err := d.Open("synced")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synced.WriteAt([]byte("durable"), 0); err != nil {
		t.Fatal(err)
	}
	if err := synced.Sync(); err != nil { // sync 1: succeeds, then freezes
		t.Fatal(err)
	}
	if !d.Frozen() {
		t.Fatal("directory not frozen")
	}
	if _, err := d.Open("fresh-name"); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("frozen Open of new name = %v, want ErrCrashPoint", err)
	}
	if err := d.Remove("synced"); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("frozen Remove = %v, want ErrCrashPoint", err)
	}
	if _, err := d.CrashNow(); err != nil {
		t.Fatal(err)
	}
	names, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "synced" {
		t.Fatalf("post-crash names = %v, want [synced] (never-synced devices vanish)", names)
	}
}

// TestDirTornTailReopenStopsCleanly is the torn-write property the
// recovery scan must provide: a crash that persists a partial final
// append yields a directory the log re-opens WITHOUT error, recovering
// exactly the complete-frame prefix.  Every possible torn length is a
// legal device state, so the test sweeps seeds until it has seen both a
// mid-frame tear and a clean boundary.
func TestDirTornTailReopenStopsCleanly(t *testing.T) {
	sawPartial := false
	for seed := int64(0); seed < 64; seed++ {
		// The freeze after the first flush makes the second flush's write
		// land without its sync — the written-but-unsynced bytes a crash
		// can tear.
		d := NewDir(Plan{Seed: seed, TornTail: true, CrashAtSync: initSyncs + 1})
		l, err := wal.NewLog(d)
		if err != nil {
			t.Fatal(err)
		}
		appendRecords(t, l, 1, 2)
		if err := l.Flush(l.Head()); err != nil {
			t.Fatal(err)
		}
		durable := l.Head()
		appendRecords(t, l, 1, 3)
		if err := l.Flush(l.Head()); !errors.Is(err, ErrCrashPoint) {
			t.Fatalf("seed %d: flush into frozen directory = %v, want ErrCrashPoint", seed, err)
		}

		torn, err := d.CrashNow()
		if err != nil {
			t.Fatal(err)
		}
		if torn > 0 {
			sawPartial = true
		}
		// The log must re-open cleanly whatever the torn length.
		if err := l.Crash(); err != nil {
			t.Fatalf("seed %d: reopen over torn tail (%d bytes): %v", seed, torn, err)
		}
		if head := l.Head(); head < durable {
			t.Fatalf("seed %d: post-crash head %d below durable horizon %d", seed, head, durable)
		}
		// Complete frames in the torn tail may legitimately survive;
		// every surviving record must decode and be readable.
		for lsn := wal.LSN(1); lsn <= l.Head(); lsn++ {
			if _, err := l.Get(lsn); err != nil {
				t.Fatalf("seed %d: surviving record %d unreadable: %v", seed, lsn, err)
			}
		}
	}
	if !sawPartial {
		t.Fatal("no seed produced a torn tail; the torn-write path went unexercised")
	}
}

// TestTransientAndPersistentSyncModes covers the error-injection plan
// knobs the engine's retry/degrade logic is built against.
func TestTransientAndPersistentSyncModes(t *testing.T) {
	d := NewDir(Plan{TransientSyncErrors: 2})
	dev := openDevice(t, d, "dev")
	if err := dev.Sync(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("sync 1 = %v, want transient failure", err)
	}
	if dev.Sync() == nil {
		t.Fatal("sync 2 should still fail")
	}
	if err := dev.Sync(); err != nil {
		t.Fatalf("sync 3 = %v, want success after transient budget", err)
	}
	if got := d.InjectedErrors(); got != 2 {
		t.Fatalf("InjectedErrors = %d, want 2", got)
	}

	d.SetFailAllSyncs(true)
	for i := 0; i < 3; i++ {
		if err := dev.Sync(); !errors.Is(err, ErrDeviceFailed) {
			t.Fatalf("persistent sync %d = %v, want ErrDeviceFailed", i, err)
		}
	}
	if errors.Is(ErrDeviceFailed, wal.ErrNoRetry) {
		t.Fatal("persistent failures must look retriable so the retry-then-degrade path is exercised")
	}
	d.SetFailAllSyncs(false)
	if err := dev.Sync(); err != nil {
		t.Fatalf("sync after healing = %v", err)
	}
}

// TestFailEveryNthSync checks the periodic transient mode is absorbed
// by a single retry (attempt n fails, attempt n+1 is off-period).
func TestFailEveryNthSync(t *testing.T) {
	d := NewDir(Plan{FailEveryNthSync: 3})
	dev := openDevice(t, d, "dev")
	var failures int
	for i := 0; i < 9; i++ {
		if err := dev.Sync(); err != nil {
			failures++
			if err2 := dev.Sync(); err2 != nil {
				t.Fatalf("sync immediately after periodic failure also failed: %v", err2)
			}
		}
	}
	if failures == 0 {
		t.Fatal("periodic sync failures never fired")
	}
}

// TestDirDeterministicAcrossRuns replays the same workload against the
// same plan twice and requires byte-identical crash images.
func TestDirDeterministicAcrossRuns(t *testing.T) {
	run := func() map[string]string {
		d := NewDir(Plan{Seed: 42, TornTail: true, CrashAtSync: initSyncs + 1})
		l, err := wal.NewLog(d)
		if err != nil {
			t.Fatal(err)
		}
		appendRecords(t, l, 1, 4)
		if err := l.Flush(l.Head()); err != nil {
			t.Fatal(err)
		}
		appendRecords(t, l, 1, 4)
		_ = l.Flush(l.Head()) // hits the frozen directory
		if _, err := d.CrashNow(); err != nil {
			t.Fatal(err)
		}
		return snapshotBytes(t, d.StableDir())
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical plans and workloads produced different crash images")
	}
}
