package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/wal"
)

// gatedDir is a wal.Dir whose device Syncs can be held and failed: once
// armed, each Sync signals entered, blocks until gate is closed, and then
// fails with a no-retry device error if fail was set meanwhile.
type gatedDir struct {
	*wal.MemDir
	mu      sync.Mutex
	armed   bool
	fail    bool
	gate    chan struct{}
	entered chan struct{}
}

func newGatedDir() *gatedDir {
	return &gatedDir{MemDir: wal.NewMemDir(), gate: make(chan struct{}), entered: make(chan struct{}, 16)}
}

func (d *gatedDir) set(armed, fail bool) {
	d.mu.Lock()
	d.armed, d.fail = armed, fail
	d.mu.Unlock()
}

func (d *gatedDir) Open(name string) (wal.Store, error) {
	s, err := d.MemDir.Open(name)
	if err != nil {
		return nil, err
	}
	return &gatedStore{Store: s, dir: d}, nil
}

type gatedStore struct {
	wal.Store
	dir *gatedDir
}

func (s *gatedStore) Sync() error {
	d := s.dir
	d.mu.Lock()
	armed := d.armed
	d.mu.Unlock()
	if !armed {
		return s.Store.Sync()
	}
	d.entered <- struct{}{}
	<-d.gate
	d.mu.Lock()
	fail := d.fail
	d.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: injected sync failure", wal.ErrNoRetry)
	}
	return s.Store.Sync()
}

// TestELRReadOnlyCommitAfterDirtyReadAborts is the regression test for a
// sharded read-only transaction acknowledged after a dirty read under
// early lock release.  Writer W's early-released commit is pending on
// shard 0's gated log; reader R reads W's value on shard 0 and reads on
// shard 1 too; then the flush fails.  W's commit is rolled back, so R —
// which saw W's never-durable value — must not commit either: its
// shard-0 branch holds an abort dependency on W and forces, and the
// failed force aborts the whole global transaction.
func TestELRReadOnlyCommitAfterDirtyReadAborts(t *testing.T) {
	gated := newGatedDir()
	db, err := Open(Options{
		Shards:           2,
		LogDirs:          []wal.Dir{gated, wal.NewMemDir()},
		GroupCommit:      core.GroupCommitOn,
		EarlyLockRelease: true,
		Router:           modRouter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	setup, _ := db.Begin()
	if err := setup.Update(2, []byte("init")); err != nil { // shard 0
		t.Fatal(err)
	}
	if err := setup.Update(3, []byte("other")); err != nil { // shard 1
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	w, _ := db.Begin()
	if err := w.Update(2, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	gated.set(true, false)
	wDone := make(chan error, 1)
	go func() { wDone <- w.Commit() }()
	<-gated.entered // W's commit record is on its way to the device

	r, _ := db.Begin()
	if v, err := r.Read(2); err != nil || string(v) != "dirty" {
		t.Fatalf("reader saw %q/%v, want W's early-released value", v, err)
	}
	if _, err := r.Read(3); err != nil {
		t.Fatal(err)
	}
	// Let R's commit reach shard 0's log before the flush fails.
	appends := func() uint64 { return db.Metrics().Counter("shard.0.wal.appends") }
	base := appends()
	rDone := make(chan error, 1)
	go func() { rDone <- r.Commit() }()
	deadline := time.Now().Add(5 * time.Second)
	for appends() == base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	gated.set(true, true)
	close(gated.gate)
	if err := <-wDone; !errors.Is(err, core.ErrCommitAborted) {
		t.Fatalf("writer commit = %v, want ErrCommitAborted", err)
	}
	if err := <-rDone; !errors.Is(err, core.ErrCommitAborted) {
		t.Fatalf("reader commit after a dirty read = %v, want ErrCommitAborted", err)
	}
	if !r.Done() {
		t.Fatal("reader's global transaction still live after its commit was rolled back")
	}
	if v := mustRead(t, db, 2); v != "init" {
		t.Fatalf("obj 2 = %q, want the last durable value", v)
	}
	// The reader's shard-1 branch was released: a writer proceeds there.
	x, _ := db.Begin()
	if err := x.Update(3, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
}
