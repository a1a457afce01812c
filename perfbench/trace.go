package main

import (
	"sync/atomic"
	"time"

	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// Span kinds the bench records around calls into the database.
const (
	spanBegin = iota
	spanRead
	spanUpdate
	spanDelegate
	spanCommit
	spanAbort
	spanFlushPages // the checkpointer's spans follow the transaction spans
	spanCheckpoint
	spanArchive
	numSpans

	numTxnSpans = spanFlushPages
)

var spanNames = [numSpans]string{"begin", "read", "update", "delegate", "commit", "abort", "flushpages", "checkpoint", "archive"}

// tracer records spans from outside the database: around each call the
// clients make into it, and around each operation on the wrapped
// devices.  While off (the warm-up and the untraced comparison phase)
// the device wrappers cost one atomic load and record nothing.  A nil
// *tracer is the untraced run.
type tracer struct {
	on atomic.Bool

	maint [numSpans]obs.Histogram

	logSyncs      obs.Histogram
	logWriteBytes atomic.Uint64
	pageReads     obs.Histogram
	pageWrites    obs.Histogram
}

// timed runs fn, recording its duration under kind while tracing.
func (t *tracer) timed(kind int, fn func() error) error {
	if t == nil || !t.on.Load() {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	t.maint[kind].Observe(time.Since(t0))
	return err
}

// devSnap is a point-in-time copy of the device counters.
type devSnap struct {
	logSyncs, pageReads, pageWrites obs.HistogramSnapshot
	maint                           [numSpans]obs.HistogramSnapshot
	logWriteBytes                   uint64
}

func (t *tracer) snapshot() devSnap {
	s := devSnap{
		logSyncs:      t.logSyncs.Snapshot(),
		pageReads:     t.pageReads.Snapshot(),
		pageWrites:    t.pageWrites.Snapshot(),
		logWriteBytes: t.logWriteBytes.Load(),
	}
	for i := range t.maint {
		s.maint[i] = t.maint[i].Snapshot()
	}
	return s
}

func (s devSnap) sub(prev devSnap) devSnap {
	out := devSnap{
		logSyncs:      s.logSyncs.Sub(prev.logSyncs),
		pageReads:     s.pageReads.Sub(prev.pageReads),
		pageWrites:    s.pageWrites.Sub(prev.pageWrites),
		logWriteBytes: s.logWriteBytes - prev.logWriteBytes,
	}
	for i := range s.maint {
		out.maint[i] = s.maint[i].Sub(prev.maint[i])
	}
	return out
}

// tracedDir wraps a log directory, timing every device sync and counting
// the bytes written.
type tracedDir struct {
	wal.Dir
	t *tracer
}

func (d *tracedDir) Open(name string) (wal.Store, error) {
	s, err := d.Dir.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedStore{Store: s, t: d.t}, nil
}

type tracedStore struct {
	wal.Store
	t *tracer
}

func (s *tracedStore) WriteAt(p []byte, off int64) (int, error) {
	n, err := s.Store.WriteAt(p, off)
	if s.t.on.Load() {
		s.t.logWriteBytes.Add(uint64(n))
	}
	return n, err
}

func (s *tracedStore) Sync() error {
	if !s.t.on.Load() {
		return s.Store.Sync()
	}
	t0 := time.Now()
	err := s.Store.Sync()
	s.t.logSyncs.Observe(time.Since(t0))
	return err
}

// tracedDisk wraps the page device, timing every page read and write.
type tracedDisk struct {
	storage.DiskManager
	t *tracer
}

func (d *tracedDisk) ReadPage(pid storage.PageID) (*storage.Page, error) {
	if !d.t.on.Load() {
		return d.DiskManager.ReadPage(pid)
	}
	t0 := time.Now()
	p, err := d.DiskManager.ReadPage(pid)
	d.t.pageReads.Observe(time.Since(t0))
	return p, err
}

func (d *tracedDisk) WritePage(pid storage.PageID, p *storage.Page) error {
	if !d.t.on.Load() {
		return d.DiskManager.WritePage(pid, p)
	}
	t0 := time.Now()
	err := d.DiskManager.WritePage(pid, p)
	d.t.pageWrites.Observe(time.Since(t0))
	return err
}
