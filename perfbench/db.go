package main

import (
	"fmt"
	"io"
	"path/filepath"

	"ariesrh/internal/core"
	"ariesrh/internal/obs"
	"ariesrh/internal/shard"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// store is the slice of the database the workloads drive: one engine
// (core.Engine, what ariesrh.DB forwards to when unsharded) or a sharded
// cluster (shard.DB, what ariesrh.DB forwards to with Options.Shards).
// Every method is one call into that layer's public functions, so the
// spans the tracer records around them are the API's spans.
type store interface {
	Begin() (txn, error)
	ReadCommitted(obj wal.ObjectID) ([]byte, bool, error)
	// Maintain runs one checkpoint cycle: FlushPages, Checkpoint,
	// ArchiveLog, each timed by the tracer.
	Maintain(t *tracer) error
	Metrics() obs.Snapshot
	LastRecoveryTrace() core.RecoveryTrace
	// Retained is the number of log records held (head - base), summed
	// over shards.
	Retained() uint64
	WaitRecovered() error
	Close() error
}

// txn is one transaction of a store.
type txn interface {
	Read(obj wal.ObjectID) ([]byte, error)
	Update(obj wal.ObjectID, val []byte) error
	Delegate(to txn, obj wal.ObjectID) error
	Commit() error
	Abort() error
}

// devices are the stable stores one engine runs on.  For a file-backed
// engine they are exactly what ariesrh.Open(Options{Dir}) builds; for an
// in-memory one, the defaults core.New would pick, held here so a crash
// image can be copied.
type devices struct {
	log    wal.Dir
	disk   storage.DiskManager
	master wal.Store
}

func memDevices() devices {
	return devices{log: wal.NewMemDir(), disk: storage.NewMemDisk(), master: wal.NewMemStore()}
}

func fileDevices(dir string) (devices, error) {
	logDir, err := wal.OpenFileDir(filepath.Join(dir, "wal"))
	if err != nil {
		return devices{}, err
	}
	master, err := wal.OpenFileStore(filepath.Join(dir, "master"))
	if err != nil {
		logDir.Close()
		return devices{}, err
	}
	disk, err := storage.OpenFileDisk(filepath.Join(dir, "pages.db"))
	if err != nil {
		logDir.Close()
		master.Close()
		return devices{}, err
	}
	return devices{log: logDir, disk: disk, master: master}, nil
}

// cloneMem copies an in-memory crash image onto fresh in-memory devices,
// so a second engine can recover exactly the same stable state.
func cloneMem(d devices) (devices, error) {
	out := memDevices()
	names, err := d.log.List()
	if err != nil {
		return out, err
	}
	for _, n := range names {
		src, err := d.log.Open(n)
		if err != nil {
			return out, err
		}
		dst, err := out.log.Open(n)
		if err != nil {
			return out, err
		}
		if err := copyStore(dst, src); err != nil {
			return out, err
		}
	}
	if err := copyStore(out.master, d.master); err != nil {
		return out, err
	}
	for pid := storage.PageID(0); pid < d.disk.NumPages(); pid++ {
		p, err := d.disk.ReadPage(pid)
		if err != nil {
			return out, err
		}
		np, err := out.disk.Allocate()
		if err != nil {
			return out, err
		}
		if err := out.disk.WritePage(np, p); err != nil {
			return out, err
		}
	}
	return out, nil
}

func copyStore(dst, src wal.Store) error {
	n, err := src.Size()
	if err != nil {
		return err
	}
	buf := make([]byte, n)
	if _, err := src.ReadAt(buf, 0); err != nil && err != io.EOF {
		return err
	}
	_, err = dst.WriteAt(buf, 0)
	return err
}

// engineStore is an unsharded database.
type engineStore struct {
	e   *core.Engine
	dev devices
}

// openEngine builds an engine on dev at the default options (plus
// ParallelRecovery when asked), wrapping the devices when t traces.  If
// the devices hold a previous incarnation, recovery runs inside.
func openEngine(dev devices, parallel bool, t *tracer) (*engineStore, error) {
	eo := core.Options{LogDir: dev.log, Disk: dev.disk, MasterStore: dev.master, ParallelRecovery: parallel}
	if t != nil {
		eo.LogDir = &tracedDir{Dir: dev.log, t: t}
		eo.Disk = &tracedDisk{DiskManager: dev.disk, t: t}
	}
	e, err := core.New(eo)
	if err != nil {
		return nil, err
	}
	return &engineStore{e: e, dev: dev}, nil
}

func (s *engineStore) Begin() (txn, error) {
	id, err := s.e.Begin()
	return &engineTxn{e: s.e, id: id}, err
}

func (s *engineStore) ReadCommitted(obj wal.ObjectID) ([]byte, bool, error) {
	v, ok, err := s.e.ReadObject(obj)
	return v, ok && len(v) > 0, err
}

func (s *engineStore) Maintain(t *tracer) error {
	if err := t.timed(spanFlushPages, s.e.FlushPages); err != nil {
		return fmt.Errorf("flush pages: %w", err)
	}
	if err := t.timed(spanCheckpoint, s.e.Checkpoint); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err := t.timed(spanArchive, func() error { _, err := s.e.ArchiveLog(); return err })
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

func (s *engineStore) Metrics() obs.Snapshot                 { return s.e.Metrics() }
func (s *engineStore) LastRecoveryTrace() core.RecoveryTrace { return s.e.LastRecoveryTrace() }
func (s *engineStore) Retained() uint64                      { return retained(s.e) }
func (s *engineStore) WaitRecovered() error                  { return s.e.WaitRecovered() }
func (s *engineStore) Close() error                          { return s.e.Close() }

func retained(e *core.Engine) uint64 {
	l := e.Log()
	return uint64(l.Head() - l.Base())
}

type engineTxn struct {
	e  *core.Engine
	id wal.TxID
}

func (x *engineTxn) Read(obj wal.ObjectID) ([]byte, error) { return x.e.Read(x.id, obj) }
func (x *engineTxn) Update(obj wal.ObjectID, v []byte) error {
	return x.e.Update(x.id, obj, v)
}
func (x *engineTxn) Delegate(to txn, obj wal.ObjectID) error {
	return x.e.Delegate(x.id, to.(*engineTxn).id, obj)
}
func (x *engineTxn) Commit() error { return x.e.Commit(x.id) }
func (x *engineTxn) Abort() error  { return x.e.Abort(x.id) }

// shardStore is a sharded database.
type shardStore struct {
	db *shard.DB
}

// openShards opens a cluster as ariesrh.Open(Options{Dir, Shards})
// does: in memory when dir is empty, file-backed under dir otherwise.
// When t traces, each shard's log directory is wrapped instead
// (shard.Options takes log devices only), so the shards' pages and
// master records live in memory.
func openShards(dir string, shards int, parallel bool, t *tracer) (*shardStore, error) {
	o := shard.Options{Shards: shards, Dir: dir, ParallelRecovery: parallel}
	if t != nil {
		o.Dir = ""
		for i := 0; i < shards; i++ {
			var d wal.Dir = wal.NewMemDir()
			if dir != "" {
				fd, err := wal.OpenFileDir(filepath.Join(dir, fmt.Sprintf("shard-%d", i), "wal"))
				if err != nil {
					return nil, err
				}
				d = fd
			}
			o.LogDirs = append(o.LogDirs, &tracedDir{Dir: d, t: t})
		}
	}
	db, err := shard.Open(o)
	if err != nil {
		return nil, err
	}
	return &shardStore{db: db}, nil
}

func (s *shardStore) Begin() (txn, error) {
	x, err := s.db.Begin()
	return shardTxn{x}, err
}

func (s *shardStore) ReadCommitted(obj wal.ObjectID) ([]byte, bool, error) {
	v, ok, err := s.db.ReadCommitted(obj)
	return v, ok && len(v) > 0, err
}

func (s *shardStore) Maintain(t *tracer) error {
	if err := t.timed(spanFlushPages, func() error {
		for i := 0; i < s.db.Shards(); i++ {
			if err := s.db.Engine(i).FlushPages(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("flush pages: %w", err)
	}
	if err := t.timed(spanCheckpoint, s.db.Checkpoint); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err := t.timed(spanArchive, func() error {
		for i := 0; i < s.db.Shards(); i++ {
			if _, err := s.db.Engine(i).ArchiveLog(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

func (s *shardStore) Metrics() obs.Snapshot                 { return s.db.Metrics() }
func (s *shardStore) LastRecoveryTrace() core.RecoveryTrace { return s.db.LastRecoveryTrace() }
func (s *shardStore) WaitRecovered() error                  { return s.db.WaitRecovered() }
func (s *shardStore) Close() error                          { return s.db.Close() }

func (s *shardStore) Retained() uint64 {
	var n uint64
	for i := 0; i < s.db.Shards(); i++ {
		n += retained(s.db.Engine(i))
	}
	return n
}

type shardTxn struct{ x *shard.Txn }

func (x shardTxn) Read(obj wal.ObjectID) ([]byte, error)   { return x.x.Read(obj) }
func (x shardTxn) Update(obj wal.ObjectID, v []byte) error { return x.x.Update(obj, v) }
func (x shardTxn) Delegate(to txn, obj wal.ObjectID) error {
	return x.x.Delegate(to.(shardTxn).x, obj)
}
func (x shardTxn) Commit() error { return x.x.Commit() }
func (x shardTxn) Abort() error  { return x.x.Abort() }
