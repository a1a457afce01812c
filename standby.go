package ariesrh

import (
	"io"
	"path/filepath"

	"ariesrh/internal/core"
	"ariesrh/internal/repl"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// Replication errors.
var (
	// ErrFollower is returned for mutating operations on a standby;
	// Standby.Promote turns it into a writable DB.
	ErrFollower = core.ErrFollower
	// ErrSnapshotNeeded is returned by Standby.Follow when the primary
	// has archived the records this standby would need: incremental
	// catch-up is impossible, rebuild the standby from a fresh
	// DB.Backup of the primary.
	ErrSnapshotNeeded = repl.ErrSnapshotNeeded
	// ErrReplicaDetached is returned by ReplicaFeed.Serve after Detach.
	ErrReplicaDetached = repl.ErrPrimaryClosed
)

// StateFollower is the Health state of a standby: reads are served at the
// replayed LSN, mutations return ErrFollower until promotion.
const StateFollower = core.StateFollower

// ReplicaFeed is the primary-side handle for one attached replica,
// returned by DB.AttachReplica.  It owns a retention pin on the log —
// wal.Archive never discards a record the replica has not acknowledged
// as durable — which survives disconnects: Serve may be called again
// with a fresh connection and the replica resumes from its cursor.
type ReplicaFeed struct{ p *repl.Primary }

// AttachReplica attaches a replica feed to the database.  Attach BEFORE
// taking the bootstrap Backup: the retention pin starts at the current
// log head, so every record a later backup misses is still in the log
// when the standby first connects.  Detach releases the pin.
func (db *DB) AttachReplica() (*ReplicaFeed, error) {
	if db.sh != nil {
		return nil, ErrSharded
	}
	p, err := repl.NewPrimary(db.eng)
	if err != nil {
		return nil, err
	}
	return &ReplicaFeed{p: p}, nil
}

// Serve ships log records to the replica over one connection (any
// io.ReadWriter: a TCP conn, an in-process pipe) until the connection
// fails, the replica hangs up, or Detach is called.  Reconnection is the
// caller's loop: accept a new connection, call Serve again.
func (f *ReplicaFeed) Serve(rw io.ReadWriter) error { return f.p.Serve(rw) }

// AckedLSN returns the highest LSN the replica has acknowledged as
// durable on its side (0 before the first ack).
func (f *ReplicaFeed) AckedLSN() uint64 { return uint64(f.p.AckedLSN()) }

// Detach releases the replica's retention pin and terminates any active
// Serve.  After Detach the replica can only come back via a fresh
// bootstrap if the log has been archived past its cursor.
func (f *ReplicaFeed) Detach() { f.p.Close() }

// StandbyOptions configures OpenStandby.
type StandbyOptions struct {
	// Dir, when non-empty, opens a file-backed standby — typically a
	// directory restored from DB.Backup of the primary (the snapshot
	// bootstrap path).  Empty opens an in-memory standby that must
	// receive the stream from LSN 1.
	Dir string
	// PoolSize is the buffer-pool capacity in pages (default 128).
	PoolSize int
	// ParallelRecovery selects when Promote returns.  Promotion is the
	// recovery pipeline's backward half either way — classify, undo sweep,
	// finish — over the standby's completed forward pass.  Off (the
	// default), Promote returns the DB once promotion is complete.  On,
	// Promote returns as soon as the undo sweep is started.  While the
	// sweep runs, on either schedule, the promoted DB reports
	// StateRecovering, serves reads (each gated on the undo of the loser
	// clusters covering its object) and returns ErrRecovering for writes
	// until DB.WaitRecovered returns nil.  The promoted state is the same
	// on both schedules; a failure leaves the engine a follower and
	// Promote may be retried.
	ParallelRecovery bool
}

// Standby is a hot-standby database: a follower engine continuously
// running recovery's forward pass over the shipped log — updates and
// delegate records land in live object lists exactly as on the primary —
// while serving consistent reads at the replayed LSN.
type Standby struct {
	rep *repl.Replica
	dir string
}

// OpenStandby opens a standby.  With StandbyOptions.Dir pointing at a
// restored DB.Backup, the standby first catches up on the local log
// (forward pass only; transactions in flight at backup time stay live —
// the stream decides their fate), then Follow resumes from the backup's
// head.  See the package example in README.md for the full bootstrap
// sequence: AttachReplica, Backup, restore, OpenStandby, Follow.
func OpenStandby(opts ...StandbyOptions) (*Standby, error) {
	var o StandbyOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	engineOpts := core.Options{PoolSize: o.PoolSize, Follower: true, ParallelRecovery: o.ParallelRecovery}
	cleanup := func() {}
	if o.Dir != "" {
		logDir, err := wal.OpenFileDir(filepath.Join(o.Dir, "wal"))
		if err != nil {
			return nil, err
		}
		master, err := wal.OpenFileStore(filepath.Join(o.Dir, "master"))
		if err != nil {
			logDir.Close()
			return nil, err
		}
		disk, err := storage.OpenFileDisk(filepath.Join(o.Dir, "pages.db"))
		if err != nil {
			logDir.Close()
			master.Close()
			return nil, err
		}
		engineOpts.LogDir = logDir
		engineOpts.MasterStore = master
		engineOpts.Disk = disk
		cleanup = func() {
			logDir.Close()
			master.Close()
			disk.Close()
		}
	}
	eng, err := core.New(engineOpts)
	if err != nil {
		cleanup()
		return nil, err
	}
	rep, err := repl.NewReplica(eng)
	if err != nil {
		cleanup()
		return nil, err
	}
	return &Standby{rep: rep, dir: o.Dir}, nil
}

// Follow connects to a primary feed over rw and applies the stream until
// the connection fails.  Safe to call again with a new connection after a
// disconnect: the standby resumes from its own durable log head.
func (s *Standby) Follow(rw io.ReadWriter) error { return s.rep.Follow(rw) }

// Read returns obj's value together with the replayed LSN the value is
// consistent with — the standby's read-your-replicated-writes primitive.
// Objects never written (or undone back to empty) return ok=false.
func (s *Standby) Read(obj ObjectID) (val []byte, ok bool, atLSN uint64, err error) {
	v, present, at, err := s.rep.Read(obj)
	if err != nil || !present || len(v) == 0 {
		return nil, false, uint64(at), err
	}
	return v, true, uint64(at), nil
}

// ReplayedLSN returns the standby's consistency point: the highest LSN
// replayed into pages and object lists.
func (s *Standby) ReplayedLSN() uint64 { return uint64(s.rep.Engine().ReplayedLSN()) }

// StandbyHealth describes a standby's position in the replication
// stream.
type StandbyHealth struct {
	// State is StateFollower while standing by (StateCrashed if the
	// standby engine was crashed under test).
	State HealthState
	// ReplayedLSN is the consistency point reads are served at.
	ReplayedLSN uint64
	// DurableLSN is how far the local log is forced; it bounds what this
	// standby has acknowledged to the primary.
	DurableLSN uint64
	// PrimaryLSN is the primary's flushed LSN as of the last received
	// batch (0 before the first).
	PrimaryLSN uint64
	// LagRecords is max(0, PrimaryLSN - ReplayedLSN).
	LagRecords uint64
}

// Health returns the standby's replication watermarks and state.
func (s *Standby) Health() StandbyHealth {
	h := s.rep.Health()
	return StandbyHealth{
		State:       s.rep.Engine().Health().State,
		ReplayedLSN: uint64(h.ReplayedLSN),
		DurableLSN:  uint64(h.DurableLSN),
		PrimaryLSN:  uint64(h.PrimaryLSN),
		LagRecords:  h.LagRecords,
	}
}

// Metrics returns the standby engine's metric snapshot (repl.replayed_lsn,
// repl.applied_records, repl.lag_records and the whole engine stack).
func (s *Standby) Metrics() MetricsSnapshot { return s.rep.Engine().Metrics() }

// Promote turns the standby into a primary and returns the writable DB.
// Promotion is the engine's ordinary recovery backward pass run over the
// standby's live analysis state: transactions whose fate the stream never
// decided are losers, their scope clusters are swept in strictly
// decreasing LSN order and undone via CLRs (§3.6.2) — there is no
// promotion-specific recovery code.  Disconnect Follow first.  After a
// successful Promote the Standby handle is dead; use the returned DB.
//
// With StandbyOptions.ParallelRecovery, Promote returns as soon as the
// sweep is started, with the DB in StateRecovering — reads flow
// throughout (never observing a half-undone object), writes are accepted
// once DB.WaitRecovered returns nil.
func (s *Standby) Promote() (*DB, error) {
	eng, err := s.rep.Promote()
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng, dir: s.dir}, nil
}

// Engine exposes the follower engine for tools and tests.
func (s *Standby) Engine() *core.Engine { return s.rep.Engine() }

// Close shuts the standby down cleanly (flushes its log and pages,
// releases file handles).  Not valid after a successful Promote — close
// the returned DB instead.
func (s *Standby) Close() error { return s.rep.Engine().Close() }
