package core

import (
	"errors"
	"testing"
	"time"

	"ariesrh/internal/fault"
	"ariesrh/internal/wal"
)

// TestReadOnlyCommitLogsOnlyEnd pins the log-free read-only commit under
// every commit mode: a transaction that logged nothing since its begin
// record, owns nothing and depends on nothing appends exactly one record
// (its end record) and causes no log flush and no device sync.  Every
// other shape — including a delegatee that received scopes, even under
// DisableChaining where its LastLSN does not move — keeps the forced
// commit record.
func TestReadOnlyCommitLogsOnlyEnd(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"group-on", Options{GroupCommit: GroupCommitOn}},
		{"group-off", Options{GroupCommit: GroupCommitOff}},
		{"elr", Options{GroupCommit: GroupCommitOn, EarlyLockRelease: true}},
	}
	shapes := []struct {
		name            string
		disableChaining bool
		readOnly        bool
		// run builds the transaction to commit over committed object 1.
		run func(t *testing.T, e *Engine) wal.TxID
	}{
		{name: "empty", readOnly: true, run: func(t *testing.T, e *Engine) wal.TxID {
			return mustBegin(t, e)
		}},
		{name: "reader", readOnly: true, run: func(t *testing.T, e *Engine) wal.TxID {
			tx := mustBegin(t, e)
			for _, obj := range []wal.ObjectID{1, 2} {
				if _, err := e.Read(tx, obj); err != nil {
					t.Fatal(err)
				}
			}
			return tx
		}},
		{name: "updater", run: func(t *testing.T, e *Engine) wal.TxID {
			tx := mustBegin(t, e)
			mustUpdate(t, e, tx, 1, "new")
			return tx
		}},
		{name: "delegator", run: func(t *testing.T, e *Engine) wal.TxID {
			tor := mustBegin(t, e)
			tee := mustBegin(t, e)
			mustUpdate(t, e, tor, 1, "new")
			mustDelegate(t, e, tor, tee, 1)
			return tor
		}},
		{name: "delegatee", run: func(t *testing.T, e *Engine) wal.TxID {
			tor := mustBegin(t, e)
			tee := mustBegin(t, e)
			mustUpdate(t, e, tor, 1, "new")
			mustDelegate(t, e, tor, tee, 1)
			return tee
		}},
		{name: "delegatee-unchained", disableChaining: true, run: func(t *testing.T, e *Engine) wal.TxID {
			tor := mustBegin(t, e)
			tee := mustBegin(t, e)
			mustUpdate(t, e, tor, 1, "new")
			mustDelegate(t, e, tor, tee, 1)
			return tee
		}},
	}
	for _, m := range modes {
		for _, sh := range shapes {
			t.Run(m.name+"/"+sh.name, func(t *testing.T) {
				dir := fault.NewDir(fault.Plan{})
				opts := m.opts
				opts.PoolSize = 16
				opts.LogDir = dir
				opts.DisableChaining = sh.disableChaining
				e, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				setup := mustBegin(t, e)
				mustUpdate(t, e, setup, 1, "base")
				mustCommit(t, e, setup)

				tx := sh.run(t, e)
				before, syncs, head := e.Metrics(), dir.Syncs(), e.Log().Head()
				mustCommit(t, e, tx)
				d := e.Metrics().Sub(before)

				ro := uint64(0)
				if sh.readOnly {
					ro = 1
				}
				if got := d.Counter("core.readonly_commits"); got != ro {
					t.Fatalf("core.readonly_commits delta = %d, want %d", got, ro)
				}
				if got := d.Counter("core.commits"); got != 1 {
					t.Fatalf("core.commits delta = %d, want 1", got)
				}
				var types []wal.RecordType
				for lsn := head + 1; lsn <= e.Log().Head(); lsn++ {
					rec, err := e.Log().Get(lsn)
					if err != nil {
						t.Fatal(err)
					}
					if rec.TxID != tx {
						t.Fatalf("commit of t%d appended %v of t%d", tx, rec.Type, rec.TxID)
					}
					types = append(types, rec.Type)
				}
				if !sh.readOnly {
					if len(types) != 2 || types[0] != wal.TypeCommit || types[1] != wal.TypeEnd {
						t.Fatalf("commit appended %v, want [commit end]", types)
					}
					if d.Counter("wal.flushes") == 0 || dir.Syncs() == syncs {
						t.Fatalf("commit forced nothing (flushes %d, syncs %d→%d)", d.Counter("wal.flushes"), syncs, dir.Syncs())
					}
					return
				}
				if len(types) != 1 || types[0] != wal.TypeEnd {
					t.Fatalf("read-only commit appended %v, want [end]", types)
				}
				if got := d.Counter("wal.flushes"); got != 0 {
					t.Fatalf("read-only commit: wal.flushes delta = %d, want 0", got)
				}
				if got := dir.Syncs(); got != syncs {
					t.Fatalf("read-only commit: device syncs %d→%d, want none", syncs, got)
				}
				// The end record hangs off the begin record.
				end, err := e.Log().Get(e.Log().Head())
				if err != nil {
					t.Fatal(err)
				}
				begin, err := e.Log().Get(end.PrevLSN)
				if err != nil || begin.Type != wal.TypeBegin || begin.TxID != tx {
					t.Fatalf("end record's PrevLSN %d is %v (err %v), want t%d's begin", end.PrevLSN, begin, err, tx)
				}
			})
		}
	}
}

// TestReadOnlyCommitELRReaderWithEdgeForces: a reader that read an
// early-lock-release committer's pre-durable value holds an abort
// dependency on it, so its commit is not log-free — it forces a commit
// record behind its predecessor's, and when that flush fails it is rolled
// back with ErrCommitAborted instead of acknowledging a dirty read.
func TestReadOnlyCommitELRReaderWithEdgeForces(t *testing.T) {
	e, store := newELREngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "init")
	mustCommit(t, e, setup)

	w := mustBegin(t, e)
	mustUpdate(t, e, w, 1, "dirty")
	r := mustBegin(t, e)

	store.arm()
	cw := commitAsync(e, w)
	<-store.entered // w's commit record is on its way to the device

	if v, err := e.Read(r, 1); err != nil || string(v) != "dirty" {
		t.Fatalf("reader saw %q/%v, want the pre-durable value", v, err)
	}
	elrCommits := e.Metrics().Counter("elr.commits")
	cr := commitAsync(e, r)
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().Counter("elr.commits") == elrCommits {
		if time.Now().After(deadline) {
			t.Fatal("the reader's commit never appended a commit record")
		}
		time.Sleep(time.Millisecond)
	}

	store.failAll()
	close(store.gate)
	if err := <-cw; !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("writer commit = %v, want ErrCommitAborted", err)
	}
	if err := <-cr; !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("reader commit = %v, want ErrCommitAborted", err)
	}
	wantValue(t, e, 1, "init")
	if got := e.Metrics().Counter("core.readonly_commits"); got != 0 {
		t.Fatalf("core.readonly_commits = %d, want 0", got)
	}
}

// TestRecoveryReadOnlyCommit: a read-only transaction's begin record is
// durable (a later commit's force carried it) and its end record either
// is lost with the crash or reached the device.  Either way recovery
// succeeds, writes no CLR and leaves every object as committed; a lost
// end record makes the transaction a loser that owns nothing.
func TestRecoveryReadOnlyCommit(t *testing.T) { forEachSchedule(t, testRecoveryReadOnlyCommit) }

func testRecoveryReadOnlyCommit(t *testing.T, parallel bool) {
	for _, tc := range []struct {
		name       string
		endDurable bool
		losers     uint64
	}{
		{"end-lost", false, 1},
		{"end-durable", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newScheduledEngine(t, parallel)
			setup := mustBegin(t, e)
			mustUpdate(t, e, setup, 1, "one")
			mustUpdate(t, e, setup, 2, "two")
			mustCommit(t, e, setup)

			r := mustBegin(t, e)
			w := mustBegin(t, e)
			mustUpdate(t, e, w, 3, "three")
			mustCommit(t, e, w) // forces r's begin record too
			for _, obj := range []wal.ObjectID{1, 2} {
				if _, err := e.Read(r, obj); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, e, r)
			if tc.endDurable {
				if err := e.Log().Flush(e.Log().Head()); err != nil {
					t.Fatal(err)
				}
			}
			crashAndRecover(t, e)
			tr := e.LastRecoveryTrace()
			if tr.CLRs != 0 {
				t.Fatalf("recovery wrote %d CLRs, want 0", tr.CLRs)
			}
			if tr.Losers != tc.losers {
				t.Fatalf("recovery found %d losers, want %d", tr.Losers, tc.losers)
			}
			wantValue(t, e, 1, "one")
			wantValue(t, e, 2, "two")
			wantValue(t, e, 3, "three")
		})
	}
}
