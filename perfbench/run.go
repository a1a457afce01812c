package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// run is one benchmark invocation on one workload.
type run struct {
	sp   spec
	seed uint64
	dur  time.Duration
	t    *tracer // nil: untraced
	root string  // directory for file-backed databases
	// parallel opens the database with ParallelRecovery (the sharded
	// recovery probe's twin cluster).
	parallel bool
	dir      string // the live database's directory ("" in memory)
	st       store
	m        *model
	objs     []wal.ObjectID
	pools    [][]wal.ObjectID

	setups []time.Duration
	total  stats // failures and attempts over every phase, set-up excluded
}

// sample is a snapshot of everything a phase is measured by.
type sample struct {
	at      time.Time
	met     obs.Snapshot
	cpu     time.Duration
	steal   float64 // cumulative host steal ticks, from /proc/stat
	stealOf float64 // cumulative ticks of every kind
	mallocs uint64
	alloc   uint64
	gcCPU   float64 // seconds of GC CPU
	allCPU  float64
	dev     devSnap
}

func (r *run) sample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := sample{at: time.Now(), met: r.st.Metrics(), cpu: processCPU(), mallocs: ms.Mallocs, alloc: ms.TotalAlloc}
	s.steal, s.stealOf = hostSteal()
	s.gcCPU, s.allCPU = gcCPU()
	if r.t != nil {
		s.dev = r.t.snapshot()
	}
	return s
}

// phase is one measured stretch: client stats plus the deltas between
// two samples.
type phase struct {
	s        stats
	from, to sample
	retained uint64 // most log records held (head - base) at a checkpoint
}

func (p *phase) delta() obs.Snapshot { return p.to.met.Sub(p.from.met) }

// open opens the workload's database in r.dir, empty or not.
func (r *run) open() (store, error) {
	switch {
	case r.sp.shards >= 2:
		return openShards(r.dir, r.sp.shards, r.parallel, r.t)
	case r.sp.file:
		dev, err := fileDevices(r.dir)
		if err != nil {
			return nil, err
		}
		return openEngine(dev, r.parallel, r.t)
	default:
		return openEngine(memDevices(), r.parallel, r.t)
	}
}

// setup opens a fresh database, preloads every object and runs one
// checkpoint cycle, replacing any database from an earlier set-up.
func (r *run) setup() error {
	if r.st != nil {
		if err := r.st.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		if r.dir != "" {
			os.RemoveAll(r.dir)
		}
	}
	runtime.GC() // the previous set-up's garbage is not this one's cost
	t0 := time.Now()
	r.dir = ""
	if r.sp.file {
		r.dir = filepath.Join(r.root, fmt.Sprint(len(r.setups)))
	}
	st, err := r.open()
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.st = st
	r.m = &model{vals: make(map[wal.ObjectID]write, len(r.objs))}
	// Preload each shard's objects in its own transactions, so set-up
	// needs no two-phase commit.
	pools := r.pools
	if len(pools) > 1 {
		pools = pools[1:]
	}
	const batch = 500
	for _, pool := range pools {
		for lo := 0; lo < len(pool); lo += batch {
			x, err := st.Begin()
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			for _, o := range pool[lo:min(lo+batch, len(pool))] {
				v := value(255, 0, o)
				if err := x.Update(o, v); err != nil {
					return fmt.Errorf("preload: %w", err)
				}
				r.m.vals[o] = write{obj: o, val: v}
			}
			if err := x.Commit(); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	if err := st.Maintain(nil); err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(t0))
	return nil
}

func (r *run) clients(n int, trace bool) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{id: i, st: r.st, sp: &r.sp, m: r.m, pools: r.pools, trace: trace,
			private: privateObjects(len(r.objs), r.sp.shards, i)}
	}
	return cs
}

// drive runs the workload's clients for d with the background
// checkpointer, and returns the merged measurements.
func (r *run) drive(seed uint64, d time.Duration, trace bool) (phase, error) {
	cs := r.clients(r.sp.clients, trace)
	var p phase
	if r.t != nil {
		r.t.on.Store(trace)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ckptErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(r.sp.ckptEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			p.retained = max(p.retained, r.st.Retained())
			if err := r.st.Maintain(r.t); err != nil {
				ckptErr = err
				return
			}
		}
	}()
	p.from = r.sample()
	if r.sp.rate > 0 {
		openLoop(cs, seed, d)
	} else {
		closedLoop(cs, seed, d)
	}
	p.to = r.sample()
	close(stop)
	wg.Wait()
	for _, c := range cs {
		p.s.merge(&c.s)
	}
	r.account(&p.s)
	return p, ckptErr
}

// account adds a phase's failures to the run's totals.
func (r *run) account(s *stats) {
	r.total.attempted += s.attempted
	r.total.failed += s.failed
	r.total.badReads += s.badReads
	if r.total.firstErr == nil {
		r.total.firstErr = s.firstErr
	}
}

// cycleResult is one restart cycle.
type cycleResult struct {
	load         phase
	seq          time.Duration // crash to writable, sequential recovery
	first, full  time.Duration // parallel recovery: to first read, to writable
	seqTr, parTr core.RecoveryTrace
	heapBase     uint64 // after the opening checkpoint
	heapPeak     uint64 // just before the crash
	retainedBase uint64
	retainedPeak uint64
}

// cycle runs one restart cycle: load the crash image (see load), crash,
// and recover it sequentially by reopening the same devices — a process
// restart; a copy of the same crash image recovers with the parallel
// pipeline.  Both recovered states must equal the model of committed
// state.
func (r *run) cycle(i, n int, trace bool) (cycleResult, error) {
	var res cycleResult
	if r.t != nil {
		r.t.on.Store(trace)
	}
	if err := r.load(i, n, trace, &res); err != nil {
		return res, err
	}
	p, err := r.restart(i, n, &res)
	if err != nil {
		return res, err
	}
	if err := verify(r.st, r.m); err != nil {
		return res, fmt.Errorf("sequential recovery: %w", err)
	}
	m := r.m
	if twin, ok := p.(*twinCluster); ok {
		m = twin.m
	}
	err = verify(p, m)
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, fmt.Errorf("parallel recovery: %w", err)
	}
	return res, nil
}

// load builds cycle i's crash image: checkpoint; one client runs n
// transactions of the workload; in-flight delegating loser pairs are
// left behind; one committed transaction per shard forces the log past
// them.  The transactions depend only on the seed and i.
func (r *run) load(i, n int, trace bool, res *cycleResult) error {
	if err := r.st.Maintain(r.t); err != nil {
		return err
	}
	res.heapBase, res.retainedBase = heapAlloc(), r.st.Retained()
	if res.retainedBase > maxRetainedAfterCheckpoint {
		return fmt.Errorf("checkpoint left %d log records retained (limit %d): the log is not being truncated", res.retainedBase, maxRetainedAfterCheckpoint)
	}
	c := r.clients(1, trace)[0]
	rg := newRNG(r.seed, 1<<34+uint64(i))
	res.load.from = r.sample()
	for j := 0; j < n; j++ {
		c.txn(rg, time.Now())
	}
	res.load.to = r.sample()
	res.load.s = c.s
	r.account(&c.s)
	if c.s.failed > 0 {
		return fmt.Errorf("cycle load: %w", c.s.firstErr)
	}
	// Losers on distinct objects: a loser's locks would block another.
	base := rg.intn(len(r.objs))
	at := func(k int) wal.ObjectID { return r.objs[(base+k)%len(r.objs)] }
	const perLoser = 4
	used := map[wal.ObjectID]bool{}
	for k := 0; k < r.sp.losers; k++ {
		objs := []wal.ObjectID{at(k * perLoser), at(k*perLoser + 1), at(k*perLoser + 2), at(k*perLoser + 3)}
		for _, o := range objs {
			used[o] = true
		}
		if err := c.loserPair(objs); err != nil {
			return fmt.Errorf("loser: %w", err)
		}
	}
	pools := r.pools
	if len(pools) > 1 {
		pools = pools[1:]
	}
	x, err := r.st.Begin()
	if err != nil {
		return err
	}
	var force []write
	for _, pool := range pools {
		o := pool[rg.intn(len(pool))]
		for used[o] {
			o = pool[rg.intn(len(pool))]
		}
		v := value(c.id, r.m.seq.Add(1), o)
		if err := x.Update(o, v); err != nil {
			return fmt.Errorf("force: %w", err)
		}
		force = append(force, write{obj: o, stamp: r.m.clock.Add(1), val: v})
	}
	if err := x.Commit(); err != nil {
		return fmt.Errorf("force: %w", err)
	}
	r.m.commit(force)
	res.heapPeak, res.retainedPeak = heapAlloc(), r.st.Retained()
	return nil
}

// maxRetainedAfterCheckpoint bounds the log a checkpoint cycle may leave
// behind when no transaction is active: with nothing pinning it, the
// archive must reach the checkpoint, or the log (and its memory) grows
// with run length.
const maxRetainedAfterCheckpoint = 1000

// restart crashes the live database and recovers it sequentially, then
// recovers cycle i's crash image with ParallelRecovery, timing the
// first read and full recovery.  It returns the parallel database for
// the caller to verify and close.
func (r *run) restart(i, n int, res *cycleResult) (store, error) {
	var reopen func() (store, error)
	var probe store
	switch st := r.st.(type) {
	case *engineStore:
		// Copy the crash image first, then reopen the same devices.
		if err := st.e.Crash(); err != nil {
			return nil, err
		}
		img, err := cloneMem(st.dev)
		if err != nil {
			return nil, err
		}
		probe, err = r.timeParallel(res, func() (store, error) { return openEngine(img, true, nil) })
		if err != nil {
			return nil, err
		}
		reopen = func() (store, error) { return openEngine(st.dev, false, r.t) }
	case *shardStore:
		// shard.DB keeps each shard's pages to itself, so the crash
		// image cannot be copied: a second cluster opened with
		// ParallelRecovery is set up and loaded with the same cycle,
		// then crashed.
		twin := &run{sp: r.sp, seed: r.seed, objs: r.objs, pools: r.pools, parallel: true}
		if err := twin.setup(); err != nil {
			return nil, err
		}
		if err := twin.load(i, n, false, &cycleResult{}); err != nil {
			twin.st.Close()
			return nil, err
		}
		ts := twin.st.(*shardStore)
		if err := ts.db.Crash(); err != nil {
			ts.Close()
			return nil, err
		}
		p, err := r.timeParallel(res, func() (store, error) { return ts, ts.db.Recover() })
		if err != nil {
			return nil, err
		}
		probe = &twinCluster{store: p, m: twin.m}
		if err := st.db.Crash(); err != nil {
			probe.Close()
			return nil, err
		}
		reopen = func() (store, error) { return st, st.db.Recover() }
	}
	runtime.GC()
	t0 := time.Now()
	st, err := reopen()
	if err != nil {
		probe.Close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	res.seq = time.Since(t0)
	r.st = st
	res.seqTr = st.LastRecoveryTrace()
	return probe, nil
}

// timeParallel recovers a crash image with ParallelRecovery through open
// and records the time to the first read and to full recovery.
func (r *run) timeParallel(res *cycleResult, open func() (store, error)) (store, error) {
	runtime.GC()
	t0 := time.Now()
	p, err := open()
	if err != nil {
		return nil, fmt.Errorf("parallel recovery: %w", err)
	}
	if _, _, err := p.ReadCommitted(r.objs[0]); err != nil {
		p.Close()
		return nil, fmt.Errorf("first read: %w", err)
	}
	res.first = time.Since(t0)
	if err := p.WaitRecovered(); err != nil {
		p.Close()
		return nil, fmt.Errorf("parallel recovery: %w", err)
	}
	res.full = time.Since(t0)
	res.parTr = p.LastRecoveryTrace()
	return p, nil
}

// twinCluster is the recovered twin of a sharded database, checked
// against its own model.
type twinCluster struct {
	store
	m *model
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
