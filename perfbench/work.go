package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ariesrh/internal/shard"
	"ariesrh/internal/wal"
)

// spec is one workload.  Sizes are scaled down by the self-test.
type spec struct {
	name    string
	why     string
	objects int
	file    bool // file-backed (real fsync) instead of in-memory
	// fileProbe adds, to the traced run, the same load on a file-backed
	// database (real fsync), reported as the file.* and gen.* diagnostics;
	// fileRate > 0 runs that load as an open loop at this base rate.
	fileProbe bool
	fileRate  float64
	shards    int // >= 2 opens a sharded cluster
	clients   int // closed-loop clients, or open-loop workers

	updates    int     // objects written by an update transaction
	reads      int     // objects read by a read-only transaction
	readFrac   float64 // share of read-only transactions
	delegFrac  float64 // share of update transactions that hand half their objects to a co-transaction committing first
	abortFrac  float64 // share of update transactions aborted on purpose
	crossFrac  float64 // sharded: share of update transactions writing two shards
	xdelegFrac float64 // sharded: share of two-shard transactions that delegate across shards

	// Open loop: a constant base rate (0: closed loop) plus ON/OFF bursts
	// whose rate is multiplied by burstMul times a lognormal(0,
	// burstSigma) factor.
	rate, burstMul, burstSigma float64
	onMean, offMean            time.Duration

	ckptEvery time.Duration // background FlushPages → Checkpoint → ArchiveLog period

	// Restart cycles: each loads cycleTxns transactions from one client,
	// leaves losers in-flight delegating pairs, then crashes and recovers.
	// The restart workload's measured phase is made of them; the others
	// run cycles after theirs.
	cycles    int
	cycleTxns int
	losers    int
}

// specs are the workloads, in the order BENCHMARK.json lists them.
var specs = []spec{
	{
		name: "hot-delegate", why: "CPU-bound commit path under contention: locks, engine latch, WAL append, Ob_List bookkeeping, delegation and abort undo; no device cost, no buffer misses",
		objects: 2000, clients: 2, updates: 8, reads: 4, readFrac: 0.1, delegFrac: 0.25, abortFrac: 0.05,
		ckptEvery: 100 * time.Millisecond, cycles: 16, cycleTxns: 4000, losers: 50,
	},
	{
		name: "cold-read", why: "100k objects (~24x the buffer pool), 80% read-only: buffer misses and evictions and the read path",
		objects: 100000, fileProbe: true, clients: 2, updates: 2, reads: 4, readFrac: 0.8,
		fileRate: 250, burstMul: 2.5, burstSigma: 0.5, onMean: 50 * time.Millisecond, offMean: 200 * time.Millisecond,
		ckptEvery: 500 * time.Millisecond, cycles: 16, cycleTxns: 2000, losers: 20,
	},
	{
		name: "restart", why: "crash with in-flight delegating losers, then sequential and parallel recovery of the same log: WAL scan, redo, cluster undo, log memory",
		objects: 100000, clients: 1, updates: 8, reads: 4, readFrac: 0.1, delegFrac: 0.25, abortFrac: 0.05,
		cycles: 4, cycleTxns: 4000, losers: 50,
	},
	{
		name: "xshard", why: "two shards, half the update transactions write both: router, two-phase commit and cross-shard delegation",
		objects: 2000, fileProbe: true, shards: 2, clients: 2, updates: 2, reads: 4, readFrac: 0.1, crossFrac: 0.5, xdelegFrac: 0.1,
		ckptEvery: 250 * time.Millisecond, cycles: 16, cycleTxns: 5000, losers: 20,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a spec for the self-test.
func (s spec) scaled(f float64) spec {
	if f >= 1 {
		return s
	}
	n := func(v int, min int) int { return max(min, int(float64(v)*f)) }
	s.objects = n(s.objects, 200)
	s.cycleTxns = n(s.cycleTxns, 20)
	s.losers = n(s.losers, 2)
	s.cycles = min(s.cycles, 2)
	return s
}

const valSize = 32

// value encodes a write uniquely: who wrote it (client, sequence) and
// which object it belongs to.
func value(client int, seq uint64, obj wal.ObjectID) []byte {
	v := make([]byte, valSize)
	binary.LittleEndian.PutUint64(v[0:], seq<<8|uint64(client))
	binary.LittleEndian.PutUint64(v[8:], uint64(obj))
	for i := 16; i < valSize; i++ {
		v[i] = byte(seq) + byte(i)
	}
	return v
}

func valueObj(v []byte) wal.ObjectID {
	if len(v) != valSize {
		return 0
	}
	return wal.ObjectID(binary.LittleEndian.Uint64(v[8:]))
}

// rng is splitmix64: cheap, seedable per operation.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xBF58476D1CE4E5B9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int        { return int(r.next() % uint64(n)) }
func (r *rng) float() float64        { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) chance(p float64) bool { return p > 0 && r.float() < p }

// pick returns k distinct objects from pool, sorted (so two clients lock
// in the same order and never deadlock).
func (r *rng) pick(pool []wal.ObjectID, k int, out []wal.ObjectID) []wal.ObjectID {
	out = out[:0]
	for len(out) < k {
		o := pool[r.intn(len(pool))]
		dup := false
		for _, x := range out {
			dup = dup || x == o
		}
		if !dup {
			out = append(out, o)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// write is one update waiting for its transaction's commit ack.  stamp
// is taken while the writer holds the object's exclusive lock, so for
// each object the committed write with the highest stamp is the current
// committed value.
type write struct {
	obj   wal.ObjectID
	stamp uint64
	val   []byte
}

// model is the bench's copy of committed state.  seq numbers every
// value written in a run, so no two writes carry the same bytes.
type model struct {
	seq   atomic.Uint64
	clock atomic.Uint64
	mu    sync.Mutex
	vals  map[wal.ObjectID]write
}

func (m *model) commit(ws []write) {
	m.mu.Lock()
	for _, w := range ws {
		if w.stamp > m.vals[w.obj].stamp {
			m.vals[w.obj] = w
		}
	}
	m.mu.Unlock()
}

// stats are one phase's client-side measurements.
type stats struct {
	txnLat    []int64 // committed update transactions (two-shard ones on a sharded store), ns
	singleLat []int64 // committed single-shard update transactions on a sharded store, ns
	readLat   []int64 // read-only transactions, ns
	lag       []int64 // open loop: start minus due time, ns
	backlog   int     // open loop: most operations due but not started

	spans        [numTxnSpans][]int64 // traced API call durations, ns
	apiNs, txnNs int64                // traced: Σ API spans and Σ transaction spans

	txns, commits, aborts, attempted, failed uint64
	payload                                  uint64 // bytes written by Update calls
	badReads                                 uint64 // reads returning another object's bytes
	firstErr                                 error
}

func (s *stats) merge(o *stats) {
	s.txnLat = append(s.txnLat, o.txnLat...)
	s.singleLat = append(s.singleLat, o.singleLat...)
	s.readLat = append(s.readLat, o.readLat...)
	s.lag = append(s.lag, o.lag...)
	s.backlog = max(s.backlog, o.backlog)
	for i := range s.spans {
		s.spans[i] = append(s.spans[i], o.spans[i]...)
	}
	s.apiNs += o.apiNs
	s.txnNs += o.txnNs
	s.txns += o.txns
	s.commits += o.commits
	s.aborts += o.aborts
	s.attempted += o.attempted
	s.failed += o.failed
	s.payload += o.payload
	s.badReads += o.badReads
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// client runs transactions against the store and records their cost.
type client struct {
	id    int
	st    store
	sp    *spec
	m     *model
	pools [][]wal.ObjectID // pools[0] every object; sharded: pools[1+i] shard i's
	// private holds, per shard, an object only this client writes
	// (outside pools): a co-transaction's first write, which can never
	// wait for a lock.
	private []wal.ObjectID
	trace   bool // record API spans
	s       stats
	buf     []wal.ObjectID // reused for each transaction's objects
}

// start opens an API span: the call's start time while tracing.
func (c *client) start() time.Time {
	c.s.attempted++
	if !c.trace {
		return time.Time{}
	}
	return time.Now()
}

// end closes an API span opened by start.
func (c *client) end(kind int, t0 time.Time) {
	if !c.trace {
		return
	}
	d := int64(time.Since(t0))
	c.s.spans[kind] = append(c.s.spans[kind], d)
	c.s.apiNs += d
}

func (c *client) fail(err error) {
	c.s.failed++
	if c.s.firstErr == nil {
		c.s.firstErr = err
	}
}

// txn runs one transaction drawn from r.  due is when it was due to
// start; its latency is measured from then.
func (c *client) txn(r *rng, due time.Time) {
	start := time.Now()
	failed, aborts := c.s.failed, c.s.aborts
	if r.chance(c.sp.readFrac) {
		c.readOnly(r)
		if c.s.failed == failed {
			c.s.readLat = append(c.s.readLat, int64(time.Since(due)))
		}
	} else if cross := c.update(r); c.s.failed == failed && c.s.aborts == aborts {
		lat := int64(time.Since(due))
		if c.sp.shards >= 2 && !cross {
			c.s.singleLat = append(c.s.singleLat, lat)
		} else {
			c.s.txnLat = append(c.s.txnLat, lat)
		}
	}
	c.s.txns++
	if c.trace {
		c.s.txnNs += int64(time.Since(start))
	}
}

func (c *client) begin() (txn, error) {
	t0 := c.start()
	x, err := c.st.Begin()
	c.end(spanBegin, t0)
	return x, err
}

func (c *client) commit(x txn) error {
	t0 := c.start()
	err := x.Commit()
	c.end(spanCommit, t0)
	return err
}

func (c *client) abandon(x txn) {
	if x != nil {
		_ = x.Abort() // best effort after a failed operation; the failure is already counted
	}
}

func (c *client) readOnly(r *rng) {
	objs := r.pick(c.pools[0], c.sp.reads, c.buf)
	c.buf = objs
	x, err := c.begin()
	if err != nil {
		c.fail(err)
		return
	}
	for _, o := range objs {
		t0 := c.start()
		v, err := x.Read(o)
		c.end(spanRead, t0)
		if err != nil {
			c.fail(err)
			c.abandon(x)
			return
		}
		if valueObj(v) != o {
			c.s.badReads++
		}
	}
	if err := c.commit(x); err != nil {
		c.fail(err)
		return
	}
	c.s.commits++
}

// objects draws an update transaction's objects; on a sharded store it
// reports whether they span two shards.
func (c *client) objects(r *rng) ([]wal.ObjectID, bool) {
	if c.sp.shards < 2 {
		return r.pick(c.pools[0], c.sp.updates, c.buf), false
	}
	if r.chance(c.sp.crossFrac) {
		a := c.pools[1][r.intn(len(c.pools[1]))]
		b := c.pools[2][r.intn(len(c.pools[2]))]
		if a > b {
			a, b = b, a
		}
		return append(c.buf[:0], a, b), true
	}
	return r.pick(c.pools[1+r.intn(c.sp.shards)], c.sp.updates, c.buf), false
}

// update runs one update transaction: write every object in sorted
// order; maybe delegate half of them to a co-transaction that commits
// first; then commit, or abort on purpose.
func (c *client) update(r *rng) (cross bool) {
	objs, cross := c.objects(r)
	c.buf = objs
	deleg := r.chance(c.sp.delegFrac) || (cross && r.chance(c.sp.xdelegFrac))
	abort := r.chance(c.sp.abortFrac)
	x, err := c.begin()
	if err != nil {
		c.fail(err)
		return cross
	}
	ws := make([]write, 0, len(objs))
	for _, o := range objs {
		v := value(c.id, c.m.seq.Add(1), o)
		t0 := c.start()
		err := x.Update(o, v)
		c.end(spanUpdate, t0)
		if err != nil {
			c.fail(err)
			c.abandon(x)
			return cross
		}
		ws = append(ws, write{obj: o, stamp: c.m.clock.Add(1), val: v})
		c.s.payload += valSize
	}
	if deleg {
		co, err := c.begin()
		if err != nil {
			c.fail(err)
			c.abandon(x)
			return cross
		}
		// Hand over the upper half: on a two-shard transaction, the
		// object on the second shard.  There the co-transaction first
		// writes its own object on the first shard, which makes that
		// shard its coordinator and the delegation cross-shard.
		half := append([]write(nil), ws[len(ws)/2:]...)
		if cross {
			p := c.private[shard.HashRouter{}.Route(ws[0].obj, c.sp.shards)]
			v := value(c.id, c.m.seq.Add(1), p)
			t0 := c.start()
			err := co.Update(p, v)
			c.end(spanUpdate, t0)
			if err != nil {
				c.fail(err)
				c.abandon(co)
				c.abandon(x)
				return cross
			}
			half = append(half, write{obj: p, stamp: c.m.clock.Add(1), val: v})
			c.s.payload += valSize
		}
		for _, w := range half[:len(ws)-len(ws)/2] {
			t0 := c.start()
			err := x.Delegate(co, w.obj)
			c.end(spanDelegate, t0)
			if err != nil {
				c.fail(err)
				c.abandon(co)
				c.abandon(x)
				return cross
			}
		}
		if err := c.commit(co); err != nil {
			c.fail(err)
			c.abandon(x)
			return cross
		}
		c.m.commit(half)
		c.s.commits++
		ws = ws[:len(ws)/2]
	}
	if abort {
		t0 := c.start()
		err := x.Abort()
		c.end(spanAbort, t0)
		if err != nil {
			c.fail(err)
			return cross
		}
		c.s.aborts++
		return cross
	}
	if err := c.commit(x); err != nil {
		c.fail(err)
		return cross
	}
	c.m.commit(ws)
	c.s.commits++
	return cross
}

// loserPair leaves two in-flight transactions behind: the first writes
// objs and delegates half of them to the second.  Neither terminates,
// so the next recovery must undo all of it.
func (c *client) loserPair(objs []wal.ObjectID) error {
	x, err := c.st.Begin()
	if err != nil {
		return err
	}
	co, err := c.st.Begin()
	if err != nil {
		return err
	}
	for _, o := range objs {
		if err := x.Update(o, value(c.id, c.m.seq.Add(1), o)); err != nil {
			return err
		}
	}
	for _, o := range objs[len(objs)/2:] {
		if err := x.Delegate(co, o); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs the clients back to back until the deadline.
func closedLoop(clients []*client, seed uint64, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			r := newRNG(seed, uint64(c.id)+1)
			for time.Now().Before(deadline) {
				c.txn(r, time.Now())
			}
		}(c)
	}
	wg.Wait()
}

// schedule returns the due offsets of an open-loop run of length d: a
// constant base rate, multiplied during ON periods (exponentially
// distributed ON/OFF lengths) by burstMul times a lognormal factor.
func schedule(sp *spec, seed uint64, d time.Duration) []time.Duration {
	r := newRNG(seed, 1<<32)
	exp := func(mean time.Duration) time.Duration {
		return time.Duration(-math.Log(1-r.float()) * float64(mean))
	}
	normal := func() float64 {
		return math.Sqrt(-2*math.Log(1-r.float())) * math.Cos(2*math.Pi*r.float())
	}
	var out []time.Duration
	var t time.Duration
	on := false
	for t < d {
		period := exp(sp.offMean)
		rate := sp.rate
		if on {
			period = exp(sp.onMean)
			rate *= sp.burstMul * math.Exp(sp.burstSigma*normal())
		}
		end := min(t+period, d)
		gap := time.Duration(float64(time.Second) / rate)
		for ; t < end; t += gap {
			out = append(out, t)
		}
		t = end
		on = !on
	}
	return out
}

// openLoop runs the schedule: each worker takes the next due operation,
// sleeps until its due time if early, and runs it.  An operation that
// came due while its worker was still busy counts its latency from the
// due time, so a stall shows in every operation queued behind it; one
// the worker had to wait for counts from when the worker woke, so the
// sleep's own lateness is reported as generator lag, not latency.
func openLoop(clients []*client, seed uint64, d time.Duration) {
	due := schedule(clients[0].sp, seed, d)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				ref := at
				if w := time.Until(at); w > 0 {
					ts := syscall.NsecToTimespec(int64(w))
					// nanosleep wakes within tens of microseconds;
					// Go's timers may wake a millisecond late.  An
					// interrupted sleep just starts the operation early.
					_ = syscall.Nanosleep(&ts, nil)
					ref = time.Now()
				}
				now := time.Since(start)
				c.s.lag = append(c.s.lag, int64(now-due[i]))
				behind := sort.Search(len(due), func(j int) bool { return due[j] > now }) - i
				c.s.backlog = max(c.s.backlog, behind)
				c.txn(newRNG(seed, uint64(i)+1<<33), ref)
			}
		}(c)
	}
	wg.Wait()
}

var errMismatch = errors.New("state mismatch")

// verify checks every object the model knows against st: each
// acknowledged write is readable, no write of an aborted or
// unacknowledged transaction is.
func verify(st store, m *model) error {
	for o, w := range m.vals {
		v, ok, err := st.ReadCommitted(o)
		if err != nil {
			return fmt.Errorf("read %d: %w", o, err)
		}
		want := w.val
		if !ok || string(v) != string(want) {
			return fmt.Errorf("%w: object %d holds %x, committed state is %x", errMismatch, o, v, want)
		}
	}
	return nil
}

// privateObjects gives client its own object on each shard, numbered
// above the n shared ones.
func privateObjects(n, shards, client int) []wal.ObjectID {
	out := make([]wal.ObjectID, max(shards, 1))
	for s := range out {
		seen := 0
		for o := wal.ObjectID(n + 1); ; o++ {
			if shards >= 2 && int(shard.HashRouter{}.Route(o, shards)) != s {
				continue
			}
			if seen == client {
				out[s] = o
				break
			}
			seen++
		}
	}
	return out
}

// shardPools splits objects by home shard.
func shardPools(objs []wal.ObjectID, shards int) [][]wal.ObjectID {
	pools := [][]wal.ObjectID{objs}
	if shards < 2 {
		return pools
	}
	for i := 0; i < shards; i++ {
		pools = append(pools, nil)
	}
	for _, o := range objs {
		s := shard.HashRouter{}.Route(o, shards)
		pools[1+s] = append(pools[1+s], o)
	}
	return pools
}
