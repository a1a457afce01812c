package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// ErrPrimaryClosed is returned by Serve after Close has detached the
// primary-side replication state.
var ErrPrimaryClosed = errors.New("repl: primary closed")

// defaultBatch bounds how many records one records message carries.
const defaultBatch = 256

// Primary is the sending side of replication for one attached replica.
// It owns a long-lived retention pin on the engine's log — taken at
// attach time, advanced only by the replica's durability acks — so
// wal.Archive never discards a record the replica still needs, across
// arbitrarily many disconnect/reconnect cycles.  Serve handles one
// connection at a time; a replica that lost its connection reconnects and
// resumes from its own log head (the LSN cursor in its hello).
//
// Attach the primary BEFORE taking the bootstrap backup: the pin starts
// at the head as of attach, so everything a later backup misses is
// guaranteed to still be in the log when the replica first connects.
type Primary struct {
	eng *core.Engine

	mu       sync.Mutex
	pin      *wal.Subscription // retention pin; never used for delivery
	active   *wal.Subscription // current connection's delivery cursor
	closed   bool
	inflight []batchMark
	// Cumulative payload bytes shipped/acknowledged; their difference is
	// the repl.lag_bytes gauge.
	shippedBytes, ackedBytes uint64

	met primaryMetrics
}

// batchMark remembers one sent records batch so its covering ack can be
// timed and its bytes subtracted from the lag.
type batchMark struct {
	last     wal.LSN
	cumBytes uint64
	sent     time.Time
}

type primaryMetrics struct {
	shippedRecords, shippedBytes, connects *obs.Counter
	lagRecords, lagBytes                   *obs.Gauge
	ackLagNs                               *obs.Histogram
}

// NewPrimary attaches replication to eng: the retention pin is taken at
// the current log head and the replication metrics are bound to the
// engine's registry (so DB.Metrics() reports lag and shipped volume).
func NewPrimary(eng *core.Engine) (*Primary, error) {
	pin, err := eng.Log().Subscribe(eng.Log().Head() + 1)
	if err != nil {
		return nil, err
	}
	reg := eng.Registry()
	return &Primary{
		eng: eng,
		pin: pin,
		met: primaryMetrics{
			shippedRecords: reg.Counter("repl.shipped_records"),
			shippedBytes:   reg.Counter("repl.shipped_bytes"),
			connects:       reg.Counter("repl.connects"),
			lagRecords:     reg.Gauge("repl.lag_records"),
			lagBytes:       reg.Gauge("repl.lag_bytes"),
			ackLagNs:       reg.Histogram("repl.ack_lag_ns"),
		},
	}, nil
}

// AckedLSN returns the highest LSN the replica has acknowledged as
// durable (NilLSN before the first ack).
func (p *Primary) AckedLSN() wal.LSN {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pin := p.pin.Pin(); pin != wal.NilLSN {
		return pin - 1
	}
	return wal.NilLSN
}

// Serve speaks the protocol over one connection: it reads the replica's
// hello, opens a delivery cursor at the requested LSN, then ships durable
// records and consumes acks until the connection fails, the replica
// hangs up, or Close is called.  If rw is an io.Closer it is closed on
// the way out, releasing whichever loop is still blocked on it.  The
// retention pin survives Serve returning; call Close to detach for good.
func (p *Primary) Serve(rw io.ReadWriter) error {
	kind, payload, err := readMsg(rw)
	if err != nil {
		return err
	}
	if kind != msgHello || len(payload) != 8 {
		return fmt.Errorf("repl: expected hello, got message kind %d (%d bytes)", kind, len(payload))
	}
	from := wal.LSN(binary.LittleEndian.Uint64(payload))

	sub, err := p.eng.Log().Subscribe(from)
	if err != nil {
		code := byte(errCodeGeneric)
		if errors.Is(err, wal.ErrArchived) {
			// The replica's cursor fell behind the archived base — it can
			// only be rebuilt from a fresh backup.
			code = errCodeSnapshotNeeded
		}
		_ = writeMsg(rw, msgError, append([]byte{code}, err.Error()...))
		return err
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		sub.Close()
		return ErrPrimaryClosed
	}
	p.active = sub
	p.inflight = nil
	p.ackedBytes = p.shippedBytes // re-shipped records don't inflate the byte lag
	p.mu.Unlock()
	p.met.connects.Inc()

	errc := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errc <- p.sendLoop(rw, sub) }()
	go func() { defer wg.Done(); errc <- p.ackLoop(rw, sub) }()
	err = <-errc
	sub.Close() // unblocks a sendLoop waiting in Next
	if c, ok := rw.(io.Closer); ok {
		c.Close() // unblocks an ackLoop waiting in Read
	}
	wg.Wait()

	p.mu.Lock()
	if p.active == sub {
		p.active = nil
	}
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrPrimaryClosed
	}
	return err
}

// sendLoop ships durable records as the subscription delivers them: the
// log's frames go on the wire exactly as they were appended.
func (p *Primary) sendLoop(w io.Writer, sub *wal.Subscription) error {
	next := sub.Cursor()
	for {
		frames, last, err := sub.Next(defaultBatch)
		if err != nil {
			return err
		}
		payload := make([]byte, 8, 8+len(frames))
		binary.LittleEndian.PutUint64(payload, uint64(p.eng.Log().FlushedLSN()))
		payload = append(payload, frames...)
		if err := writeMsg(w, msgRecords, payload); err != nil {
			return err
		}
		n := uint64(len(frames))
		p.met.shippedRecords.Add(uint64(last - next + 1))
		next = last + 1
		p.met.shippedBytes.Add(n)
		p.mu.Lock()
		p.shippedBytes += n
		p.inflight = append(p.inflight, batchMark{
			last:     last,
			cumBytes: p.shippedBytes,
			sent:     time.Now(),
		})
		p.mu.Unlock()
	}
}

// ackLoop consumes durability acks, advancing the retention pin and the
// lag accounting.
func (p *Primary) ackLoop(r io.Reader, sub *wal.Subscription) error {
	for {
		kind, payload, err := readMsg(r)
		if err != nil {
			return err
		}
		if kind != msgAck || len(payload) != 8 {
			return fmt.Errorf("repl: unexpected message kind %d from replica", kind)
		}
		acked := wal.LSN(binary.LittleEndian.Uint64(payload))
		sub.Ack(acked)

		now := time.Now()
		p.mu.Lock()
		p.pin.Ack(acked)
		for len(p.inflight) > 0 && p.inflight[0].last <= acked {
			m := p.inflight[0]
			p.inflight = p.inflight[1:]
			p.ackedBytes = m.cumBytes
			p.met.ackLagNs.Observe(now.Sub(m.sent))
		}
		lagBytes := p.shippedBytes - p.ackedBytes
		p.mu.Unlock()

		lagRecords := int64(0)
		if flushed := p.eng.Log().FlushedLSN(); flushed > acked {
			lagRecords = int64(flushed - acked)
		}
		p.met.lagRecords.Set(lagRecords)
		p.met.lagBytes.Set(int64(lagBytes))
	}
}

// Close detaches the replica: the retention pin is released (Archive may
// reclaim everything durable) and any active Serve returns
// ErrPrimaryClosed.  Close is idempotent.
func (p *Primary) Close() {
	p.mu.Lock()
	active := p.active
	p.active = nil
	p.closed = true
	p.pin.Close()
	p.mu.Unlock()
	if active != nil {
		active.Close()
	}
}
