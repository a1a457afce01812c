package wal

import (
	"bytes"
	"testing"

	"ariesrh/internal/obs"
)

// TestResidentBytesBounded pins the one-representation rule on a real
// directory: with every append flushed, the log holds in memory only the
// active segment's frames — never more than SegmentBytes plus one frame,
// however many segments accumulate — and a record in the first sealed
// segment reads back byte-equal from its device through Get, Scan and a
// tail subscription.
func TestResidentBytesBounded(t *testing.T) {
	dir, err := OpenFileDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	const segBytes = 1024
	l, err := NewLogWith(dir, LogOptions{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.Instrument(reg)
	resident := reg.Gauge("wal.resident_bytes")
	sub, err := l.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var first []byte
	var maxFrame, total int64
	for i := 1; len(l.Segments()) < 9; i++ {
		r := &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i),
			Before: bytes.Repeat([]byte{byte(i)}, 24), After: bytes.Repeat([]byte{byte(i + 1)}, 40)}
		lsn := mustAppend(t, l, r)
		enc, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		if lsn == 1 {
			first = enc
		}
		maxFrame = max(maxFrame, int64(len(enc)))
		total += int64(len(enc))
		if err := l.Flush(lsn); err != nil {
			t.Fatal(err)
		}
		if got := resident.Load(); got > segBytes+maxFrame {
			t.Fatalf("after %d records (%d segments) resident = %d bytes, bound %d",
				i, len(l.Segments()), got, segBytes+maxFrame)
		}
	}
	if got := resident.Load(); got >= total/4 {
		t.Fatalf("resident = %d of %d appended bytes: sealed segments kept their images", got, total)
	}
	segs := l.Segments()
	if s := segs[0]; !s.Sealed || s.DurableBytes != s.Bytes || s.FirstLSN != 1 {
		t.Fatalf("first segment = %+v, want sealed and fully durable from LSN 1", s)
	}

	reencode := func(how string, r *Record) {
		t.Helper()
		enc, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, first) {
			t.Fatalf("%s of LSN 1 = %x, appended %x", how, enc, first)
		}
	}
	got, err := l.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	reencode("Get", got)
	if err := l.Scan(1, 1, func(r *Record) (bool, error) { reencode("Scan", r); return true, nil }); err != nil {
		t.Fatal(err)
	}
	frames, last, err := sub.Next(1)
	if err != nil {
		t.Fatal(err)
	}
	if last != 1 || !bytes.Equal(frames, first) {
		t.Fatalf("Next(1) = %x through %d, appended %x", frames, last, first)
	}
}

// segmentImage builds a segment image (header plus frames) holding recs
// renumbered densely from LSN 1.
func segmentImage(tb testing.TB, recs []*Record) []byte {
	img := encodeSegmentHeader(segmentHeader{num: 1, firstLSN: 1})
	for i, r := range recs {
		c := *r
		c.LSN = LSN(i + 1)
		enc, err := EncodeRecord(&c)
		if err != nil {
			tb.Fatal(err)
		}
		img = append(img, enc...)
	}
	return img
}

// TestOpenWalkAllocatesNoRecords: validating a segment at open decodes
// every frame into one scratch record, so its allocations do not grow
// with the record count the way a decode that keeps records does.
func TestOpenWalkAllocatesNoRecords(t *testing.T) {
	var recs []*Record
	for len(recs) < 1000 {
		recs = append(recs, sampleRecords()...)
	}
	img := segmentImage(t, recs)
	walk := testing.AllocsPerRun(5, func() {
		if _, err := decodeSegmentImage(img, false); err != nil {
			t.Fatal(err)
		}
	})
	keep := testing.AllocsPerRun(5, func() {
		if _, err := decodeSegmentImage(img, true); err != nil {
			t.Fatal(err)
		}
	})
	if walk > 64 || keep < float64(len(recs)) {
		t.Fatalf("open walk: %.0f allocs, keeping walk: %.0f, for %d frames", walk, keep, len(recs))
	}
}
