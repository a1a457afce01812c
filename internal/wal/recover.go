package wal

import (
	"errors"
	"fmt"
)

// decodedSegment is the result of walking one segment image: the frames
// that survived on the device, their offsets, and whether the image ended
// in a torn (partially written) frame.  recs is filled only on request
// (ReadDurable); opening a log validates the frames without keeping them.
type decodedSegment struct {
	hdr     segmentHeader
	data    []byte // frame bytes that decoded cleanly (header excluded)
	offsets []int
	recs    []*Record
	torn    bool // image had trailing bytes that did not decode
}

// decodeSegmentImage walks a raw segment image (header + frames) with the
// one record decoder, checking framing, checksums, body structure and
// LSN density.  A trailing partial frame — the signature of a crash
// between WriteAt and Sync — is reported via torn, not as an error;
// density violations and interior corruption are errors.  With keep
// unset every frame decodes into one scratch record, so the walk
// allocates no Record; with keep set the decoded records, aliasing buf,
// are returned in recs.
func decodeSegmentImage(buf []byte, keep bool) (*decodedSegment, error) {
	hdr, err := decodeSegmentHeader(buf)
	if err != nil {
		return nil, err
	}
	d := &decodedSegment{hdr: hdr}
	body := buf[segmentHeaderSize:]
	var scratch Record
	off := 0
	for off < len(body) {
		r := &scratch
		if keep {
			r = &Record{}
		}
		n, err := DecodeRecordInto(body[off:], r)
		if err != nil {
			if errors.Is(err, ErrTruncated) {
				d.torn = true
				break
			}
			return nil, fmt.Errorf("segment %d at offset %d: %w", hdr.num, off, err)
		}
		want := hdr.firstLSN + LSN(len(d.offsets))
		if r.LSN != want {
			return nil, fmt.Errorf("%w: segment %d record at offset %d has LSN %d, want %d",
				ErrCorrupt, hdr.num, off, r.LSN, want)
		}
		d.offsets = append(d.offsets, off)
		if keep {
			d.recs = append(d.recs, r)
		}
		off += n
	}
	d.data = body[:off]
	return d, nil
}

// readSegment opens the named segment device and walks its image (see
// decodeSegmentImage).
func readSegment(dir Dir, name string, keep bool) (Store, *decodedSegment, error) {
	dev, err := dir.Open(name)
	if err != nil {
		return nil, nil, err
	}
	buf, err := readAll(dev)
	if err != nil {
		return nil, nil, err
	}
	d, err := decodeSegmentImage(buf, keep)
	return dev, d, err
}

// loadFromDir (re)initializes the log from its directory: pick the
// authoritative manifest, decode every listed segment, repair the torn
// tail a crash may have left, and sweep files no generation references.
//
// What recovery tolerates, and why it is enough: flushing writes+syncs
// segment chunks in strict LSN order, so at any instant at most ONE
// segment device carries unsynced frame bytes.  A crash therefore leaves
// (a) a clean prefix of fully durable segments, (b) at most one segment
// with a shorter-than-volatile — possibly mid-frame torn — frame run,
// and (c) possibly empty later segments (their headers were synced by
// rotation but no frames ever reached them).  Decodable frames appearing
// AFTER such a gap would mean the device reordered a sync barrier and
// are refused as corruption.  A torn or missing higher manifest
// generation (crash mid-rotation or mid-archive) is ignored in favor of
// the previous generation, whose files are all still present because
// files are deleted only after the generation dropping them is durable.
func (l *Log) loadFromDir() error {
	names, err := l.dir.List()
	if err != nil {
		return fmt.Errorf("wal: open: %w", err)
	}
	m, err := pickManifest(l.dir, names)
	if err != nil {
		return fmt.Errorf("wal: open: %w", err)
	}
	if m == nil {
		return l.initFreshDir(names)
	}
	if len(m.segs) == 0 {
		return fmt.Errorf("%w: manifest lists no segments", ErrCorrupt)
	}

	l.base = m.base
	l.manifestGen = m.gen
	head := m.base
	if m.segs[0].firstLSN <= m.base {
		// The first segment retains records at or below the archived
		// base (archive is logical-first, physical at segment
		// granularity); continuity is judged from its first record.
		head = m.segs[0].firstLSN - 1
	}
	var live []*segment
	var dropped []uint64
	for _, e := range m.segs {
		dev, d, err := readSegment(l.dir, segmentName(e.num), false)
		if err != nil {
			// A listed segment's header was synced before the manifest
			// listing it; an unreadable header here is real corruption,
			// not a crash artifact.
			return fmt.Errorf("wal: segment %d: %w", e.num, err)
		}
		if d.hdr.num != e.num || d.hdr.firstLSN != e.firstLSN {
			return fmt.Errorf("%w: segment %d header (num %d, firstLSN %d) disagrees with manifest entry (firstLSN %d)",
				ErrCorrupt, e.num, d.hdr.num, d.hdr.firstLSN, e.firstLSN)
		}
		if e.firstLSN > head+1 {
			// Unreachable past the durable head: the segment was created
			// by a rotation whose volatile tail died with the process.
			if len(d.offsets) > 0 {
				return fmt.Errorf("%w: segment %d holds records %d.. after durable head %d",
					ErrCorrupt, e.num, e.firstLSN, head)
			}
			dropped = append(dropped, e.num)
			continue
		}
		if len(live) > 0 && e.firstLSN != head+1 {
			return fmt.Errorf("%w: segment %d first LSN %d overlaps durable head %d",
				ErrCorrupt, e.num, e.firstLSN, head)
		}
		if d.torn {
			// Discard the torn trailing frame from the device so future
			// appends and flushes extend a clean image.
			if err := dev.Truncate(segmentHeaderSize + int64(len(d.data))); err != nil {
				return fmt.Errorf("wal: truncate torn segment %d: %w", e.num, err)
			}
			if err := dev.Sync(); err != nil {
				return fmt.Errorf("wal: sync torn segment %d: %w", e.num, err)
			}
		}
		live = append(live, &segment{
			num:          e.num,
			firstLSN:     e.firstLSN,
			dev:          dev,
			data:         d.data,
			size:         int64(len(d.data)),
			offsets:      d.offsets,
			flushedBytes: int64(len(d.data)),
		})
		head = e.firstLSN + LSN(len(d.offsets)) - 1
	}
	if head < l.base {
		return fmt.Errorf("%w: durable head %d below archived base %d", ErrCorrupt, head, l.base)
	}

	l.segs = live
	l.flushedLSN = head
	for _, s := range live[:len(live)-1] {
		s.data = nil // sealed and durable: its frames are read from dev
	}
	l.met.resident.Set(l.residentLocked())
	if len(dropped) > 0 {
		// Make the pruned segment set durable BEFORE deleting any file:
		// a listed segment must always exist.
		if err := l.writeManifestLocked(l.base, manifestEntries(live)); err != nil {
			return err
		}
		for _, num := range dropped {
			_ = l.dir.Remove(segmentName(num))
		}
	}
	l.sweepStrays(names)
	l.met.segments.Set(int64(len(l.segs)))
	return nil
}

// initFreshDir initializes an empty directory: segment 1 plus manifest
// generation 1.  A directory with no decodable manifest but with segment
// record data is refused with ErrNoManifest — nothing says which
// segments are live, so silently re-initializing would discard records.
// Headerless or empty stray seg-/manifest- files (a crash during a
// previous fresh init) are removed; unknown names are left alone, the
// same policy as sweepStrays.
func (l *Log) initFreshDir(names []string) error {
	for _, name := range names {
		if num, ok := parseNumbered(name, "seg-"); ok {
			_, d, err := readSegment(l.dir, name, false)
			if d != nil && len(d.offsets) > 0 {
				return fmt.Errorf("%w: segment %d holds records", ErrNoManifest, num)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				return fmt.Errorf("wal: open: %w", err)
			}
		} else if _, ok := parseNumbered(name, "manifest-"); !ok {
			continue // unknown name: not ours to delete
		}
		_ = l.dir.Remove(name)
	}
	dev, err := l.dir.Open(segmentName(1))
	if err != nil {
		return fmt.Errorf("wal: init: %w", err)
	}
	hdr := encodeSegmentHeader(segmentHeader{num: 1, firstLSN: 1})
	if _, err := dev.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("wal: init: %w", err)
	}
	if err := dev.Sync(); err != nil {
		return fmt.Errorf("wal: init: %w", err)
	}
	l.base = NilLSN
	l.manifestGen = 0
	l.flushedLSN = NilLSN
	l.segs = []*segment{{num: 1, firstLSN: 1, dev: dev}}
	if err := l.writeManifestLocked(NilLSN, manifestEntries(l.segs)); err != nil {
		return err
	}
	l.met.segments.Set(1)
	l.met.resident.Set(0)
	return nil
}

// sweepStrays removes files the authoritative state no longer references:
// manifest images of other generations and segment files outside the live
// set (leftovers of an interrupted rotation, archive or prune).  Failures
// are ignored — a stray is re-swept at the next open.
func (l *Log) sweepStrays(names []string) {
	liveSegs := make(map[uint64]struct{}, len(l.segs))
	for _, s := range l.segs {
		liveSegs[s.num] = struct{}{}
	}
	for _, name := range names {
		if gen, ok := parseNumbered(name, "manifest-"); ok {
			if gen != l.manifestGen {
				_ = l.dir.Remove(name)
			}
			continue
		}
		if num, ok := parseNumbered(name, "seg-"); ok {
			if _, live := liveSegs[num]; !live {
				_ = l.dir.Remove(name)
			}
			continue
		}
		// Unknown names are left alone.
	}
}

// ReadDurable decodes the durable record sequence of a log directory
// without opening a Log over it: the archived base plus every record the
// authoritative manifest's segments hold, in LSN order — including
// records at or below the base that their segment still retains (callers
// filter by LSN as needed).  It is read-only and tolerant exactly like
// recovery: a torn trailing frame or an empty trailing segment ends the
// sequence; it never repairs the directory.  Crash oracles use it to ask
// "what would recovery see?" of a post-crash image.
func ReadDurable(dir Dir) (base LSN, recs []*Record, err error) {
	names, err := dir.List()
	if err != nil {
		return NilLSN, nil, err
	}
	m, err := pickManifest(dir, names)
	if err != nil {
		return NilLSN, nil, err
	}
	if m == nil {
		return NilLSN, nil, nil
	}
	head := m.base
	if len(m.segs) > 0 && m.segs[0].firstLSN <= m.base {
		head = m.segs[0].firstLSN - 1
	}
	for _, e := range m.segs {
		_, d, err := readSegment(dir, segmentName(e.num), true)
		if err != nil {
			return NilLSN, nil, err
		}
		if e.firstLSN > head+1 {
			break // durable sequence ends at the gap
		}
		recs = append(recs, d.recs...)
		head = e.firstLSN + LSN(len(d.recs)) - 1
		if d.torn {
			break
		}
	}
	return m.base, recs, nil
}
