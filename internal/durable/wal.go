package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

const (
	// frameHeader is the per-record overhead: u32 length + u32 CRC32.
	frameHeader = 8
	// maxRecord bounds one payload; a length field above it is treated
	// as corruption, not an allocation request.
	maxRecord = 16 << 20

	segPrefix = "wal-"
	segSuffix = ".log"
)

// ErrRecordTooLarge rejects an append whose payload exceeds maxRecord.
var ErrRecordTooLarge = errors.New("durable: record exceeds max size")

// ErrClosed rejects operations on a closed WAL.
var ErrClosed = errors.New("durable: wal closed")

// segName formats the file name of segment seg.
func segName(seg uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seg, segSuffix)
}

// parseSegName extracts the segment index from a WAL file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// WALStats is a point-in-time snapshot of log activity.
type WALStats struct {
	// Appends counts records successfully appended this process life.
	Appends uint64
	// Syncs counts fsyncs issued.
	Syncs uint64
	// Rotations counts segment seals.
	Rotations uint64
	// Replayed counts records recovered at open.
	Replayed uint64
	// Truncated counts torn tails amputated at open.
	Truncated uint64
	// WriteErrors counts failed appends (including injected faults).
	WriteErrors uint64
	// ActiveSegment is the index of the current append target.
	ActiveSegment uint64
	// ActiveBytes is the active segment's current size.
	ActiveBytes int64
}

// WAL is an append-only, CRC-framed, segmented log. All methods are
// safe for concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        File
	seg      uint64 // active segment index
	size     int64  // bytes written to active segment
	dirty    bool   // active segment took a write error; seal on next append
	unsynced bool   // bytes appended since last fsync
	closed   bool

	// Each count Stats reports is one counter, published by
	// AttachMetrics as durable_wal_<name>_total.
	appends     obs.Counter
	syncs       obs.Counter
	rotations   obs.Counter
	replayed    obs.Counter
	truncated   obs.Counter
	writeErrors obs.Counter

	syncer *supervise.Proc
}

// OpenWAL opens (creating if needed) the log in dir, replays every
// surviving record through replay in (segment, append) order, truncates
// a torn tail on the last segment, and leaves the highest segment open
// for append. replay may be nil. firstSeg is the lowest segment index
// to replay — records in older segments are skipped (they are covered
// by a snapshot); pass 0 to replay everything.
func OpenWAL(dir string, firstSeg uint64, opts Options, replay func(seg uint64, rec []byte)) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opts: opts}
	if len(segs) == 0 {
		w.seg = 1
		if firstSeg > 1 {
			w.seg = firstSeg
		}
		if err := w.openSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		for i, seg := range segs {
			last := i == len(segs)-1
			n, goodEnd, serr := w.scanSegment(seg, firstSeg, replay)
			if serr != nil {
				return nil, serr
			}
			w.replayed.Add(float64(n))
			if last {
				// Amputate a torn tail so the next append lands after
				// the last good frame.
				path := filepath.Join(dir, segName(seg))
				if fi, err := os.Stat(path); err == nil && fi.Size() > goodEnd {
					if err := os.Truncate(path, goodEnd); err != nil {
						return nil, fmt.Errorf("durable: truncate torn tail: %w", err)
					}
					w.truncated.Inc()
				}
				w.seg = seg
				w.size = goodEnd
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return nil, fmt.Errorf("durable: reopen segment: %w", err)
				}
				w.f = wrapFile(f, opts)
			}
		}
	}
	if opts.Sync == SyncInterval {
		w.syncer = supervise.Periodic("durable-wal-sync", opts.Clock, opts.SyncEvery, func() {
			_ = w.Sync()
		})
	}
	return w, nil
}

func wrapFile(f File, opts Options) File {
	if opts.WrapFile != nil {
		return opts.WrapFile(f)
	}
	return f
}

// listSegments returns the segment indices present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: read dir: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// scanSegment replays every intact frame of segment seg (skipping the
// replay callback when seg < firstSeg) and returns the record count
// delivered plus the byte offset just past the last good frame. A
// short, zero-length, oversized, or CRC-failing frame stops the scan —
// corruption truncates the segment's logical contents at that point.
func (w *WAL) scanSegment(seg, firstSeg uint64, replay func(seg uint64, rec []byte)) (uint64, int64, error) {
	path := filepath.Join(w.dir, segName(seg))
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("durable: read segment: %w", err)
	}
	var n uint64
	var off int64
	for {
		rec, next, ok := nextFrame(data, off)
		if !ok {
			return n, off, nil
		}
		if seg >= firstSeg && replay != nil {
			replay(seg, rec)
		}
		if seg >= firstSeg {
			n++
		}
		off = next
	}
}

// nextFrame decodes the frame at off. ok=false means no intact frame
// starts there (end of data, torn tail, or corruption).
func nextFrame(data []byte, off int64) (rec []byte, next int64, ok bool) {
	if off+frameHeader > int64(len(data)) {
		return nil, 0, false
	}
	length := binary.LittleEndian.Uint32(data[off:])
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if length == 0 || length > maxRecord {
		return nil, 0, false
	}
	end := off + frameHeader + int64(length)
	if end > int64(len(data)) {
		return nil, 0, false
	}
	payload := data[off+frameHeader : end]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, end, true
}

// openSegmentLocked creates and switches to segment w.seg. Caller holds
// w.mu (or is in single-threaded open).
func (w *WAL) openSegmentLocked() error {
	path := filepath.Join(w.dir, segName(w.seg))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	w.f = wrapFile(f, w.opts)
	w.size = 0
	w.dirty = false
	return nil
}

// Append frames rec and writes it to the active segment, rotating first
// if the segment is full or was dirtied by an earlier failed write.
// Under SyncAlways the record is fsynced before Append returns. On a
// write error the segment is truncated back to the last good frame; if
// even that fails, the segment is sealed dirty and the next append
// rotates past it — a fault injects loss, never a wedged log.
//
//lint:hot budget=5
func (w *WAL) Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("durable: empty record")
	}
	if len(rec) > maxRecord {
		return ErrRecordTooLarge
	}
	frame := make([]byte, frameHeader+len(rec))
	binary.LittleEndian.PutUint32(frame, uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(rec))
	copy(frame[frameHeader:], rec)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.dirty || (w.size > 0 && w.size+int64(len(frame)) > w.opts.SegmentBytes) {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := w.f.Write(frame)
	if err != nil {
		w.writeErrors.Inc()
		// A partial frame on disk would mask every frame behind it in
		// this segment; cut it off, or seal the segment if we cannot.
		if n > 0 {
			if terr := w.f.Truncate(w.size); terr != nil {
				w.dirty = true
			}
		}
		return fmt.Errorf("durable: append: %w", err)
	}
	w.size += int64(len(frame))
	w.appends.Inc()
	w.unsynced = true
	if w.opts.Sync == SyncAlways {
		if serr := w.syncLocked(); serr != nil {
			return serr
		}
	}
	return nil
}

// rotateLocked seals the active segment (fsync + close) and opens the
// next one. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if w.f != nil {
		_ = w.f.Sync()
		_ = w.f.Close()
	}
	w.seg++
	w.rotations.Inc()
	w.unsynced = false
	return w.openSegmentLocked()
}

// Rotate seals the active segment and opens a fresh one, returning the
// new active segment's index. Compaction uses this as the snapshot
// watermark: everything below the returned index is snapshot-covered.
func (w *WAL) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.seg, nil
}

// RemoveBefore deletes sealed segments with index < seg. The active
// segment is never removed.
func (w *WAL) RemoveBefore(seg uint64) error {
	w.mu.Lock()
	active := w.seg
	w.mu.Unlock()
	if seg > active {
		seg = active
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s < seg {
			if err := os.Remove(filepath.Join(w.dir, segName(s))); err != nil {
				return fmt.Errorf("durable: remove segment: %w", err)
			}
		}
	}
	return nil
}

// Sync forces unsynced appends to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if !w.unsynced {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	w.unsynced = false
	w.syncs.Inc()
	return nil
}

// Close stops the interval-sync loop, fsyncs, and closes the active
// segment. Append/Sync after Close return ErrClosed.
func (w *WAL) Close() error {
	// Stop the syncer before taking w.mu: its tick fn takes w.mu.
	if w.syncer != nil {
		w.syncer.Stop()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.f != nil {
		if w.unsynced {
			err = w.f.Sync()
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// AttachMetrics publishes the WAL's counts in reg as durable_wal_*
// counters, the replay and truncation done at open included. Safe to
// call with nil (no-op registry semantics are obs's contract).
func (w *WAL) AttachMetrics(reg *obs.Registry) {
	reg.Publish(&w.appends, "durable_wal_appends_total")
	reg.Publish(&w.syncs, "durable_wal_syncs_total")
	reg.Publish(&w.rotations, "durable_wal_rotations_total")
	reg.Publish(&w.replayed, "durable_wal_replayed_total")
	reg.Publish(&w.truncated, "durable_wal_truncated_total")
	reg.Publish(&w.writeErrors, "durable_wal_write_errors_total")
}

// Stats snapshots log activity.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Appends:       uint64(w.appends.Value()),
		Syncs:         uint64(w.syncs.Value()),
		Rotations:     uint64(w.rotations.Value()),
		Replayed:      uint64(w.replayed.Value()),
		Truncated:     uint64(w.truncated.Value()),
		WriteErrors:   uint64(w.writeErrors.Value()),
		ActiveSegment: w.seg,
		ActiveBytes:   w.size,
	}
}

// ActiveSegment reports the current append target's index.
func (w *WAL) ActiveSegment() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seg
}
