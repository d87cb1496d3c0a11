// Package durable is the node's crash-survival layer: an append-only
// write-ahead log plus snapshot compaction that carries a pervasive-grid
// node's soft state — supervised-agent checkpoints, the dead-letter
// ring, and discovery registrations — across process death. The paper's
// deployment is built from devices that power-cycle mid-mission ("the
// firefighter's PDA ... may be disconnected or destroyed"); PR 5's
// supervision recovers panics inside a live process, and this package
// extends the same guarantee across a kill -9: a pgridd restarted from
// its -data-dir replays the log, re-seeds its agents' checkpoints,
// refills the dead-letter ring, and re-advertises its services.
//
// Layout of a data directory:
//
//	wal-00000001.log   sealed segment (oldest surviving)
//	wal-00000002.log   ...
//	wal-00000007.log   active segment (append target)
//	snapshot.json      compaction snapshot + first segment to replay
//
// Every record is framed as
//
//	+----------+----------+-----------------+
//	| len u32  | crc u32  | payload (len B) |
//	+----------+----------+-----------------+
//
// with the length and CRC32 (IEEE) little-endian. Recovery scans frames
// until the first incomplete or CRC-failing one: a torn tail — the
// signature of a crash mid-append — truncates to the last good frame
// and the node boots with the surviving prefix. A torn record is never
// a reason to refuse to boot.
//
// Durability is a policy knob (SyncPolicy): fsync every append
// (SyncAlways, the default — an acknowledged record survives the next
// instant's power cut), on a supervised interval (SyncInterval), or
// only at segment rotation (SyncOnRotate, fastest, bounded loss).
// docs/robustness.md tabulates the trade-offs.
package durable

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pervasivegrid/internal/obs"
)

// File is the write surface the WAL appends through. *os.File satisfies
// it; faultinject's disk injector wraps it (via Options.WrapFile) to
// manufacture short/torn writes and fsync errors deterministically, so
// the recovery paths are testable without pulling power.
type File interface {
	io.Writer
	// Sync flushes written bytes to stable storage.
	Sync() error
	// Truncate cuts the file back to size bytes — how a torn append is
	// amputated so later good frames stay reachable.
	Truncate(size int64) error
	Close() error
}

// SyncPolicy picks when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record is
	// on stable storage before Append returns. The durable default —
	// and the slowest (each append pays a device flush).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a supervised background loop every
	// Options.SyncEvery. Loses at most one interval of records on a
	// crash; appends stay memory-speed.
	SyncInterval
	// SyncOnRotate fsyncs only when a segment seals (rotation or
	// Close). Fastest; a crash can lose the whole active segment's
	// unforced tail.
	SyncOnRotate
)

// String names the policy the way the pgridd -fsync flag spells it.
func (sp SyncPolicy) String() string {
	switch sp {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOnRotate:
		return "rotate"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(sp))
}

// ParseSyncPolicy maps a -fsync flag value to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "rotate":
		return SyncOnRotate, nil
	}
	return SyncAlways, fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or rotate)", s)
}

// DefaultSegmentBytes bounds a WAL segment before rotation.
const DefaultSegmentBytes = 4 << 20

// DefaultSyncEvery is the SyncInterval flush period.
const DefaultSyncEvery = 50 * time.Millisecond

// Options parameterise a WAL / Store.
type Options struct {
	// SegmentBytes rotates the active segment once it would exceed this
	// size (default DefaultSegmentBytes).
	SegmentBytes int64
	// Sync picks the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval flush period (default 50ms).
	SyncEvery time.Duration
	// Clock drives the interval-sync loop and registration expiry
	// arithmetic; nil means the wall clock.
	Clock obs.Clock
	// WrapFile decorates every segment file the WAL opens for append —
	// the disk-fault seam (see faultinject.DiskInjector.WrapFile). Nil
	// means raw *os.File.
	WrapFile func(File) File
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.Clock == nil {
		o.Clock = obs.Real
	}
	return o
}
