package faultinject

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
)

// Disk faults: the storage-side counterpart of the lossy radio. A
// pervasive-grid node journals its state to flash that can lose power
// mid-write; DiskInjector manufactures the resulting failure shapes —
// short (torn) writes, write errors, fsync errors — deterministically
// from a seed, so the WAL's truncate-and-recover paths are testable
// without pulling the plug.

// DiskFile is the file surface the injector wraps. It is structurally
// identical to durable.File (declared here so faultinject does not
// import durable: the dependency points test-ward, not runtime-ward).
type DiskFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// DiskConfig parameterises a DiskInjector.
type DiskConfig struct {
	// Seed makes the fault sequence deterministic (0 picks seed 1).
	Seed int64
	// ShortWriteProb is the probability a write persists only a random
	// strict prefix of its bytes and then fails — a torn write.
	ShortWriteProb float64
	// WriteErrProb is the probability a write fails cleanly (no bytes
	// persisted).
	WriteErrProb float64
	// SyncErrProb is the probability an fsync reports failure.
	SyncErrProb float64
	// ShortWriteEveryN deterministically tears every Nth write (counted
	// across the injector), in addition to ShortWriteProb. Chaos tests
	// use it to tear an exact record.
	ShortWriteEveryN int
	// SyncErrEveryN deterministically fails every Nth fsync, in
	// addition to SyncErrProb.
	SyncErrEveryN int
}

// DiskStats counts injected disk faults.
type DiskStats struct {
	// Writes counts write calls that entered wrapped files.
	Writes uint64
	// ShortWrites counts torn writes injected.
	ShortWrites uint64
	// WriteErrors counts clean write failures injected.
	WriteErrors uint64
	// Syncs counts fsync calls that entered wrapped files.
	Syncs uint64
	// SyncErrors counts fsync failures injected.
	SyncErrors uint64
}

// ErrInjectedWrite is the failure a wrapped file reports for an
// injected clean write error.
var ErrInjectedWrite = fmt.Errorf("faultinject: injected write error")

// ErrInjectedSync is the failure a wrapped file reports for an injected
// fsync error.
var ErrInjectedSync = fmt.Errorf("faultinject: injected fsync error")

// DiskInjector decides each write's and fsync's fate from a seeded RNG.
// One injector can wrap any number of files; decisions interleave in
// call order, which is deterministic when the writes are.
type DiskInjector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	cfg      DiskConfig
	writes   uint64
	syncs    uint64
	stats    DiskStats
	disabled bool
}

// NewDisk builds a disk-fault injector.
//
//lint:ignore deadcode test seam used by the durable WAL tests
func NewDisk(cfg DiskConfig) *DiskInjector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &DiskInjector{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// SetDisabled pauses (true) or resumes (false) fault injection — so a
// test can build a healthy log first, then turn the weather bad.
func (d *DiskInjector) SetDisabled(v bool) {
	d.mu.Lock()
	d.disabled = v
	d.mu.Unlock()
}

// Stats snapshots injected-fault counts.
func (d *DiskInjector) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// WrapFile decorates a file with the injector's fault policy. Pass it
// as durable Options.WrapFile (adapting the parameter type) to put
// every WAL segment behind the fault seam.
func (d *DiskInjector) WrapFile(f DiskFile) DiskFile {
	return &faultFile{in: d, f: f}
}

// writeVerdict is the injector's decision for one write.
type writeVerdict int

const (
	writeOK writeVerdict = iota
	writeShort
	writeErr
)

// decideWrite rolls the dice for one write of n bytes, returning the
// verdict and, for a torn write, how many bytes to persist (a strict
// prefix, possibly zero).
func (d *DiskInjector) decideWrite(n int) (writeVerdict, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes++
	d.stats.Writes++
	if d.disabled {
		return writeOK, 0
	}
	if d.cfg.ShortWriteEveryN > 0 && d.writes%uint64(d.cfg.ShortWriteEveryN) == 0 {
		d.stats.ShortWrites++
		return writeShort, d.rng.Intn(n)
	}
	if d.cfg.ShortWriteProb > 0 && d.rng.Float64() < d.cfg.ShortWriteProb {
		d.stats.ShortWrites++
		return writeShort, d.rng.Intn(n)
	}
	if d.cfg.WriteErrProb > 0 && d.rng.Float64() < d.cfg.WriteErrProb {
		d.stats.WriteErrors++
		return writeErr, 0
	}
	return writeOK, 0
}

// decideSync rolls the dice for one fsync.
func (d *DiskInjector) decideSync() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncs++
	d.stats.Syncs++
	if d.disabled {
		return true
	}
	if d.cfg.SyncErrEveryN > 0 && d.syncs%uint64(d.cfg.SyncErrEveryN) == 0 {
		d.stats.SyncErrors++
		return false
	}
	if d.cfg.SyncErrProb > 0 && d.rng.Float64() < d.cfg.SyncErrProb {
		d.stats.SyncErrors++
		return false
	}
	return true
}

// faultFile applies the injector's verdicts to one wrapped file.
type faultFile struct {
	in *DiskInjector
	f  DiskFile
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return ff.f.Write(p)
	}
	verdict, keep := ff.in.decideWrite(len(p))
	switch verdict {
	case writeErr:
		return 0, ErrInjectedWrite
	case writeShort:
		// Persist a strict prefix for real — the torn bytes must land on
		// disk so recovery faces a genuinely garbled tail.
		n, err := ff.f.Write(p[:keep])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("faultinject: injected torn write (%d of %d bytes): %w", keep, len(p), io.ErrShortWrite)
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if !ff.in.decideSync() {
		return ErrInjectedSync
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error { return ff.f.Truncate(size) }

func (ff *faultFile) Close() error { return ff.f.Close() }
