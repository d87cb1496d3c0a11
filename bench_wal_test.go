package pervasivegrid_test

// Durability micro-benchmarks: WAL append throughput under the cheapest
// fsync policy (rotate — the interval and always policies measure the
// disk, not the framing), and cold-start recovery replay: the per-layer
// cross-check for `durable.wal_append_us`. Run them at a fixed iteration
// count on both commits when comparing.

import (
	"bytes"
	"testing"

	"pervasivegrid/internal/durable"
)

// BenchmarkWALAppend measures one framed append (length prefix + CRC32 +
// payload) without a per-record fsync: the steady-state journaling cost
// a node pays per checkpoint.
func BenchmarkWALAppend(b *testing.B) {
	w, err := durable.OpenWAL(b.TempDir(), 1, durable.Options{
		Sync:         durable.SyncOnRotate,
		SegmentBytes: 64 << 20, // never rotate mid-run
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := bytes.Repeat([]byte("x"), 256)
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALRecover measures a cold boot: open a 512-record segment,
// CRC-check and replay every frame. This is the startup latency a
// crashed node pays before it can rejoin the fleet.
func BenchmarkWALRecover(b *testing.B) {
	dir := b.TempDir()
	w, err := durable.OpenWAL(dir, 1, durable.Options{Sync: durable.SyncOnRotate}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rec := bytes.Repeat([]byte("y"), 256)
	const records = 512
	for i := 0; i < records; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(records * int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayed := 0
		w, err := durable.OpenWAL(dir, 1, durable.Options{Sync: durable.SyncOnRotate}, func(_ uint64, _ []byte) {
			replayed++
		})
		if err != nil {
			b.Fatal(err)
		}
		if replayed != records {
			b.Fatalf("replayed %d of %d records", replayed, records)
		}
		w.Close()
	}
}
