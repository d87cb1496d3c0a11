package obs

import (
	"runtime"
	"testing"
)

func TestWithLabelAndMergeByNode(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("x_total").Add(1)
	r1.Gauge("depth", "agent", "a").Set(4)
	r2 := NewRegistry()
	r2.Counter("x_total").Add(9)
	r2.Histogram("h").Observe(2)

	merged := MergeByNode(map[string]Snapshot{
		"n1": r1.Snapshot(),
		"n2": r2.Snapshot(),
	})
	if merged.Counters[`x_total{node="n1"}`] != 1 || merged.Counters[`x_total{node="n2"}`] != 9 {
		t.Fatalf("merged counters = %v", merged.Counters)
	}
	if merged.Gauges[`depth{agent="a",node="n1"}`] != 4 {
		t.Fatalf("merged gauges = %v", merged.Gauges)
	}
	if merged.Histograms[`h{node="n2"}`].Count != 1 {
		t.Fatalf("merged histograms = %v", merged.Histograms)
	}
}

func TestCaptureRuntimeGauges(t *testing.T) {
	CaptureRuntime(nil) // nil-safe

	reg := NewRegistry()
	runtime.GC() // ensure at least one pause sample exists
	CaptureRuntime(reg)
	s := reg.Snapshot()
	if s.Gauges["runtime_goroutines"] < 1 {
		t.Fatalf("runtime_goroutines = %v, want >= 1", s.Gauges["runtime_goroutines"])
	}
	if s.Gauges["runtime_heap_alloc_bytes"] <= 0 {
		t.Fatalf("runtime_heap_alloc_bytes = %v, want > 0", s.Gauges["runtime_heap_alloc_bytes"])
	}
	if s.Gauges["runtime_heap_objects"] <= 0 {
		t.Fatalf("runtime_heap_objects = %v, want > 0", s.Gauges["runtime_heap_objects"])
	}
	if s.Gauges["runtime_gc_total"] < 1 {
		t.Fatalf("runtime_gc_total = %v, want >= 1", s.Gauges["runtime_gc_total"])
	}
	if p99 := s.Gauges["runtime_gc_pause_p99_seconds"]; p99 < 0 || p99 > 10 {
		t.Fatalf("runtime_gc_pause_p99_seconds = %v, want sane", p99)
	}
}

func TestGCPauseP99(t *testing.T) {
	var ms runtime.MemStats
	if got := gcPauseP99(&ms); got != 0 {
		t.Fatalf("no GC yet: p99 = %v, want 0", got)
	}
	// Three pauses: p99 of a 3-sample set is the max.
	ms.NumGC = 3
	ms.PauseNs[0], ms.PauseNs[1], ms.PauseNs[2] = 1000, 9000, 2000
	if got := gcPauseP99(&ms); got != 9000e-9 {
		t.Fatalf("p99 = %v, want 9µs", got)
	}
	// More GCs than the 256-entry ring: every slot is a valid sample.
	ms.NumGC = 1000
	for i := range ms.PauseNs {
		ms.PauseNs[i] = 500
	}
	if got := gcPauseP99(&ms); got != 500e-9 {
		t.Fatalf("wrapped ring p99 = %v, want 500ns", got)
	}
}
