package obs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pushes  int // values 1..pushes, into a ring of 4
		n       int // Newest(n)
		want    []int
		evicted int // pushes that reported an eviction
	}{
		{"empty", 0, 4, []int{}, 0},
		{"partial", 3, 4, []int{1, 2, 3}, 0},
		{"n beyond len", 2, 9, []int{1, 2}, 0},
		{"n of 0", 3, 0, []int{}, 0},
		{"negative n", 3, -1, []int{}, 0},
		{"exactly full", 4, 4, []int{1, 2, 3, 4}, 0},
		{"wrapped", 6, 4, []int{3, 4, 5, 6}, 2},
		{"newest across the wrap point", 6, 3, []int{4, 5, 6}, 2},
		{"newest before the wrap point", 6, 1, []int{6}, 2},
		{"wrapped twice", 11, 4, []int{8, 9, 10, 11}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](4)
			evicted := 0
			for v := 1; v <= tc.pushes; v++ {
				if r.Push(v) {
					evicted++
				}
			}
			if evicted != tc.evicted {
				t.Errorf("%d pushes evicted %d, want %d", tc.pushes, evicted, tc.evicted)
			}
			if want := min(tc.pushes, 4); r.Len() != want {
				t.Errorf("Len = %d, want %d", r.Len(), want)
			}
			got := r.Newest(tc.n)
			if got == nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Newest(%d) = %#v, want %v", tc.n, got, tc.want)
			}
		})
	}

	var zero Ring[int]
	if zero.Len() != 0 || zero.Newest(3) != nil {
		t.Fatalf("the zero ring holds %d, Newest %v; want 0 and nil", zero.Len(), zero.Newest(3))
	}
}

// TestRingMatchesKeepLastN drives a ring and a slice that keeps its last
// capacity values with the same random pushes and reads.
func TestRingMatchesKeepLastN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(9)
		r := NewRing[int](capacity)
		var ref []int
		for step := 0; step < 60; step++ {
			if rng.Intn(3) > 0 {
				v := rng.Int()
				evicted := r.Push(v)
				if want := len(ref) == capacity; evicted != want {
					t.Fatalf("cap %d step %d: evicted %v, want %v", capacity, step, evicted, want)
				}
				if ref = append(ref, v); len(ref) > capacity {
					ref = ref[1:]
				}
				continue
			}
			n := rng.Intn(capacity + 3)
			want := ref[len(ref)-min(n, len(ref)):]
			if got := r.Newest(n); r.Len() != len(ref) || !reflect.DeepEqual(got, append([]int{}, want...)) {
				t.Fatalf("cap %d step %d: Len %d Newest(%d) = %v, want %d and %v",
					capacity, step, r.Len(), n, got, len(ref), want)
			}
		}
	}
}

// TestSinceResumesAcrossEviction: Since returns what was recorded after
// from, the newest limit of it, and nothing once caught up, for both
// recorders, including when eviction has taken part of the gap.
func TestSinceResumesAcrossEviction(t *testing.T) {
	tr := NewTracer(4)
	l := NewEventLog(4)
	record := func(from, to int) {
		for i := from; i <= to; i++ {
			tr.Record(Span{Trace: uint64(i), Kind: SpanSend})
			l.Emit(NewEvent("n", uint64(i), "a", "b", "o", time.Time{}))
		}
	}
	check := func(what string, from uint64, limit int, wantTotal uint64, want ...uint64) {
		t.Helper()
		spans, spanTotal := tr.Since(from, limit)
		events, eventTotal := l.Since(from, limit)
		if spanTotal != wantTotal || eventTotal != wantTotal {
			t.Fatalf("%s: totals %d and %d, want %d", what, spanTotal, eventTotal, wantTotal)
		}
		if len(spans) != len(want) || len(events) != len(want) {
			t.Fatalf("%s: %d spans and %d events, want %v", what, len(spans), len(events), want)
		}
		for i, id := range want {
			if spans[i].Trace != id || events[i].Trace != id {
				t.Fatalf("%s: item %d is span %d, event %d; want %d", what, i, spans[i].Trace, events[i].Trace, id)
			}
		}
	}

	check("nothing recorded", 0, 10, 0)
	record(1, 3)
	check("the first three", 0, 10, 3, 1, 2, 3)
	check("caught up", 3, 10, 3)
	check("the limit keeps the newest", 0, 2, 3, 2, 3)
	check("a limit of 0", 0, 0, 3)
	record(4, 9) // 5 of 9 evicted
	check("resumed across eviction", 3, 10, 9, 6, 7, 8, 9)
	check("resumed inside the ring", 7, 10, 9, 8, 9)
	check("resumed with a limit", 3, 3, 9, 7, 8, 9)
	check("caught up after eviction", 9, 10, 9)
}

// TestEventLogHookRunsOutsideTheLock: a hook that blocks (a stalled
// flight-recorder write) holds up only the Emit that called it, not a
// concurrent Emit, nor a reader.
func TestEventLogHookRunsOutsideTheLock(t *testing.T) {
	l := NewEventLog(8)
	entered, release := make(chan struct{}), make(chan struct{})
	l.OnEmit = func(e Event) {
		if e.Trace == 1 {
			close(entered)
			<-release
		}
	}
	go l.Emit(NewEvent("n", 1, "a", "b", "o", time.Time{}))
	<-entered
	done := make(chan struct{})
	go func() {
		l.Emit(NewEvent("n", 2, "a", "b", "o", time.Time{}))
		_ = l.Events()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("an Emit waited for another Emit's hook")
	}
	close(release)
	if l.Total() != 2 {
		t.Fatalf("total %d, want 2", l.Total())
	}
}
