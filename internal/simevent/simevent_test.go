package simevent

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	times := []Time{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		if _, err := k.Schedule(at, "ev", func() { got = append(got, at) }); err != nil {
			t.Fatalf("Schedule(%v): %v", at, err)
		}
	}
	n := k.RunAll()
	if n != 5 {
		t.Fatalf("RunAll executed %d events, want 5", n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events ran out of order: %v", got)
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want 5", k.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := k.Schedule(7, "tie", func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	k.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending insertion order", got)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	k := NewKernel()
	if _, err := k.Schedule(10, "ev", func() {}); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if _, err := k.Schedule(5, "past", func() {}); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	k := NewKernel()
	if _, err := k.Schedule(1, "nil", nil); err == nil {
		t.Fatal("nil handler should be rejected")
	}
}

func TestNegativeDelayRejected(t *testing.T) {
	k := NewKernel()
	if _, err := k.After(-1, "neg", func() {}); err == nil {
		t.Fatal("negative delay should be rejected")
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	id, err := k.Schedule(1, "cancelled", func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if !k.Cancel(id) {
		t.Fatal("Cancel reported false for pending event")
	}
	if k.Cancel(id) {
		t.Fatal("double Cancel reported true")
	}
	k.RunAll()
	if ran {
		t.Fatal("cancelled event still ran")
	}
	if k.executed != 0 {
		t.Fatalf("executed = %d, want 0", k.executed)
	}
}

func TestRunHorizon(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, at := range []Time{1, 2, 3, 10} {
		at := at
		if _, err := k.Schedule(at, "ev", func() { got = append(got, at) }); err != nil {
			t.Fatal(err)
		}
	}
	n := k.Run(3)
	if n != 3 {
		t.Fatalf("Run(3) executed %d, want 3", n)
	}
	if k.Now() != 3 {
		t.Fatalf("clock = %v, want 3 (horizon)", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.RunAll()
	if len(got) != 4 {
		t.Fatalf("total events = %d, want 4", len(got))
	}
}

func TestRunHorizonAdvancesThroughQuietPeriod(t *testing.T) {
	k := NewKernel()
	if _, err := k.Schedule(1, "ev", func() {}); err != nil {
		t.Fatal(err)
	}
	k.Run(100)
	if k.Now() != 100 {
		t.Fatalf("clock = %v, want horizon 100", k.Now())
	}
}

func TestStopHaltsExecution(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		if _, err := k.Schedule(Time(i), "ev", func() {
			count++
			if count == 3 {
				k.Stop()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.RunAll()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
	if _, err := k.Schedule(100, "late", func() {}); err != ErrStopped {
		t.Fatalf("Schedule after Stop: err = %v, want ErrStopped", err)
	}
}

func TestHandlerSchedulesMoreEvents(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			if _, err := k.After(1, "recurse", recurse); err != nil {
				t.Errorf("After: %v", err)
			}
		}
	}
	if _, err := k.After(1, "recurse", recurse); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want 5", k.Now())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	k := NewKernel()
	var stamps []Time
	tk := NewTicker(k, 2, "tick", func(now Time) { stamps = append(stamps, now) })
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	k.Run(8)
	tk.Stop()
	k.RunAll()
	want := []Time{2, 4, 6, 8}
	if len(stamps) != len(want) {
		t.Fatalf("fired %d times, want %d", len(stamps), len(want))
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

func TestTickerStopMidway(t *testing.T) {
	k := NewKernel()
	var tk *Ticker
	fires := 0
	tk = NewTicker(k, 1, "tick", func(Time) {
		fires++
		if fires == 3 {
			tk.Stop()
		}
	})
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if fires != 3 {
		t.Fatalf("fires = %d, want 3", fires)
	}
}

func TestTickerDoubleStartIsNoOp(t *testing.T) {
	k := NewKernel()
	fires := 0
	tk := NewTicker(k, 1, "tick", func(Time) { fires++ })
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	k.Run(2)
	if fires != 2 {
		t.Fatalf("fires = %d, want 2 (double Start must not double-fire)", fires)
	}
}

// Property: for any set of random timestamps, execution order is sorted and
// the executed count equals the scheduled count.
func TestPropertyExecutionSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		k := NewKernel()
		var got []Time
		for _, r := range raw {
			at := Time(r)
			if _, err := k.Schedule(at, "p", func() { got = append(got, at) }); err != nil {
				return false
			}
		}
		k.RunAll()
		if len(got) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the uncancelled
// events to run.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		k := NewKernel()
		n := 1 + rng.Intn(100)
		ran := 0
		ids := make([]EventID, n)
		for i := 0; i < n; i++ {
			id, err := k.Schedule(Time(rng.Intn(50)), "p", func() { ran++ })
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		cancelled := 0
		for _, id := range ids {
			if rng.Intn(2) == 0 {
				if k.Cancel(id) {
					cancelled++
				}
			}
		}
		k.RunAll()
		if ran != n-cancelled {
			t.Fatalf("trial %d: ran %d, want %d", trial, ran, n-cancelled)
		}
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 1000; j++ {
			if _, err := k.Schedule(Time(j%37), "b", func() {}); err != nil {
				b.Fatal(err)
			}
		}
		k.RunAll()
	}
}
