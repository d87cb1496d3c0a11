package supervise

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
)

func TestSpawnRecoversPanic(t *testing.T) {
	proc := Spawn("boom", func() { panic("kaboom") })
	select {
	case <-proc.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("proc never finished")
	}
	if proc.Alive() {
		t.Fatal("proc still reported alive")
	}
	err := proc.Err()
	if err == nil {
		t.Fatal("panic was not recorded")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PanicError", err)
	}
	if pe.Child != "boom" || pe.Value != "kaboom" {
		t.Fatalf("unexpected panic error: %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
}

func TestSpawnCleanExit(t *testing.T) {
	ran := make(chan struct{})
	proc := Spawn("ok", func() { close(ran) })
	<-ran
	proc.Stop()
	if proc.Err() != nil {
		t.Fatalf("clean exit recorded an error: %v", proc.Err())
	}
	if proc.Restarts() != 0 {
		t.Fatalf("one-shot proc restarted %d times", proc.Restarts())
	}
}

func TestSupervisorRestartsOnPanic(t *testing.T) {
	fc := obs.NewFakeClock()
	defer fc.AutoAdvance()()
	sup := NewSupervisor("test", Policy{Restart: true, MaxRestarts: 5, Clock: fc})
	reg := obs.NewRegistry()
	sup.AttachMetrics(reg)

	var runs atomic.Int32
	proc := sup.Spawn("flappy", func(stop <-chan struct{}) {
		if runs.Add(1) <= 2 {
			panic("transient")
		}
		<-stop
	})
	// Wait for the third (stable) run to be entered.
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if runs.Load() < 3 {
		t.Fatalf("child ran %d times, want 3", runs.Load())
	}
	if got := proc.Restarts(); got != 2 {
		t.Fatalf("Restarts() = %d, want 2", got)
	}
	if !proc.Alive() {
		t.Fatal("stable child not reported alive")
	}
	proc.Stop()
	st := sup.Stats()
	if st.Panics != 2 || st.Restarts != 2 || st.GiveUps != 0 {
		t.Fatalf("stats = %+v, want 2 panics / 2 restarts / 0 giveups", st)
	}
	if got := reg.Counter("supervise_restarts_total", "child", "flappy").Value(); got != 2 {
		t.Fatalf("supervise_restarts_total = %v, want 2", got)
	}
}

func TestSupervisorGivesUpAndEscalates(t *testing.T) {
	fc := obs.NewFakeClock()
	defer fc.AutoAdvance()()
	sup := NewSupervisor("test", Policy{Restart: true, MaxRestarts: 2, Clock: fc})

	var mu sync.Mutex
	var exits []Exit
	sup.OnGiveUp(func(e Exit) {
		mu.Lock()
		exits = append(exits, e)
		mu.Unlock()
	})
	proc := sup.Spawn("doomed", func(stop <-chan struct{}) { panic("always") })
	select {
	case <-proc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("supervisor never gave up")
	}
	if got := sup.Stats().GiveUps; got != 1 {
		t.Fatalf("GiveUps = %d after budget exhaustion, want 1", got)
	}
	if got := proc.Restarts(); got != 2 {
		t.Fatalf("Restarts() = %d, want 2 (the budget)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(exits) != 1 {
		t.Fatalf("OnGiveUp called %d times, want 1", len(exits))
	}
	if exits[0].Name != "doomed" || exits[0].Restarts != 2 || exits[0].Err == nil {
		t.Fatalf("unexpected exit: %+v", exits[0])
	}
}

func TestSupervisorNoRestartPolicy(t *testing.T) {
	sup := NewSupervisor("test", Policy{Restart: false})
	gaveUp := make(chan Exit, 1)
	sup.OnGiveUp(func(e Exit) { gaveUp <- e })
	proc := sup.Spawn("once", func(stop <-chan struct{}) { panic("first strike") })
	select {
	case e := <-gaveUp:
		if e.Restarts != 0 {
			t.Fatalf("no-restart policy burned %d restarts", e.Restarts)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no escalation under Restart:false")
	}
	<-proc.Done()
}

func TestSupervisorStopDuringBackoff(t *testing.T) {
	fc := obs.NewFakeClock() // no AutoAdvance: backoff sleep parks forever
	sup := NewSupervisor("test", Policy{Restart: true, MaxRestarts: 8, BaseDelay: time.Hour, Clock: fc})
	entered := make(chan struct{})
	proc := sup.Spawn("parked", func(stop <-chan struct{}) {
		close(entered)
		panic("crash into backoff")
	})
	<-entered
	// Wait until the supervisor is parked on the backoff timer.
	deadline := time.Now().Add(2 * time.Second)
	for fc.Waiters() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { proc.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not interrupt the backoff sleep")
	}
}

func TestSupervisorWindowRecoversBudget(t *testing.T) {
	fc := obs.NewFakeClock()
	defer fc.AutoAdvance()()
	// Budget of 1 restart per 50ms window; a child that crashes once,
	// then stays up past the window, may crash again without give-up.
	sup := NewSupervisor("test", Policy{
		Restart: true, MaxRestarts: 1, Window: 50 * time.Millisecond,
		BaseDelay: time.Millisecond, Clock: fc,
	})
	var runs atomic.Int32
	proc := sup.Spawn("slow-flap", func(stop <-chan struct{}) {
		n := runs.Add(1)
		if n >= 4 {
			<-stop
			return
		}
		// Stay "up" long enough for the previous crash to age out.
		fc.Sleep(200 * time.Millisecond)
		panic("periodic")
	})
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if runs.Load() < 4 {
		t.Fatalf("child ran %d times, want 4 (window should refill the budget)", runs.Load())
	}
	if got := sup.Stats().GiveUps; got != 0 {
		t.Fatalf("supervisor gave up %d times despite crashes aging out of the window", got)
	}
	proc.Stop()
}
