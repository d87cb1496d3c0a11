package agent

import (
	"sync"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// crashingHandler panics once, on its panicOn-th envelope, and counts
// handled envelopes through the checkpoint hooks — a restarted
// incarnation resumes from the last checkpoint instead of zero.
type crashingHandler struct {
	mu       sync.Mutex
	handled  int
	panicOn  int
	panicked bool
}

func (h *crashingHandler) Handle(env Envelope, ctx *Context) {
	h.mu.Lock()
	h.handled++
	boom := h.handled == h.panicOn && !h.panicked
	if boom {
		h.panicked = true
	}
	h.mu.Unlock()
	if boom {
		panic("injected handler crash")
	}
}

func (h *crashingHandler) Checkpoint() any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.handled
}

func (h *crashingHandler) Restore(snapshot any) {
	h.mu.Lock()
	h.handled = snapshot.(int)
	h.mu.Unlock()
}

func (h *crashingHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.handled
}

func TestAgentRestartsAfterPanicWithCheckpoint(t *testing.T) {
	fc := obs.NewFakeClock()
	defer fc.AutoAdvance()()
	p := NewPlatform("selfheal")
	p.Clock = fc
	defer p.Close()

	h := &crashingHandler{panicOn: 3}
	if err := p.Register("worker", h, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sendTo(t, p, "worker", "x-data"); err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
	}
	// Envelope 3 kills the incarnation mid-handle; supervision restarts
	// the loop, Restore rewinds to the checkpoint taken after envelope 2,
	// and envelopes 4 and 5 land on the fresh incarnation: 2 + 2 = 4.
	deadline := time.Now().Add(5 * time.Second)
	for h.count() != 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := h.count(); got != 4 {
		t.Fatalf("handled = %d, want 4 (checkpoint 2 + 2 post-restart envelopes)", got)
	}
	if !p.AgentAlive("worker") {
		t.Fatal("worker not alive after restart")
	}
	st := p.SupervisionStats()
	if st.Panics != 1 || st.Restarts != 1 || st.GiveUps != 0 {
		t.Fatalf("supervision stats = %+v", st)
	}
	if got := p.Metrics().Counter("supervise_restarts_total", "child", "agent:worker").Value(); got != 1 {
		t.Fatalf("supervise_restarts_total = %v, want 1", got)
	}
}

func TestUnsupervisedAgentEscalates(t *testing.T) {
	p := NewPlatform("baseline")
	p.Supervision = &supervise.Policy{Restart: false}
	downs := make(chan ID, 1)
	p.OnAgentDown = func(id ID, err error) {
		if err == nil {
			t.Error("OnAgentDown with nil error")
		}
		downs <- id
	}
	defer p.Close()
	if err := p.Register("fragile", HandlerFunc(func(env Envelope, ctx *Context) {
		panic("first strike")
	}), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sendTo(t, p, "fragile", "x-data"); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-downs:
		if id != "fragile" {
			t.Fatalf("OnAgentDown id = %q", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("escalation hook never fired")
	}
	if p.AgentAlive("fragile") {
		t.Fatal("unsupervised agent still alive after panic")
	}
	if got := p.SupervisionStats().Restarts; got != 0 {
		t.Fatalf("restarts = %d, want 0 under Restart:false", got)
	}
}

func TestDeliverPanicRecovered(t *testing.T) {
	p := NewPlatform("fence")
	defer p.Close()
	// A decorating deputy that panics on delivery must not kill the
	// sender; the envelope is dead-lettered with deliver_panic.
	err := p.Register("victim", HandlerFunc(func(env Envelope, ctx *Context) {}),
		Attributes{}, func(next Deputy) Deputy {
			return deputyFunc(func(env Envelope) error { panic("bad decorator") })
		})
	if err != nil {
		t.Fatal(err)
	}
	sendErr := sendTo(t, p, "victim", "x-data")
	if sendErr == nil {
		t.Fatal("panicking deputy reported success")
	}
	st := p.DeliveryStats()
	if st.Reasons[DropDeliverPanic] != 1 {
		t.Fatalf("Reasons[deliver_panic] = %d, want 1", st.Reasons[DropDeliverPanic])
	}
}

// deputyFunc adapts a function to Deputy for tests.
type deputyFunc func(env Envelope) error

func (f deputyFunc) Deliver(env Envelope) error { return f(env) }
