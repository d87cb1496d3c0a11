package agent

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// gatedHandler blocks its first envelope on gate (signalling first when
// it enters), then records the Seq of every envelope it handles.
type gatedHandler struct {
	first chan struct{}
	gate  chan struct{}
	once  sync.Once

	mu  sync.Mutex
	got []uint64
}

func newGatedHandler() *gatedHandler {
	return &gatedHandler{first: make(chan struct{}), gate: make(chan struct{})}
}

func (h *gatedHandler) Handle(env Envelope, ctx *Context) {
	h.once.Do(func() {
		close(h.first)
		<-h.gate
	})
	h.mu.Lock()
	h.got = append(h.got, env.Seq)
	h.mu.Unlock()
}

func (h *gatedHandler) seqs() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.got...)
}

func (h *gatedHandler) waitFor(t *testing.T, n int) []uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := h.seqs(); len(got) >= n {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("handled %d envelopes, want %d", len(h.seqs()), n)
	return nil
}

// pumpUntil drives a fake clock in small steps from the test goroutine,
// yielding a sliver of real time between steps, until done yields. On a
// single-P scheduler AutoAdvance can burn a whole retry schedule in one
// time slice without the handler goroutines ever running; the explicit
// yield makes success-path conversations deterministic.
func pumpUntil[T any](t *testing.T, fc *obs.FakeClock, done <-chan T) T {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case v := <-done:
			return v
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("pumpUntil: timed out")
		}
		fc.Advance(5 * time.Millisecond)
		time.Sleep(50 * time.Microsecond)
	}
}

func sendTo(t *testing.T, p *Platform, to ID, ontology string) error {
	t.Helper()
	env, err := NewEnvelope("tester", to, "inform", ontology, "payload")
	if err != nil {
		t.Fatal(err)
	}
	return p.Send(env)
}

func TestDropNewestOverflow(t *testing.T) {
	p := NewPlatform("overflow")
	p.Mailbox = MailboxOptions{Capacity: 2, Policy: DropNewest}
	defer p.Close()
	h := newGatedHandler()
	if err := p.Register("slow", h, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sendTo(t, p, "slow", "x-data"); err != nil {
		t.Fatal(err)
	}
	<-h.first // the handler is now wedged on its first envelope
	for i := 0; i < 2; i++ {
		if err := sendTo(t, p, "slow", "x-data"); err != nil {
			t.Fatalf("fill send %d: %v", i, err)
		}
	}
	err := sendTo(t, p, "slow", "x-data")
	if !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("overflow send: err = %v, want ErrMailboxFull", err)
	}
	st := p.DeliveryStats()
	if st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
	if st.Reasons[DropMailboxFull] != 1 {
		t.Fatalf("Reasons[mailbox_full] = %d, want 1", st.Reasons[DropMailboxFull])
	}
	if got := p.Metrics().Counter("agent_shed_total", "policy", "drop-newest").Value(); got != 1 {
		t.Fatalf("agent_shed_total = %v, want 1", got)
	}
	close(h.gate)
	h.waitFor(t, 3)
}

func TestDropOldestEvictsAndDeadLetters(t *testing.T) {
	p := NewPlatform("evict")
	p.Mailbox = MailboxOptions{Capacity: 4, Policy: DropOldest}
	defer p.Close()
	h := newGatedHandler()
	if err := p.Register("slow", h, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	// Seq 1 wedges the handler; 2–5 fill the lane; 6–8 evict 2–4.
	for i := 0; i < 8; i++ {
		if err := sendTo(t, p, "slow", "x-data"); err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
		if i == 0 {
			<-h.first
		}
	}
	close(h.gate)
	got := h.waitFor(t, 5)
	want := []uint64{1, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("handled %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("handled %v, want %v (oldest not evicted)", got, want)
		}
	}
	st := p.DeliveryStats()
	if st.Shed != 3 {
		t.Fatalf("Shed = %d, want 3", st.Shed)
	}
	if st.Reasons[DropShedOldest] != 3 {
		t.Fatalf("Reasons[shed_oldest] = %d, want 3", st.Reasons[DropShedOldest])
	}
	// The evicted envelopes are retained for post-mortem.
	letters := p.DeadLetters()
	if len(letters) != 3 {
		t.Fatalf("dead letters = %d, want 3", len(letters))
	}
	for _, dl := range letters {
		if dl.Reason != DropShedOldest {
			t.Fatalf("dead letter reason = %s, want shed_oldest", dl.Reason)
		}
	}
}

func TestBlockPolicyBackpressure(t *testing.T) {
	p := NewPlatform("block")
	p.Mailbox = MailboxOptions{Capacity: 1, Policy: Block}
	defer p.Close()
	h := newGatedHandler()
	if err := p.Register("slow", h, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sendTo(t, p, "slow", "x-data"); err != nil {
		t.Fatal(err)
	}
	<-h.first
	if err := sendTo(t, p, "slow", "x-data"); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- sendTo(t, p, "slow", "x-data") }()
	select {
	case err := <-blocked:
		t.Fatalf("send did not block on a full lane (err = %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(h.gate)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked send failed after space freed: %v", err)
	}
	h.waitFor(t, 3)
	if st := p.DeliveryStats(); st.Shed != 0 {
		t.Fatalf("Block policy shed %d envelopes, want 0", st.Shed)
	}
}

// parkSenders hosts "slow" under Block with a lane of capacity lane,
// wedges it on its first envelope, fills the lane, and starts n more
// senders, which must park. Their results arrive on errs; release
// un-wedges the handler, and runs at cleanup if the test has not called it.
func parkSenders(t *testing.T, lane, n int, wrap func(Deputy) Deputy) (p *Platform, h *gatedHandler, errs <-chan error, release func()) {
	t.Helper()
	p = NewPlatform("block")
	p.Mailbox = MailboxOptions{Capacity: lane, Policy: Block}
	h = newGatedHandler()
	release = sync.OnceFunc(func() { close(h.gate) })
	t.Cleanup(p.Close)
	t.Cleanup(release) // first: Close waits for the wedged handler
	if err := p.Register("slow", h, Attributes{}, wrap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= lane; i++ {
		if err := sendTo(t, p, "slow", "x-data"); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-h.first
		}
	}
	env, err := NewEnvelope("tester", "slow", "inform", "x-data", "payload")
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { results <- p.Send(env) }()
	}
	select {
	case err := <-results:
		t.Fatalf("send did not park on a full lane (err = %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	return p, h, results, release
}

// TestBlockWakesEveryParkedSender: senders parked on a full lane are all
// admitted once the agent drains, with no further delivery to wake them.
// Two slots can free up before one room signal is consumed; a single-token
// signal that loses the second strands a sender for good.
func TestBlockWakesEveryParkedSender(t *testing.T) {
	const lane, parked = 2, 4
	_, h, errs, release := parkSenders(t, lane, parked, nil)
	release()
	for i := 0; i < parked; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("parked send failed after the agent drained: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d parked senders never admitted", parked-i, parked)
		}
	}
	h.waitFor(t, 1+lane+parked)
}

// TestDeregisterReleasesParkedSenders: stopping an agent releases every
// sender parked on its full lane with the transient ErrMailboxFull.
func TestDeregisterReleasesParkedSenders(t *testing.T) {
	const parked = 3
	p, _, errs, release := parkSenders(t, 1, parked, nil)
	stopped := make(chan struct{})
	go func() {
		p.Deregister("slow") // waits for the wedged handler
		close(stopped)
	}()
	for i := 0; i < parked; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrMailboxFull) {
				t.Fatalf("parked send on a stopping agent: err = %v, want ErrMailboxFull", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d parked senders still parked after Deregister", parked-i, parked)
		}
	}
	// Each release is dead-lettered mailbox_full, and so is shed.
	if st := p.DeliveryStats(); st.Reasons[DropMailboxFull] != parked || st.Shed != parked {
		t.Fatalf("mailbox_full = %d, Shed = %d, want %d each", st.Reasons[DropMailboxFull], st.Shed, parked)
	}
	release()
	<-stopped
}

// TestDisconnectionDeputyForwardsUnlocked: a sender parked in the mailbox
// behind a DisconnectionDeputy does not hold the deputy's lock, so its
// other callers are not wedged with it.
func TestDisconnectionDeputyForwardsUnlocked(t *testing.T) {
	var dd *DisconnectionDeputy
	_, h, errs, release := parkSenders(t, 1, 1, func(next Deputy) Deputy {
		dd = NewDisconnectionDeputy(next)
		return dd
	})
	done := make(chan int, 1)
	go func() {
		n := dd.Buffered()
		dd.SetConnected(false)
		done <- n
	}()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("Buffered = %d, want 0", n)
		}
	case <-time.After(time.Second):
		t.Fatal("Buffered/SetConnected waited behind a sender parked in the mailbox")
	}
	release()
	if err := <-errs; err != nil {
		t.Fatalf("parked send failed after the agent drained: %v", err)
	}
	h.waitFor(t, 3)
}

// TestDisconnectionDeputyRefusalIsNotShed: a drain the full mailbox refuses
// keeps its envelope at the head of the deputy's queue, so nothing is lost
// and nothing is shed. Shed counts exactly the mailbox_full and shed_oldest
// dead letters.
func TestDisconnectionDeputyRefusalIsNotShed(t *testing.T) {
	p := NewPlatform("held")
	p.Mailbox = MailboxOptions{Capacity: 1, Policy: DropNewest}
	defer p.Close()
	h := newGatedHandler()
	release := sync.OnceFunc(func() { close(h.gate) })
	defer release() // before Close, which waits for the wedged handler
	var dd *DisconnectionDeputy
	err := p.Register("mobile", h, Attributes{}, func(next Deputy) Deputy {
		dd = NewDisconnectionDeputy(next)
		return dd
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sendTo(t, p, "mobile", "x-data"); err != nil {
		t.Fatal(err)
	}
	<-h.first // the handler is wedged; the mailbox has room for one
	dd.SetConnected(false)
	for i := 0; i < 5; i++ {
		if err := sendTo(t, p, "mobile", "x-data"); err != nil {
			t.Fatalf("held send %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		dd.SetConnected(true) // the first drain fills the mailbox, then each is refused
	}
	if n := dd.Buffered(); n != 4 {
		t.Fatalf("Buffered = %d, want 4 held behind the full mailbox", n)
	}
	st := p.DeliveryStats()
	if st.Shed != st.Reasons[DropMailboxFull]+st.Reasons[DropShedOldest] {
		t.Fatalf("Shed = %d, want mailbox_full %d + shed_oldest %d",
			st.Shed, st.Reasons[DropMailboxFull], st.Reasons[DropShedOldest])
	}
	if st.Shed != 0 || st.DeadLettered != 0 {
		t.Fatalf("Shed = %d, DeadLettered = %d: a held envelope was lost", st.Shed, st.DeadLettered)
	}
	release()
	deadline := time.Now().Add(5 * time.Second)
	for dd.Buffered() > 0 && time.Now().Before(deadline) {
		dd.SetConnected(true)
		time.Sleep(time.Millisecond)
	}
	h.waitFor(t, 6)
}

// TestFullInboxRefusesUnderEveryPolicy: a conversation's reply queue is
// not an agent mailbox. Whatever the platform's policy, the envelope that
// does not fit is refused at once — never parked (Block), never admitted by
// evicting a reply (DropOldest) — and is accounted for: every send is
// delivered or shed, and every shed is a mailbox_full dead letter.
func TestFullInboxRefusesUnderEveryPolicy(t *testing.T) {
	const depth = 3
	for _, policy := range []MailboxPolicy{DropNewest, DropOldest, Block} {
		t.Run(policy.String(), func(t *testing.T) {
			p := NewPlatform("inbox")
			p.Mailbox = MailboxOptions{Policy: policy}
			defer p.Close()
			in, err := p.openInbox(depth)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			refused := 0
			for i := 0; i < depth+2; i++ {
				sent := make(chan error, 1)
				go func() { sent <- sendTo(t, p, in.id, "x-data") }()
				select {
				case err := <-sent:
					if errors.Is(err, ErrMailboxFull) {
						refused++
					} else if err != nil {
						t.Fatalf("send %d: %v", i+1, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("send %d parked on a conversation that is not reading", i+1)
				}
			}
			st := p.DeliveryStats()
			if refused != 2 || st.Delivered != depth || st.Shed != 2 ||
				st.Reasons[DropMailboxFull] != 2 || st.DeadLettered != 2 {
				t.Fatalf("refused %d of %d sends, stats %+v; want %d delivered, 2 shed, 2 mailbox_full",
					refused, depth+2, st, depth)
			}
			// The first depth envelopes are the ones queued, in order.
			for want := uint64(1); want <= depth; want++ {
				if got := (<-in.replies).Seq; got != want {
					t.Fatalf("queued seq %d, want %d (a queued reply was evicted)", got, want)
				}
			}
			// An inbox is not a mailbox: shutdown's drain does not wait on it.
			if n := p.QueuedEnvelopes(); n != 0 {
				t.Fatalf("QueuedEnvelopes = %d with only a conversation open", n)
			}
		})
	}
}

func TestPriorityLaneSurvivesSaturation(t *testing.T) {
	p := NewPlatform("priority")
	p.Mailbox = MailboxOptions{Capacity: 2, Policy: DropNewest}
	defer p.Close()
	h := newGatedHandler()
	if err := p.Register("worker", h, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	// Seq 1 wedges the handler, 2–3 saturate the normal lane.
	for i := 0; i < 3; i++ {
		if err := sendTo(t, p, "worker", "x-data"); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-h.first
		}
	}
	if err := sendTo(t, p, "worker", "x-data"); !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("data-plane overflow: err = %v, want ErrMailboxFull", err)
	}
	// Telemetry still gets through on the priority lane (Seq 5)...
	if err := sendTo(t, p, "worker", "pgrid-telemetry-report"); err != nil {
		t.Fatalf("telemetry envelope rejected under saturation: %v", err)
	}
	close(h.gate)
	got := h.waitFor(t, 4)
	// ...and preempts the queued data envelopes.
	want := []uint64{1, 5, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("handled order %v, want %v (priority lane not preferred)", got, want)
		}
	}
}

func TestSendRetryConsultsBreaker(t *testing.T) {
	fc := obs.NewFakeClock()
	defer fc.AutoAdvance()()
	p := NewPlatform("brk")
	p.Clock = fc
	p.Breakers = supervise.NewBreakerSet(supervise.BreakerPolicy{
		FailureThreshold: 3, OpenFor: time.Hour, Clock: fc,
	})
	defer p.Close()
	// Three no-route failures trip the destination's breaker.
	for i := 0; i < 3; i++ {
		if err := sendTo(t, p, "ghost", "x-data"); err == nil {
			t.Fatal("send to ghost succeeded")
		}
	}
	if got := p.Breakers.State("ghost"); got != supervise.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}
	env, err := NewEnvelope("tester", "ghost", "inform", "x-data", "payload")
	if err != nil {
		t.Fatal(err)
	}
	dropped := p.DeliveryStats().DeadLettered
	err = SendRetry(p, env, time.Second, RetryPolicy{MaxAttempts: 3, Seed: 1, Clock: fc})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("SendRetry err = %v, want ErrCircuitOpen", err)
	}
	// The open breaker shed the attempts before they hit the send path.
	if got := p.DeliveryStats().DeadLettered; got != dropped {
		t.Fatalf("breaker-suppressed attempts still dropped envelopes: %d -> %d", dropped, got)
	}
	if got := p.Metrics().Counter("agent_breaker_rejected_total").Value(); got < 3 {
		t.Fatalf("agent_breaker_rejected_total = %v, want >= 3", got)
	}
}

func TestCallRetryCircuitOpenThenHeal(t *testing.T) {
	// No AutoAdvance here: a successful conversation needs the echo
	// handler's goroutine to run between retry attempts, so the test
	// goroutine pumps the clock itself (see pumpUntil).
	fc := obs.NewFakeClock()
	p := NewPlatform("heal")
	p.Clock = fc
	p.Breakers = supervise.NewBreakerSet(supervise.BreakerPolicy{
		FailureThreshold: 1, OpenFor: 10 * time.Millisecond, HalfOpenSuccesses: 1, Clock: fc,
	})
	defer p.Close()
	if err := sendTo(t, p, "echo", "x-data"); err == nil {
		t.Fatal("send to unregistered echo succeeded")
	}
	if got := p.Breakers.State("echo"); got != supervise.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}
	// Register the destination: the cool-down elapses under retry
	// backoff, the half-open probe succeeds, and the call completes.
	err := p.Register("echo", HandlerFunc(func(env Envelope, ctx *Context) {
		reply, err := env.Reply("inform", "pong")
		if err != nil {
			t.Errorf("reply: %v", err)
			return
		}
		if err := ctx.Send(reply); err != nil {
			t.Errorf("send reply: %v", err)
		}
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	type callResult struct {
		reply Envelope
		err   error
	}
	done := make(chan callResult, 1)
	go func() {
		reply, err := CallRetry(p, "echo", "request", "x-data", "ping", 5*time.Second,
			RetryPolicy{MaxAttempts: 6, BaseDelay: 20 * time.Millisecond, Seed: 1, Clock: fc})
		done <- callResult{reply, err}
	}()
	res := pumpUntil(t, fc, done)
	if res.err != nil {
		t.Fatalf("CallRetry through healing breaker: %v", res.err)
	}
	if res.reply.Performative != "inform" {
		t.Fatalf("reply performative = %q", res.reply.Performative)
	}
	if got := p.Breakers.State("echo"); got != supervise.BreakerClosed {
		t.Fatalf("breaker state after heal = %v, want closed", got)
	}
}
