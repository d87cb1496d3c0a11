package agent

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
)

// --- satellite regressions -------------------------------------------------

// TestCallRejectsStrayBroadcast: an uncorrelated envelope (InReplyTo 0)
// must not satisfy a pending Call. Before the fix, any broadcast arriving
// at the ephemeral caller completed the conversation with the wrong body.
func TestCallRejectsStrayBroadcast(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	err := p.Register("noisy", HandlerFunc(func(env Envelope, ctx *Context) {
		// Reply with an unrelated broadcast instead of a correlated reply.
		stray, err := NewEnvelope(ctx.Self, env.From, "inform", "spam", "not-your-reply")
		if err != nil {
			return
		}
		_ = ctx.Send(stray) // InReplyTo stays 0
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Call(p, "noisy", "request", "o", "hi", 100*time.Millisecond)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout (stray broadcast must not match)", err)
	}
}

// TestCallSkipsStrayThenAcceptsExactReply: the stray arrives first, the
// real reply second; Call must wait through the stray and return the
// correlated one.
func TestCallSkipsStrayThenAcceptsExactReply(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	err := p.Register("mixed", HandlerFunc(func(env Envelope, ctx *Context) {
		stray, _ := NewEnvelope(ctx.Self, env.From, "inform", "spam", "noise")
		_ = ctx.Send(stray)
		r, err := env.Reply("inform", "real")
		if err != nil {
			return
		}
		_ = ctx.Send(r)
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := Call(p, "mixed", "request", "o", "hi", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var body string
	if err := reply.Decode(&body); err != nil || body != "real" {
		t.Fatalf("body = %q err=%v, want the correlated reply", body, err)
	}
}

// TestRemoveRoute: an uninstalled route must stop receiving traffic.
func TestRemoveRoute(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	var accepted int
	id := p.AddRoute(func(env Envelope) bool {
		accepted++
		return true
	})
	env, _ := NewEnvelope("a", "remote", "inform", "o", nil)
	if err := p.Send(env); err != nil {
		t.Fatal(err)
	}
	if !p.RemoveRoute(id) {
		t.Fatal("RemoveRoute reported the route missing")
	}
	if p.RemoveRoute(id) {
		t.Fatal("double removal should report false")
	}
	env2, _ := NewEnvelope("a", "remote", "inform", "o", nil)
	if err := p.Send(env2); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("send after removal = %v, want ErrUnknownAgent", err)
	}
	if accepted != 1 {
		t.Fatalf("route saw %d envelopes after removal", accepted)
	}
}

// routeCount reports how many gateway routes p has installed.
func routeCount(p *Platform) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.routes)
}

// TestLinkCloseRemovesRoute: the satellite bug — Link.Close used to leave
// the dead route installed on the platform forever.
func TestLinkCloseRemovesRoute(t *testing.T) {
	server := NewPlatform("server")
	defer server.Close()
	gw, err := ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	client := NewPlatform("client")
	defer client.Close()
	link, err := Dial(client, gw.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if routeCount(client) != 1 {
		t.Fatalf("routes = %d before close", routeCount(client))
	}
	link.Close()
	if routeCount(client) != 0 {
		t.Fatalf("routes = %d after Link.Close, want 0 (route leak)", routeCount(client))
	}
}

// TestGatewayCloseRemovesRoute mirrors the link fix on the server side.
func TestGatewayCloseRemovesRoute(t *testing.T) {
	server := NewPlatform("server")
	defer server.Close()
	gw, err := ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if routeCount(server) != 1 {
		t.Fatalf("routes = %d", routeCount(server))
	}
	gw.Close()
	if routeCount(server) != 0 {
		t.Fatalf("routes = %d after Gateway.Close, want 0", routeCount(server))
	}
}

// reentrantDeputy queries its parent DisconnectionDeputy from inside
// Deliver — the shape that deadlocked when SetConnected flushed while
// holding d.mu.
type reentrantDeputy struct {
	mu  sync.Mutex
	dd  *DisconnectionDeputy
	got []Envelope
}

func (r *reentrantDeputy) Deliver(env Envelope) error {
	if r.dd != nil {
		_ = r.dd.Buffered() // re-enters the deputy's lock
	}
	r.mu.Lock()
	r.got = append(r.got, env)
	r.mu.Unlock()
	return nil
}

func TestDisconnectionDeputyReentrantFlush(t *testing.T) {
	next := &reentrantDeputy{}
	dd := NewDisconnectionDeputy(next)
	next.dd = dd
	dd.SetConnected(false)
	for i := 0; i < 3; i++ {
		if err := dd.Deliver(Envelope{Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan int, 1)
	go func() { done <- dd.SetConnected(true) }()
	select {
	case flushed := <-done:
		if flushed != 3 {
			t.Fatalf("flushed = %d, want 3", flushed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SetConnected deadlocked against a re-entrant deputy")
	}
	next.mu.Lock()
	defer next.mu.Unlock()
	for i, env := range next.got {
		if env.Seq != uint64(i+1) {
			t.Fatalf("flush order broken: %v", next.got)
		}
	}
}

// TestDisconnectionDeputyFlushFailureKeepsTail: a mid-flush delivery
// failure must keep the undelivered tail buffered, in order.
func TestDisconnectionDeputyFlushFailureKeepsTail(t *testing.T) {
	base := &inbox{p: NewPlatform("test"), replies: make(chan Envelope, 2)}
	dd := NewDisconnectionDeputy(base)
	dd.SetConnected(false)
	for i := 0; i < 5; i++ {
		if err := dd.Deliver(Envelope{Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Only 2 fit in the mailbox.
	if flushed := dd.SetConnected(true); flushed != 2 {
		t.Fatalf("flushed = %d, want 2", flushed)
	}
	if dd.Buffered() != 3 {
		t.Fatalf("buffered = %d, want the 3-envelope tail", dd.Buffered())
	}
}

// gateDeputy records the sequence numbers it is handed, and holds its first
// hand-off until release is closed.
type gateDeputy struct {
	calls            atomic.Int64
	entered, release chan struct{}
	mu               sync.Mutex
	got              []uint64
}

func (g *gateDeputy) Deliver(env Envelope) error {
	if g.calls.Add(1) == 1 {
		close(g.entered)
		<-g.release
	}
	g.mu.Lock()
	g.got = append(g.got, env.Seq)
	g.mu.Unlock()
	return nil
}

// TestDisconnectionDeputyTailIsNotOvertaken: a connected deputy never hands
// on an envelope ahead of one it already holds — neither ahead of the tail a
// failed flush left queued, nor ahead of what a flush is still handing on.
func TestDisconnectionDeputyTailIsNotOvertaken(t *testing.T) {
	base := &inbox{p: NewPlatform("test"), replies: make(chan Envelope, 2)}
	dd := NewDisconnectionDeputy(base)
	dd.SetConnected(false)
	for i := 1; i <= 5; i++ {
		if err := dd.Deliver(Envelope{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if flushed := dd.SetConnected(true); flushed != 2 {
		t.Fatalf("flushed = %d, want 2", flushed)
	}
	var got []uint64
	take := func(n int) {
		for ; n > 0; n-- {
			select {
			case env := <-base.replies:
				got = append(got, env.Seq)
			default:
				t.Fatalf("nothing more was handed on; got %v", got)
			}
		}
	}
	take(2)
	// Connected with 3..5 queued: seq 6 goes behind them, and its
	// delivery hands the tail on until the inbox is full again.
	if err := dd.Deliver(Envelope{Seq: 6}); err != nil {
		t.Fatal(err)
	}
	take(2)
	if flushed := dd.SetConnected(true); flushed != 2 {
		t.Fatalf("second flush = %d, want 2", flushed)
	}
	take(2)
	if want := []uint64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("handed on %v, want %v", got, want)
	}

	// A delivery racing the flush: the flush is inside its first
	// hand-off, so the deputy already says it is connected.
	gate := &gateDeputy{entered: make(chan struct{}), release: make(chan struct{})}
	dd = NewDisconnectionDeputy(gate)
	dd.SetConnected(false)
	for i := 1; i <= 3; i++ {
		if err := dd.Deliver(Envelope{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flushed := make(chan int, 1)
	go func() { flushed <- dd.SetConnected(true) }()
	<-gate.entered
	if err := dd.Deliver(Envelope{Seq: 4}); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	<-flushed
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if want := []uint64{1, 2, 3, 4}; !reflect.DeepEqual(gate.got, want) {
		t.Fatalf("handed on %v, want %v", gate.got, want)
	}
	if n := dd.Buffered(); n != 0 {
		t.Fatalf("buffered = %d after the flush", n)
	}
}

// TestDisconnectionDeputyConcurrentSendersKeepOrder: senders racing a
// device that keeps flapping each see their own envelopes handed on in
// order, and every envelope is handed on or refused, none twice.
func TestDisconnectionDeputyConcurrentSendersKeepOrder(t *testing.T) {
	gate := &gateDeputy{entered: make(chan struct{}), release: make(chan struct{})}
	close(gate.release) // a plain recorder
	dd := NewDisconnectionDeputy(gate)
	const senders, each = 4, 200
	var refused atomic.Int64
	stop, flapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flapped)
		for up := false; ; up = !up {
			select {
			case <-stop:
				return
			default:
			}
			dd.SetConnected(up)
		}
	}()
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				if err := dd.Deliver(Envelope{Seq: uint64(s*1000 + i)}); err != nil {
					refused.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	<-flapped
	dd.SetConnected(true)
	gate.mu.Lock()
	defer gate.mu.Unlock()
	last := map[uint64]uint64{}
	for _, seq := range gate.got {
		if s := seq / 1000; seq <= last[s] {
			t.Fatalf("sender %d: %d handed on after %d", s, seq, last[s])
		}
		last[seq/1000] = seq
	}
	if n := int64(len(gate.got)) + refused.Load(); n != senders*each || dd.Buffered() != 0 {
		t.Fatalf("handed on %d + refused %d of %d, %d still buffered", len(gate.got), refused.Load(), senders*each, dd.Buffered())
	}
}

// gatedConn is a link's connection whose writes wait for open and whose
// reads wait for Close; it records the Seq of every frame written.
type gatedConn struct {
	net.Conn // unused: only Read, Write and Close are called
	open     chan struct{}
	closed   chan struct{}
	once     sync.Once
	mu       sync.Mutex
	got      []uint64
}

func (c *gatedConn) Write(b []byte) (int, error) {
	select {
	case <-c.open:
	case <-c.closed:
		return 0, net.ErrClosed
	}
	env, err := newFrameReader(bytes.NewReader(b)).next()
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.got = append(c.got, env.Seq)
	c.mu.Unlock()
	return len(b), nil
}

func (c *gatedConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *gatedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestLinkConcurrentSendersKeepOrder: senders sharing a live link queue
// behind whichever of them holds the turn, and wait while the queue is full
// instead of evicting; once the peer takes frames again, each sender's
// envelopes are written in order, and all of them are written.
func TestLinkConcurrentSendersKeepOrder(t *testing.T) {
	client := NewPlatform("client")
	defer client.Close()
	conn := &gatedConn{open: make(chan struct{}), closed: make(chan struct{})}
	link := newLink(client, "gated", ReconnectOptions{MaxBuffer: 2}, conn)
	defer link.Close()
	const senders, each = 4, 100
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				env := Envelope{From: "src", To: "sink", Performative: "inform", Seq: uint64(s*1000 + i)}
				if err := client.Send(env); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// One sender's write holds the turn; the queue fills behind it and the
	// other senders wait.
	waitFor(t, "the queue to fill", func() bool { return link.Stats().Buffered == 2 })
	close(conn.open)
	wg.Wait()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	last := map[uint64]uint64{}
	for _, seq := range conn.got {
		if s := seq / 1000; seq <= last[s] {
			t.Fatalf("sender %d: %d written after %d", s, seq, last[s])
		}
		last[seq/1000] = seq
	}
	if st := link.Stats(); len(conn.got) != senders*each || st.Buffered != 0 || st.Overflowed != 0 {
		t.Fatalf("%d of %d written, stats = %+v", len(conn.got), senders*each, st)
	}
}

// --- retry layer -----------------------------------------------------------

// lossyDeputy silently drops the first n deliveries — a deterministic
// stand-in for a lossy radio.
type lossyDeputy struct {
	mu    sync.Mutex
	next  Deputy
	drops int
}

func (l *lossyDeputy) Deliver(env Envelope) error {
	l.mu.Lock()
	drop := l.drops > 0
	if drop {
		l.drops--
	}
	l.mu.Unlock()
	if drop {
		return nil // swallowed, like a lost packet
	}
	return l.next.Deliver(env)
}

func TestCallRetryRecoversFromLoss(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	err := p.Register("flaky", HandlerFunc(func(env Envelope, ctx *Context) {
		r, err := env.Reply("inform", "finally")
		if err != nil {
			return
		}
		_ = ctx.Send(r)
	}), Attributes{}, func(next Deputy) Deputy {
		return &lossyDeputy{next: next, drops: 2}
	})
	if err != nil {
		t.Fatal(err)
	}
	policy := RetryPolicy{
		MaxAttempts:    5,
		BaseDelay:      5 * time.Millisecond,
		MaxDelay:       20 * time.Millisecond,
		AttemptTimeout: 50 * time.Millisecond,
		Seed:           1,
	}
	reply, err := CallRetry(p, "flaky", "request", "o", "hi", 5*time.Second, policy)
	if err != nil {
		t.Fatal(err)
	}
	var body string
	if err := reply.Decode(&body); err != nil || body != "finally" {
		t.Fatalf("body = %q err=%v", body, err)
	}
	if st := p.DeliveryStats(); st.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2 (two attempts were dropped)", st.Retries)
	}
}

func TestCallRetryExhaustsAgainstTotalLoss(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	err := p.Register("void", HandlerFunc(func(Envelope, *Context) {}),
		Attributes{}, func(next Deputy) Deputy {
			return &lossyDeputy{next: next, drops: 1 << 30}
		})
	if err != nil {
		t.Fatal(err)
	}
	// The fake clock runs a wall-clock-scale backoff schedule (seconds of
	// attempt timeout) in microseconds of real time.
	fc := obs.NewFakeClock()
	stop := fc.AutoAdvance()
	defer stop()
	policy := RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond,
		AttemptTimeout: time.Second, Seed: 1, Clock: fc}
	epoch := fc.Now()
	start := time.Now()
	_, err = CallRetry(p, "void", "request", "o", nil, 30*time.Second, policy)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if elapsed := fc.Now().Sub(epoch); elapsed < 3*time.Second {
		t.Fatalf("fake time advanced %v, want >= 3s (three 1s attempts)", elapsed)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("fake-clock retry schedule burned real wall time")
	}
	if st := p.DeliveryStats(); st.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (3 attempts)", st.Retries)
	}
}

func TestCallRetryHonoursOverallDeadline(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	if err := p.Register("mute", HandlerFunc(func(Envelope, *Context) {}), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	fc := obs.NewFakeClock()
	stop := fc.AutoAdvance()
	defer stop()
	policy := RetryPolicy{MaxAttempts: 100, BaseDelay: 10 * time.Millisecond,
		AttemptTimeout: 50 * time.Millisecond, Seed: 1, Clock: fc}
	epoch := fc.Now()
	_, err := CallRetry(p, "mute", "request", "o", nil, time.Second, policy)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v", err)
	}
	// The overall deadline, not MaxAttempts, must have stopped the loop:
	// 100 attempts at 50ms each would need 5s of (fake) time.
	if elapsed := fc.Now().Sub(epoch); elapsed > 1100*time.Millisecond {
		t.Fatalf("ran %v of fake time past a 1s overall deadline", elapsed)
	}
}

func TestSendRetryRecoversWhenMailboxDrains(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	block := make(chan struct{})
	closed := false
	defer func() {
		// Runs before the deferred p.Close(): a Fatal path must not leave
		// the handler parked on block, or Close would never return.
		if !closed {
			close(block)
		}
	}()
	entered := make(chan struct{}, 1)
	if err := p.Register("slow", HandlerFunc(func(Envelope, *Context) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
	}), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	// Prime the worker: once the handler holds a message, no mailbox slot
	// can free up until block is closed, so filling to capacity below makes
	// SendRetry's first attempt fail deterministically.
	prime, _ := NewEnvelope("a", "slow", "inform", "o", "prime")
	if err := p.Send(prime); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Fill the mailbox (64) behind the envelope being handled.
	for i := 0; ; i++ {
		env, _ := NewEnvelope("a", "slow", "inform", "o", i)
		if err := p.Send(env); err != nil {
			break
		}
		if i > 200 {
			t.Fatal("mailbox never filled")
		}
	}
	// Drive the backoff schedule by hand: the first attempt must fail
	// (the handler is still blocked when SendRetry parks its first backoff
	// sleep), which guarantees at least one retry without a wall-clock
	// race. Only then is the handler unblocked, and each manual Advance
	// gives the drain a short real-time window before the next attempt.
	fc := obs.NewFakeClock()
	env, _ := NewEnvelope("a", "slow", "inform", "o", "late")
	policy := RetryPolicy{MaxAttempts: 50, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 50 * time.Millisecond, Seed: 1, Clock: fc}
	done := make(chan error, 1)
	go func() { done <- SendRetry(p, env, time.Hour, policy) }()
	for deadline := time.Now().Add(5 * time.Second); ; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("SendRetry = %v", err)
			}
			if st := p.DeliveryStats(); st.Retries == 0 {
				t.Fatal("expected at least one retry")
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("SendRetry never completed")
		}
		if fc.Waiters() > 0 {
			if !closed {
				close(block)
				closed = true
			}
			time.Sleep(time.Millisecond) // real-time window for the drain
			fc.Advance(time.Minute)
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// --- dead-letter accounting ------------------------------------------------

func TestDeadLetterReasons(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	// no_route
	env, _ := NewEnvelope("a", "ghost", "inform", "o", nil)
	if err := p.Send(env); !errors.Is(err, ErrUnknownAgent) {
		t.Fatal(err)
	}
	// mailbox_full
	block := make(chan struct{})
	defer close(block)
	if err := p.Register("slow", HandlerFunc(func(Envelope, *Context) { <-block }), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	full := false
	for i := 0; i < 200; i++ {
		e, _ := NewEnvelope("a", "slow", "inform", "o", i)
		if err := p.Send(e); errors.Is(err, ErrMailboxFull) {
			full = true
			break
		}
	}
	if !full {
		t.Fatal("mailbox never filled")
	}
	st := p.DeliveryStats()
	if st.Reasons[DropNoRoute] != 1 {
		t.Fatalf("no_route = %d, want 1", st.Reasons[DropNoRoute])
	}
	if st.Reasons[DropMailboxFull] != 1 {
		t.Fatalf("mailbox_full = %d, want 1", st.Reasons[DropMailboxFull])
	}
	if st.DeadLettered != 2 {
		t.Fatalf("stats = %+v", st)
	}
	dls := p.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("retained %d dead letters", len(dls))
	}
	if dls[0].Reason != DropNoRoute || dls[0].Env.To != "ghost" {
		t.Fatalf("oldest dead letter = %+v", dls[0])
	}
}

func TestDeadLetterRingIsBounded(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	n := DefaultDeadLetterCap + 10
	for i := 0; i < n; i++ {
		env, _ := NewEnvelope("a", ID(fmt.Sprintf("ghost-%d", i)), "inform", "o", nil)
		_ = p.Send(env)
	}
	dls := p.DeadLetters()
	if len(dls) != DefaultDeadLetterCap {
		t.Fatalf("ring holds %d, want %d", len(dls), DefaultDeadLetterCap)
	}
	// Oldest retained is the (n-cap)th envelope; newest is the last.
	if dls[0].Env.To != ID(fmt.Sprintf("ghost-%d", n-DefaultDeadLetterCap)) {
		t.Fatalf("oldest retained = %s", dls[0].Env.To)
	}
	if dls[len(dls)-1].Env.To != ID(fmt.Sprintf("ghost-%d", n-1)) {
		t.Fatalf("newest retained = %s", dls[len(dls)-1].Env.To)
	}
	if st := p.DeliveryStats(); st.DeadLettered != uint64(n) {
		t.Fatalf("dead-letter counter = %d, want %d (counter is unbounded)", st.DeadLettered, n)
	}
	if got := p.Metrics().Gauge("agent_dead_letter_depth").Value(); got != DefaultDeadLetterCap {
		t.Fatalf("agent_dead_letter_depth = %v, want %d", got, DefaultDeadLetterCap)
	}
	if got := p.Metrics().Counter("agent_dead_letter_evicted_total").Value(); got != float64(n-DefaultDeadLetterCap) {
		t.Fatalf("agent_dead_letter_evicted_total = %v, want %d", got, n-DefaultDeadLetterCap)
	}
}

// TestHopBudgetStopsRoutingLoop: two platforms whose routes forward to
// each other must not circulate an unroutable envelope forever.
func TestHopBudgetStopsRoutingLoop(t *testing.T) {
	a := NewPlatform("a")
	defer a.Close()
	b := NewPlatform("b")
	defer b.Close()
	// Each route models a transport: increments Hops at ingress of the
	// peer platform, exactly like Gateway.readLoop does.
	a.AddRoute(func(env Envelope) bool {
		env.Hops++
		return b.Send(env) == nil
	})
	b.AddRoute(func(env Envelope) bool {
		env.Hops++
		return a.Send(env) == nil
	})
	env, _ := NewEnvelope("x", "nowhere", "inform", "o", nil)
	_ = a.Send(env) // must terminate
	expired := a.DeliveryStats().Reasons[DropTTLExpired] + b.DeliveryStats().Reasons[DropTTLExpired]
	if expired == 0 {
		t.Fatal("looping envelope was never dropped as ttl_expired")
	}
}

// --- transport failure paths ----------------------------------------------

// TestGatewaySurvivesPeerClosingMidStream: a peer that sends a hostile
// frame — cut short, oversized, of another version or an old JSON line, with
// a string running past its end or an overlong varint — loses its own
// connection, is counted once under its reason, and does not take the
// gateway down.
func TestGatewaySurvivesPeerClosingMidStream(t *testing.T) {
	for _, h := range hostileFrames() {
		t.Run(h.name, func(t *testing.T) {
			server := NewPlatform("server")
			defer server.Close()
			c := newCollector(1)
			if err := server.Register("sink", c, Attributes{}, nil); err != nil {
				t.Fatal(err)
			}
			gw, err := ListenAndServe(server, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()

			conn, err := net.Dial("tcp", gw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(h.data); err != nil {
				t.Fatal(err)
			}
			conn.Close()

			// A well-behaved peer still gets through.
			client := NewPlatform("client")
			defer client.Close()
			link, err := Dial(client, gw.Addr(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer link.Close()
			env, _ := NewEnvelope("polite", "sink", "inform", "o", "hello")
			if err := client.Send(env); err != nil {
				t.Fatal(err)
			}
			got := c.wait(t)
			var body string
			if err := got[0].Decode(&body); err != nil || body != "hello" {
				t.Fatalf("body = %q err=%v", body, err)
			}

			rejected := func() map[string]float64 {
				out := map[string]float64{}
				for k, v := range server.MetricsSnapshot().Counters {
					if strings.HasPrefix(k, "agent_wire_rejected_total") {
						out[k] = v
					}
				}
				return out
			}
			want := map[string]float64{`agent_wire_rejected_total{reason="` + string(h.reason) + `"}`: 1}
			for deadline := time.Now().Add(5 * time.Second); !reflect.DeepEqual(rejected(), want); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("rejections = %v, want %v", rejected(), want)
				}
			}
		})
	}
}

// freeAddr reserves an address and releases it, so a later listener can
// claim it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialReconnectToDeadAddressBuffersAndReplays: dialling an address
// nobody is listening on is not an error — envelopes buffer and replay
// once the gateway appears.
func TestDialReconnectToDeadAddressBuffersAndReplays(t *testing.T) {
	addr := freeAddr(t)

	client := NewPlatform("client")
	defer client.Close()
	link := DialReconnect(client, addr, ReconnectOptions{BaseDelay: 5 * time.Millisecond})
	defer link.Close()

	const n = 5
	for i := 0; i < n; i++ {
		env, _ := NewEnvelope("src", "sink", "inform", "o", i)
		if err := client.Send(env); err != nil {
			t.Fatalf("send while down: %v", err)
		}
	}
	if link.Stats().Buffered != n {
		t.Fatalf("buffered = %d, want %d", link.Stats().Buffered, n)
	}

	server := NewPlatform("server")
	defer server.Close()
	c := newCollector(n)
	if err := server.Register("sink", c, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	gw, err := ListenAndServe(server, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	got := c.wait(t)
	for i, env := range got {
		var v int
		if err := env.Decode(&v); err != nil || v != i {
			t.Fatalf("replay order broken at %d: got %d (err %v)", i, v, err)
		}
		if env.Hops != 1 {
			t.Fatalf("hops = %d after one transport ingress", env.Hops)
		}
	}
	st := link.Stats()
	if st.Replayed != n || st.Connects != 1 || st.Buffered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReconnectAfterGatewayRestartReplaysInOrder: the full disconnect →
// buffer → redial → replay cycle against a restarted gateway, for a link
// from either constructor — Dial only adds the synchronous first connect.
func TestReconnectAfterGatewayRestartReplaysInOrder(t *testing.T) {
	dialers := map[string]func(p *Platform, addr string) (*Link, error){
		"DialReconnect": func(p *Platform, addr string) (*Link, error) {
			return DialReconnect(p, addr, ReconnectOptions{BaseDelay: 5 * time.Millisecond}), nil
		},
		"Dial": func(p *Platform, addr string) (*Link, error) { return Dial(p, addr, nil) },
	}
	for name, dial := range dialers {
		t.Run(name, func(t *testing.T) {
			server := NewPlatform("server")
			defer server.Close()
			c := newCollector(4)
			if err := server.Register("sink", c, Attributes{}, nil); err != nil {
				t.Fatal(err)
			}
			gw, err := ListenAndServe(server, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := gw.Addr()

			client := NewPlatform("client")
			defer client.Close()
			link, err := dial(client, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer link.Close()
			waitFor(t, "initial connect", link.Connected)

			env0, _ := NewEnvelope("src", "sink", "inform", "o", 0)
			if err := client.Send(env0); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "first envelope to land", func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				return len(c.got) == 1
			})

			// Forced disconnect: the gateway goes away with the connection.
			gw.Close()
			waitFor(t, "link to notice the disconnect", func() bool { return !link.Connected() })

			for i := 1; i <= 3; i++ {
				env, _ := NewEnvelope("src", "sink", "inform", "o", i)
				if err := client.Send(env); err != nil {
					t.Fatalf("send while disconnected: %v", err)
				}
			}

			gw2, err := ListenAndServe(server, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer gw2.Close()

			got := c.wait(t)
			for i, env := range got {
				var v int
				if err := env.Decode(&v); err != nil || v != i {
					t.Fatalf("order broken at %d: got %d (err %v); all: %d envelopes", i, v, err, len(got))
				}
			}
			st := link.Stats()
			if st.Connects < 2 {
				t.Fatalf("connects = %d, want a reconnection", st.Connects)
			}
			if st.Replayed != 3 {
				t.Fatalf("replayed = %d, want 3", st.Replayed)
			}
		})
	}
}

// TestReconnectBufferOverflowDeadLetters: the store-and-forward queue is
// bounded; the overflow is accounted, not silent.
func TestReconnectBufferOverflowDeadLetters(t *testing.T) {
	addr := freeAddr(t)
	client := NewPlatform("client")
	defer client.Close()
	link := DialReconnect(client, addr, ReconnectOptions{MaxBuffer: 2, BaseDelay: time.Hour})
	defer link.Close()
	for i := 0; i < 5; i++ {
		env, _ := NewEnvelope("src", "sink", "inform", "o", i)
		if err := client.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	st := link.Stats()
	if st.Buffered != 2 || st.Overflowed != 3 {
		t.Fatalf("stats = %+v", st)
	}
	ds := client.DeliveryStats()
	if ds.Reasons[DropLinkDown] != 3 {
		t.Fatalf("link_down dead letters = %d, want 3", ds.Reasons[DropLinkDown])
	}
	// The oldest envelopes were evicted; the newest two remain queued.
	dls := client.DeadLetters()
	var v int
	if err := dls[0].Env.Decode(&v); err != nil || v != 0 {
		t.Fatalf("first evicted = %d (err %v), want 0", v, err)
	}
}

// TestLinkCloseDeadLettersBuffer: closing a down link accounts
// for what it was still holding.
func TestLinkCloseDeadLettersBuffer(t *testing.T) {
	addr := freeAddr(t)
	client := NewPlatform("client")
	defer client.Close()
	link := DialReconnect(client, addr, ReconnectOptions{BaseDelay: time.Hour})
	env, _ := NewEnvelope("src", "sink", "inform", "o", nil)
	if err := client.Send(env); err != nil {
		t.Fatal(err)
	}
	link.Close()
	link.Close() // idempotent
	if routeCount(client) != 0 {
		t.Fatalf("routes = %d after close", routeCount(client))
	}
	if n := client.DeliveryStats().Reasons[DropLinkDown]; n != 1 {
		t.Fatalf("link_down dead letters = %d, want 1", n)
	}
}
