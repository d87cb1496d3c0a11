package agent

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pervasivegrid/internal/supervise"
)

// echoHandler replies "pong" to every request.
var echoHandler = HandlerFunc(func(env Envelope, ctx *Context) {
	if r, err := env.Reply("inform", "pong"); err == nil {
		_ = ctx.Send(r)
	}
})

// TestCallIsSingleAttemptCallRetry: Call and CallRetry{MaxAttempts: 1}
// are one conversation loop, so every outcome — and how long a failure
// takes to surface — must agree.
func TestCallIsSingleAttemptCallRetry(t *testing.T) {
	const timeout = 400 * time.Millisecond
	cases := []struct {
		name  string
		setup func(t *testing.T, p *Platform)
		to    ID
		want  error // nil = a "pong" reply
		// atOnce: the only send failed with nothing in flight, so the
		// error must surface without sleeping out the timeout.
		atOnce bool
	}{
		{name: "reply", to: "echo", setup: func(t *testing.T, p *Platform) {
			if err := p.Register("echo", echoHandler, Attributes{}, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "timeout", to: "mute", want: ErrCallTimeout, setup: func(t *testing.T, p *Platform) {
			if err := p.Register("mute", HandlerFunc(func(Envelope, *Context) {}), Attributes{}, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "unknown destination", to: "ghost", want: ErrUnknownAgent, atOnce: true,
			setup: func(*testing.T, *Platform) {}},
		{name: "closed platform", to: "echo", want: ErrClosed, atOnce: true,
			setup: func(_ *testing.T, p *Platform) { p.Close() }},
		{name: "open breaker", to: "ghost", want: ErrCircuitOpen, atOnce: true, setup: func(t *testing.T, p *Platform) {
			p.Breakers = supervise.NewBreakerSet(supervise.BreakerPolicy{FailureThreshold: 1, OpenFor: time.Hour})
			if err := sendTo(t, p, "ghost", "x"); err == nil {
				t.Fatal("send to ghost succeeded")
			}
		}},
	}
	callers := map[string]func(p *Platform, to ID) (Envelope, error){
		"Call": func(p *Platform, to ID) (Envelope, error) {
			return Call(p, to, "request", "o", "ping", timeout)
		},
		"CallRetry": func(p *Platform, to ID) (Envelope, error) {
			return CallRetry(p, to, "request", "o", "ping", timeout, RetryPolicy{MaxAttempts: 1})
		},
	}
	for _, tc := range cases {
		for name, call := range callers {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				p := NewPlatform("test")
				defer p.Close()
				tc.setup(t, p)
				start := time.Now()
				reply, err := call(p, tc.to)
				elapsed := time.Since(start)
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				if tc.want == nil {
					var body string
					if err := reply.Decode(&body); err != nil || body != "pong" {
						t.Fatalf("body = %q err=%v", body, err)
					}
				}
				if tc.atOnce && elapsed > timeout/2 {
					t.Fatalf("failed only-send took %v to surface (timeout %v)", elapsed, timeout)
				}
				if errors.Is(tc.want, ErrCallTimeout) && elapsed < timeout {
					t.Fatalf("timed out after %v, before the %v timeout", elapsed, timeout)
				}
				if n := p.DeliveryStats().Retries; n != 0 {
					t.Fatalf("retries = %d on a single-attempt conversation", n)
				}
			})
		}
	}
}

// heapAfterGC reads the live heap once garbage is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mailboxGauges counts the per-agent agent_mailbox_depth series.
func mailboxGauges(p *Platform) int {
	n := 0
	for k := range p.MetricsSnapshot().Gauges {
		if strings.HasPrefix(k, "agent_mailbox_depth") {
			n++
		}
	}
	return n
}

// TestConversationsLeaveNothingBehind: a completed conversation must not
// pin memory. Caller IDs are recycled, so what other layers key by agent ID
// (gateway reverse routes, mailbox gauges) is bounded by concurrency, and
// the deadline timer of a conversation the reply won is collectable.
func TestConversationsLeaveNothingBehind(t *testing.T) {
	const maxGrowth = 2 << 20
	local, remote := 50_000, 10_000
	if testing.Short() {
		local, remote = 5_000, 1_000
	}
	server := NewPlatform("server")
	defer server.Close()
	if err := server.Register("echo", echoHandler, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
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
	defer link.Close()

	converse := func(p *Platform, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := Call(p, "echo", "request", "o", "ping", 10*time.Second); err != nil {
				t.Fatalf("conversation %d: %v", i, err)
			}
		}
	}
	rememberedIDs := func() int {
		gw.mu.Lock()
		defer gw.mu.Unlock()
		return len(gw.routes)
	}
	// Warm both paths so lazily built state (supervisor, metric series,
	// socket buffers) is in the baseline.
	converse(server, 100)
	converse(client, 100)

	base := heapAfterGC()
	converse(server, local)
	if grown := int64(heapAfterGC()) - int64(base); grown > maxGrowth {
		t.Errorf("heap grew %d bytes over %d in-process conversations", grown, local)
	}
	base = heapAfterGC()
	converse(client, remote)
	if grown := int64(heapAfterGC()) - int64(base); grown > maxGrowth {
		t.Errorf("heap grew %d bytes over %d TCP conversations", grown, remote)
	}
	if n := rememberedIDs(); n > 2 {
		t.Errorf("gateway remembers %d caller IDs after sequential conversations", n)
	}
	// One series per hosted agent; a conversation has no mailbox to gauge.
	if n := mailboxGauges(server); n != 1 {
		t.Errorf("server holds %d agent_mailbox_depth series, want echo's", n)
	}
	if n := mailboxGauges(client); n != 0 {
		t.Errorf("client holds %d agent_mailbox_depth series, want none", n)
	}
	// The reverse routes go with the connection they point at.
	link.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rememberedIDs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gateway still routes %d IDs after the link closed", rememberedIDs())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConversationIsNotAnAgent: a conversation costs a deputy, not an
// agent. While its request is being handled the caller has no run loop, no
// supervised child and no goroutine of its own, and a thousand of them
// leave the goroutine count and the supervisor where they started.
func TestConversationIsNotAnAgent(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	var inFlight atomic.Int64 // most goroutines seen from inside a handler
	err := p.Register("echo", HandlerFunc(func(env Envelope, ctx *Context) {
		p.mu.RLock()
		reg := p.agents[env.From]
		p.mu.RUnlock()
		if reg == nil || reg.deputy == nil {
			t.Errorf("conversation %s has no deputy while its request is handled", env.From)
		} else if reg.proc != nil || p.AgentAlive(env.From) {
			t.Errorf("conversation %s runs as a supervised agent", env.From)
		}
		if n := int64(runtime.NumGoroutine()); n > inFlight.Load() {
			inFlight.Store(n)
		}
		echoHandler(env, ctx)
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	goroutines, stats := runtime.NumGoroutine(), p.SupervisionStats()
	for i := 0; i < 1000; i++ {
		if _, err := Call(p, "echo", "request", "o", "ping", 10*time.Second); err != nil {
			t.Fatalf("conversation %d: %v", i, err)
		}
	}
	if got := inFlight.Load(); got > int64(goroutines) {
		t.Errorf("%d goroutines during a conversation, %d before it", got, goroutines)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("goroutines %d -> %d over 1000 conversations", goroutines, got)
	}
	if got := p.SupervisionStats(); got != stats {
		t.Errorf("supervision stats %+v -> %+v", stats, got)
	}
}

// TestConcurrentCallsSurviveLateReplies: sixteen callers share an echo
// agent that answers every request twice, and an injector re-sends each
// answer later still — at a caller ID that by then is closed, closing, or
// recycled to another conversation. Nothing may panic, every conversation
// gets the reply to its own request, and a late reply is refused (no_route,
// a full inbox) or queued where await rejects it by sequence number. The
// callers retry: strays can fill an inbox before its conversation reads,
// and the real reply is then refused — counted, and re-requested.
func TestConcurrentCallsSurviveLateReplies(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	late := make(chan Envelope, 256) // handed to the injector; overflow is just fewer injections
	err := p.Register("echo", HandlerFunc(func(env Envelope, ctx *Context) {
		var body string
		if err := env.Decode(&body); err != nil {
			t.Errorf("request body: %v", err)
			return
		}
		r, err := env.Reply("inform", body)
		if err != nil {
			t.Errorf("reply: %v", err)
			return
		}
		_ = ctx.Send(r)
		_ = ctx.Send(r) // races the conversation closing
		select {
		case late <- r:
		default:
		}
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	injected := make(chan struct{})
	go func() {
		defer close(injected)
		for r := range late {
			err := p.Send(r)
			if err != nil && !errors.Is(err, ErrUnknownAgent) && !errors.Is(err, ErrMailboxFull) {
				t.Errorf("late reply to %s: %v", r.To, err)
			}
		}
	}()
	const callers, each = 16, 50
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				want := fmt.Sprintf("caller %d request %d", c, i)
				reply, err := CallRetry(p, "echo", "request", "o", want, 10*time.Second,
					RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, AttemptTimeout: 100 * time.Millisecond})
				if err != nil {
					t.Errorf("%s: %v", want, err)
					return
				}
				var got string
				if err := reply.Decode(&got); err != nil || got != want {
					t.Errorf("%s answered %q (err %v)", want, got, err)
				}
			}
		}()
	}
	wg.Wait()
	p.Deregister("echo") // drains its mailbox: no handler sends on late after this
	close(late)
	<-injected
	st := p.DeliveryStats()
	if st.Reasons[DropNoRoute] == 0 {
		t.Errorf("no late reply found its conversation closed: %+v", st)
	}
	if st.DeadLettered != st.Reasons[DropNoRoute]+st.Reasons[DropMailboxFull] || st.Shed != st.Reasons[DropMailboxFull] {
		t.Errorf("a late reply was lost some other way: %+v", st)
	}
}

// TestCallerIDsDoNotCollideAcrossProcesses: two processes each number their
// conversations from one, so the caller IDs they mint must still differ, or
// the gateway's reverse route (keyed by sender, last sender wins) hands one
// client's reply to the other. Resetting callCounter between the two client
// platforms makes them mint as two processes would.
func TestCallerIDsDoNotCollideAcrossProcesses(t *testing.T) {
	server := NewPlatform("server")
	defer server.Close()
	// The echo holds each request until both have arrived, so both reverse
	// routes are learned before either reply is sent.
	var held []Envelope
	err := server.Register("echo", HandlerFunc(func(env Envelope, ctx *Context) {
		if held = append(held, env); len(held) < 2 {
			return
		}
		for _, req := range held {
			var who string
			_ = req.Decode(&who)
			if r, err := req.Reply("inform", who); err == nil {
				_ = ctx.Send(r)
			}
		}
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	type result struct {
		want string
		got  Envelope
		err  error
	}
	results := make(chan result, 2)
	for _, name := range []string{"handheld-a", "handheld-b"} {
		client := NewPlatform(name)
		defer client.Close()
		link, err := Dial(client, gw.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()
		// Mint this process's first caller ID now and leave it idle, so the
		// Call below takes it from the free list.
		callCounter.Store(0)
		in, err := client.openInbox(1)
		if err != nil {
			t.Fatal(err)
		}
		in.close()
		go func() {
			got, err := Call(client, "echo", "request", "o", name, 2*time.Second)
			results <- result{name, got, err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("%s: %v", r.want, r.err)
		}
		var body string
		if err := r.got.Decode(&body); err != nil || body != r.want {
			t.Fatalf("%s received the reply to %s", r.want, body)
		}
	}
}
