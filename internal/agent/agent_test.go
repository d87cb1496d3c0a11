package agent

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pervasivegrid/internal/leak"
)

// collector is a handler that records envelopes.
type collector struct {
	mu   sync.Mutex
	got  []Envelope
	done chan struct{} // closed after want messages, when set
	want int
}

func newCollector(want int) *collector {
	return &collector{done: make(chan struct{}), want: want}
}

func (c *collector) Handle(env Envelope, ctx *Context) {
	c.mu.Lock()
	c.got = append(c.got, env)
	n := len(c.got)
	c.mu.Unlock()
	if c.want > 0 && n == c.want {
		close(c.done)
	}
}

func (c *collector) wait(t *testing.T) []Envelope {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for envelopes")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Envelope(nil), c.got...)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	type body struct {
		Temp float64 `json:"temp"`
	}
	env, err := NewEnvelope("a", "b", "inform", "building-temp", body{Temp: 42.5})
	if err != nil {
		t.Fatal(err)
	}
	if env.ContentType != "application/json" || env.Ontology != "building-temp" {
		t.Fatalf("envelope meta = %+v", env)
	}
	var out body
	if err := env.Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Temp != 42.5 {
		t.Fatalf("decoded = %+v", out)
	}
	env.ContentType = "text/plain"
	if err := env.Decode(&out); err == nil {
		t.Fatal("decoding non-JSON content type should fail")
	}
}

// TestEnvelopeRawMessageBody: json.RawMessage has Marshaler and Unmarshaler
// methods that neither compact nor validate, and it is not a body that
// writes or reads itself, so a raw body is still compacted, an invalid one
// still refused, and Decode into a *json.RawMessage still refuses invalid
// JSON.
func TestEnvelopeRawMessageBody(t *testing.T) {
	env, err := NewEnvelope("a", "b", "inform", "o", json.RawMessage(" { \"x\" : [1, 2] }\n"))
	if err != nil || string(env.Content) != `{"x":[1,2]}` {
		t.Fatalf("raw body written as %q (%v), want it compacted", env.Content, err)
	}
	if _, err := NewEnvelope("a", "b", "inform", "o", json.RawMessage(`{"x":`)); err == nil {
		t.Fatal("an invalid raw body was written")
	}
	var raw json.RawMessage
	if err := env.Decode(&raw); err != nil || string(raw) != `{"x":[1,2]}` {
		t.Fatalf("decoded %q (%v)", raw, err)
	}
	env.Content = []byte(`{"x":[1,`)
	if err := env.Decode(&raw); err == nil {
		t.Fatalf("invalid JSON decoded into a RawMessage as %q", raw)
	}
}

func TestEnvelopeReplyCorrelation(t *testing.T) {
	env, err := NewEnvelope("client", "server", "request", "onto", "ping")
	if err != nil {
		t.Fatal(err)
	}
	env.Seq = 77
	r, err := env.Reply("inform", "pong")
	if err != nil {
		t.Fatal(err)
	}
	if r.From != "server" || r.To != "client" || r.InReplyTo != 77 || r.Ontology != "onto" {
		t.Fatalf("reply = %+v", r)
	}
}

func TestPlatformLocalDelivery(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	c := newCollector(1)
	if err := p.Register("sink", c, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnvelope("src", "sink", "inform", "o", "hello")
	if err := p.Send(env); err != nil {
		t.Fatal(err)
	}
	got := c.wait(t)
	if len(got) != 1 || got[0].Seq == 0 {
		t.Fatalf("got %+v", got)
	}
	if st := p.DeliveryStats(); st.Delivered != 1 {
		t.Fatalf("delivered = %d", st.Delivered)
	}
}

func TestPlatformUnknownDestination(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	env, _ := NewEnvelope("a", "ghost", "inform", "o", nil)
	if err := p.Send(env); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("err = %v, want ErrUnknownAgent", err)
	}
	if st := p.DeliveryStats(); st.DeadLettered != 1 {
		t.Fatalf("dead-lettered = %d", st.DeadLettered)
	}
}

func TestPlatformDuplicateRegistration(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	h := HandlerFunc(func(Envelope, *Context) {})
	if err := p.Register("a", h, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("a", h, Attributes{}, nil); err == nil {
		t.Fatal("duplicate id should fail")
	}
	if err := p.Register("", h, Attributes{}, nil); err == nil {
		t.Fatal("empty id should fail")
	}
	if err := p.Register("b", nil, Attributes{}, nil); err == nil {
		t.Fatal("nil handler should fail")
	}
}

func TestAgentRequestReply(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	// Echo server agent.
	err := p.Register("echo", HandlerFunc(func(env Envelope, ctx *Context) {
		r, err := env.Reply("inform", "echoed")
		if err != nil {
			t.Errorf("reply: %v", err)
			return
		}
		if err := ctx.Send(r); err != nil {
			t.Errorf("send reply: %v", err)
		}
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newCollector(1)
	if err := p.Register("client", c, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnvelope("client", "echo", "request", "o", "hi")
	if err := p.Send(env); err != nil {
		t.Fatal(err)
	}
	got := c.wait(t)
	if got[0].From != "echo" || got[0].InReplyTo == 0 {
		t.Fatalf("reply = %+v", got[0])
	}
}

func TestAttributesAndRoles(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	h := HandlerFunc(func(Envelope, *Context) {})
	attrs := Attributes{
		Agent:  map[string]string{AttrRole: RoleBroker},
		Domain: map[string]string{"market": "stocks"},
	}
	if err := p.Register("b1", h, attrs, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("p1", h, Attributes{Agent: map[string]string{AttrRole: RoleProvider}}, nil); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Attributes("b1")
	if !ok || got.Agent[AttrRole] != RoleBroker || got.Domain["market"] != "stocks" {
		t.Fatalf("attributes = %+v ok=%v", got, ok)
	}
	// Mutating the copy must not affect the platform's view.
	got.Domain["market"] = "hacked"
	again, _ := p.Attributes("b1")
	if again.Domain["market"] != "stocks" {
		t.Fatal("attributes leaked by reference")
	}
}

func TestDeregisterStopsAgent(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	c := newCollector(1)
	if err := p.Register("x", c, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	p.Deregister("x")
	env, _ := NewEnvelope("a", "x", "inform", "o", nil)
	if err := p.Send(env); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("send after deregister = %v", err)
	}
	p.Deregister("x") // idempotent
}

func TestCloseRejectsTraffic(t *testing.T) {
	p := NewPlatform("test")
	if err := p.Register("a", HandlerFunc(func(Envelope, *Context) {}), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	env, _ := NewEnvelope("x", "a", "inform", "o", nil)
	if err := p.Send(env); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v", err)
	}
	if err := p.Register("b", HandlerFunc(func(Envelope, *Context) {}), Attributes{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close = %v", err)
	}
}

func TestDisconnectionDeputyBuffersAndFlushes(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	c := newCollector(3)
	var dd *DisconnectionDeputy
	err := p.Register("mobile", c, Attributes{}, func(next Deputy) Deputy {
		dd = NewDisconnectionDeputy(next)
		return dd
	})
	if err != nil {
		t.Fatal(err)
	}
	dd.SetConnected(false)
	for i := 0; i < 3; i++ {
		env, _ := NewEnvelope("src", "mobile", "inform", "o", i)
		if err := p.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	if dd.Buffered() != 3 {
		t.Fatalf("buffered = %d, want 3", dd.Buffered())
	}
	time.Sleep(20 * time.Millisecond)
	c.mu.Lock()
	early := len(c.got)
	c.mu.Unlock()
	if early != 0 {
		t.Fatalf("agent saw %d envelopes while disconnected", early)
	}
	if flushed := dd.SetConnected(true); flushed != 3 {
		t.Fatalf("flushed = %d, want 3", flushed)
	}
	got := c.wait(t)
	// Order preserved.
	for i, env := range got {
		var v int
		if err := env.Decode(&v); err != nil || v != i {
			t.Fatalf("envelope %d decoded %d (err %v)", i, v, err)
		}
	}
}

func TestDisconnectionDeputyOverflow(t *testing.T) {
	base := &inbox{p: NewPlatform("test"), replies: make(chan Envelope, 1)}
	dd := NewDisconnectionDeputy(base)
	dd.SetConnected(false)
	for i := 0; i < storeForwardCap; i++ {
		if err := dd.Deliver(Envelope{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dd.Deliver(Envelope{}); err == nil {
		t.Fatal("overflow should fail")
	}
	if n := dd.Buffered(); n != storeForwardCap {
		t.Fatalf("buffered = %d, want %d", n, storeForwardCap)
	}
}

// TestFullDeputyDeadLettersLinkDown: a disconnection deputy's full queue is
// a store-and-forward overflow, not a full mailbox. Send dead-letters the
// refused envelope link_down and leaves Shed, which counts mailbox overload
// (mailbox_full + shed_oldest), alone.
func TestFullDeputyDeadLettersLinkDown(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	var dd *DisconnectionDeputy
	err := p.Register("mobile", HandlerFunc(func(Envelope, *Context) {}), Attributes{}, func(next Deputy) Deputy {
		dd = NewDisconnectionDeputy(next)
		return dd
	})
	if err != nil {
		t.Fatal(err)
	}
	dd.SetConnected(false)
	for i := 0; i < storeForwardCap; i++ {
		env, _ := NewEnvelope("src", "mobile", "inform", "o", i)
		if err := p.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	env, _ := NewEnvelope("src", "mobile", "inform", "o", "one too many")
	if err := p.Send(env); !errors.Is(err, errQueueFull) {
		t.Fatalf("send to a full deputy: err = %v, want errQueueFull", err)
	}
	ds := p.DeliveryStats()
	if ds.Reasons[DropLinkDown] != 1 || ds.Reasons[DropMailboxFull] != 0 {
		t.Fatalf("reasons = %v, want one link_down", ds.Reasons)
	}
	if ds.Shed != 0 || ds.Shed != ds.Reasons[DropMailboxFull]+ds.Reasons[DropShedOldest] {
		t.Fatalf("shed = %d, want 0 = mailbox_full + shed_oldest", ds.Shed)
	}
}

func TestMailboxOverflow(t *testing.T) {
	block := make(chan struct{})
	p := NewPlatform("test")
	defer func() {
		close(block)
		p.Close()
	}()
	err := p.Register("slow", HandlerFunc(func(Envelope, *Context) {
		<-block
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the 64-slot mailbox plus the one being processed.
	overflowed := false
	for i := 0; i < 70; i++ {
		env, _ := NewEnvelope("a", "slow", "inform", "o", i)
		if err := p.Send(env); err != nil {
			if !errors.Is(err, ErrMailboxFull) {
				t.Fatalf("err = %v, want ErrMailboxFull", err)
			}
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatal("mailbox never overflowed")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	// The suite-wide gate (TestMain) would catch a leak eventually; the
	// per-test check attributes gateway/link goroutines to this test.
	leak.Check(t)
	server := NewPlatform("server")
	defer server.Close()
	gw, err := ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Server-side responder.
	err = server.Register("responder", HandlerFunc(func(env Envelope, ctx *Context) {
		r, err := env.Reply("inform", "pong")
		if err != nil {
			return
		}
		_ = ctx.Send(r)
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	client := NewPlatform("client")
	defer client.Close()
	link, err := Dial(client, gw.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	c := newCollector(1)
	if err := client.Register("asker", c, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnvelope("asker", "responder", "request", "o", "ping")
	if err := client.Send(env); err != nil {
		t.Fatal(err)
	}
	got := c.wait(t)
	var body string
	if err := got[0].Decode(&body); err != nil || body != "pong" {
		t.Fatalf("reply body = %q err=%v", body, err)
	}
}

func TestTCPLinkFilter(t *testing.T) {
	server := NewPlatform("server")
	defer server.Close()
	gw, err := ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	client := NewPlatform("client")
	defer client.Close()
	link, err := Dial(client, gw.Addr(), func(id ID) bool { return id == "allowed" })
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	env, _ := NewEnvelope("a", "blocked", "inform", "o", nil)
	if err := client.Send(env); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("filtered send = %v, want ErrUnknownAgent", err)
	}
}

func TestConcurrentSends(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	const n = 200
	c := newCollector(n)
	if err := p.Register("sink", c, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env, _ := NewEnvelope(ID(fmt.Sprintf("src%d", i)), "sink", "inform", "o", i)
			for {
				err := p.Send(env)
				if err == nil {
					return
				}
				if errors.Is(err, ErrMailboxFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				errs <- err
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := c.wait(t)
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	// Sequence numbers must be unique.
	seen := map[uint64]bool{}
	for _, env := range got {
		if seen[env.Seq] {
			t.Fatalf("duplicate seq %d", env.Seq)
		}
		seen[env.Seq] = true
	}
}

func TestCallSynchronous(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	err := p.Register("adder", HandlerFunc(func(env Envelope, ctx *Context) {
		var in []int
		if err := env.Decode(&in); err != nil {
			return
		}
		sum := 0
		for _, v := range in {
			sum += v
		}
		r, err := env.Reply("inform", sum)
		if err != nil {
			return
		}
		_ = ctx.Send(r)
	}), Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := Call(p, "adder", "request", "math", []int{1, 2, 3}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	if err := reply.Decode(&sum); err != nil || sum != 6 {
		t.Fatalf("sum = %d err=%v", sum, err)
	}
	// The ephemeral caller is gone.
	p.mu.RLock()
	defer p.mu.RUnlock()
	for id := range p.agents {
		if id != "adder" {
			t.Fatalf("ephemeral agent %s left behind", id)
		}
	}
}

func TestCallTimeout(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	if err := p.Register("mute", HandlerFunc(func(Envelope, *Context) {}), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	_, err := Call(p, "mute", "request", "o", "hello", 50*time.Millisecond)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
}

func TestCallUnknownDestination(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	if _, err := Call(p, "ghost", "request", "o", nil, time.Second); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("err = %v, want ErrUnknownAgent", err)
	}
}

func BenchmarkPlatformThroughput(b *testing.B) {
	p := NewPlatform("bench")
	defer p.Close()
	done := make(chan struct{}, 1024)
	if err := p.Register("sink", HandlerFunc(func(Envelope, *Context) {
		done <- struct{}{}
	}), Attributes{}, nil); err != nil {
		b.Fatal(err)
	}
	env, _ := NewEnvelope("src", "sink", "inform", "o", 42)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.Seq = 0
		for {
			if err := p.Send(env); err == nil {
				break
			}
			<-done // drain when the mailbox is full
		}
	}
	// Drain whatever deliveries remain queued.
	for {
		select {
		case <-done:
		default:
			return
		}
	}
}

func TestGatewayCloseIsIdempotent(t *testing.T) {
	server := NewPlatform("server")
	defer server.Close()
	gw, err := ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw.Close()
	gw.Close() // second close must not panic
}

func TestLinkCloseStopsRouting(t *testing.T) {
	server := NewPlatform("server")
	defer server.Close()
	if err := server.Register("remote", HandlerFunc(func(Envelope, *Context) {}), Attributes{}, nil); err != nil {
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
	env, _ := NewEnvelope("a", "remote", "inform", "o", nil)
	if err := client.Send(env); err != nil {
		t.Fatalf("send over live link: %v", err)
	}
	link.Close()
	link.Close() // idempotent
	env2, _ := NewEnvelope("a", "remote", "inform", "o", nil)
	if err := client.Send(env2); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("send over closed link = %v, want ErrUnknownAgent", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	client := NewPlatform("client")
	defer client.Close()
	if _, err := Dial(client, "127.0.0.1:1", nil); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}
