package agent

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// referenceWire is the transport the binary frame replaced, kept as the
// oracle: the envelope as newline-delimited JSON through json.Encoder, read
// back by a json.Decoder.
func referenceWire(env Envelope) (Envelope, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(env); err != nil {
		return Envelope{}, err
	}
	var out Envelope
	err := json.NewDecoder(bufio.NewReader(&buf)).Decode(&out)
	return out, err
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r), intern: map[string]string{}}
}

// encodeFrame is one envelope's frame, header included.
func encodeFrame(env Envelope) []byte { return appendFrame(nil, &env) }

// canonical maps an empty Content to nil: the frame carries bytes, not
// JSON's null-versus-"" distinction, and no reader of Content sees it.
func canonical(env Envelope) Envelope {
	if len(env.Content) == 0 {
		env.Content = nil
	}
	return env
}

func randU64(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return uint64(rng.Intn(300)) // around the one-byte varint edge
	default:
		return rng.Uint64()
	}
}

func randString(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return ""
	case 1:
		return "caller-" + strconv.Itoa(rng.Intn(50)) // repeats: intern hits
	case 2:
		return strings.Repeat("ü", 60+rng.Intn(200)) // long, multi-byte
	case 3:
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteRune(rune(rng.Intn(0x10FFFF)))
		}
		return b.String()
	default:
		return [...]string{"request", "inform", "application/json", "kqml", "pgrid-query-v1"}[rng.Intn(5)]
	}
}

func randEnvelope(rng *rand.Rand) Envelope {
	env := Envelope{
		Seq: randU64(rng), InReplyTo: randU64(rng), TraceID: randU64(rng),
		Hops: [...]int{0, 1, 16, -3, math.MaxInt, math.MinInt, rng.Int()}[rng.Intn(7)],
		From: ID(randString(rng)), To: ID(randString(rng)),
		Performative: randString(rng), ContentType: randString(rng), Ontology: randString(rng),
	}
	switch rng.Intn(6) {
	case 0: // nil
	case 1:
		env.Content = []byte{}
	case 2:
		env.Content, _ = json.Marshal(map[string]any{"query": randString(rng), "n": rng.Int63()})
	case 3:
		env.Content = []byte(`(:sensor "44" :reading "21.5")`) // KQML, not JSON
	default:
		env.Content = make([]byte, rng.Intn(3000))
		rng.Read(env.Content)
	}
	return env
}

// TestFrameEqualsJSONReference: the frame has the layout DESIGN.md "Wire
// frame" documents, and 5000 random envelopes — extreme integers, empty
// and long strings, nil, empty, JSON, KQML and binary bodies — come back
// from it exactly as they come back from the JSON transport it replaced.
// Each seed decodes its 500 frames off one stream, as a connection does.
func TestFrameEqualsJSONReference(t *testing.T) {
	golden := Envelope{Seq: 300, InReplyTo: 7, Hops: -2, TraceID: 0x0102030405060708,
		From: "ab", To: "c", ContentType: "t", Ontology: "o", Content: []byte("xyz")}
	want := []byte{0, 0, 0, 26, // body length
		frameVersion, 0xac, 0x02, 7, 3, // Seq 300, InReplyTo 7, Hops -2 (zigzag 3)
		1, 2, 3, 4, 5, 6, 7, 8, // TraceID
		2, 'a', 'b', 1, 'c', 0, 1, 't', 1, 'o', // From, To, Performative, ContentType, Ontology
		'x', 'y', 'z'} // Content
	if got := encodeFrame(golden); !bytes.Equal(got, want) {
		t.Fatalf("frame layout\n got % x\nwant % x", got, want)
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var stream []byte
		envs := make([]Envelope, 500)
		for i := range envs {
			envs[i] = randEnvelope(rng)
			frame := encodeFrame(envs[i])
			if n := frameSize(&envs[i]); n != len(frame)-4 {
				t.Fatalf("seed %d envelope %d: frameSize = %d, the frame's body is %d bytes", seed, i, n, len(frame)-4)
			}
			stream = append(stream, frame...)
		}
		fr := newFrameReader(bytes.NewReader(stream))
		for i, env := range envs {
			want, err := referenceWire(env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fr.next()
			if err != nil {
				t.Fatalf("seed %d envelope %d: %v", seed, i, err)
			}
			if !reflect.DeepEqual(canonical(got), canonical(want)) {
				t.Fatalf("seed %d envelope %d:\nframe %+v\n json %+v", seed, i, got, want)
			}
		}
		if _, err := fr.next(); err != io.EOF {
			t.Fatalf("seed %d: after the last frame err = %v, want EOF", seed, err)
		}
	}
}

// hostileFrame is a byte stream a rude peer sends and the reason the
// decoder must refuse it for.
type hostileFrame struct {
	name   string
	data   []byte
	reason wireError
}

func hostileFrames() []hostileFrame {
	valid := encodeFrame(Envelope{From: "rude", To: "sink", Performative: "inform", Content: []byte(`"x"`)})
	return []hostileFrame{
		{"half a frame", valid[:len(valid)/2], errTruncated},
		{"oversize header", append(binary.BigEndian.AppendUint32(nil, maxFrame+1), frameVersion, 0, 0), errOversize},
		{"version 0", []byte{0, 0, 0, 4, 0, 0, 0, 0}, errVersion},
		{"old JSON line", []byte(`{"seq":1,"from":"rude","to":"sink","performative":"inform","content":"Ing="}` + "\n"), errOversize},
		{"string past the end", append([]byte{0, 0, 0, 15, frameVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x7f}, "ru"...), errMalformed},
		{"overlong varint", []byte{0, 0, 0, 18, frameVersion, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, errMalformed},
	}
}

// FuzzFrameDecode: the decoder never panics, never holds a body buffer
// past maxFrame nor allocates one for a header it refuses as oversize, and
// every frame it accepts re-encodes to the bytes it was read from.
func FuzzFrameDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(encodeFrame(randEnvelope(rng)))
	}
	f.Add(append(encodeFrame(randEnvelope(rng)), encodeFrame(randEnvelope(rng))...))
	for _, h := range hostileFrames() {
		f.Add(h.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for off := 0; ; {
			before := cap(fr.buf)
			env, err := fr.next()
			if cap(fr.buf) > maxFrame {
				t.Fatalf("body buffer grew to %d, past the %d limit", cap(fr.buf), maxFrame)
			}
			if err != nil {
				if err == errOversize && cap(fr.buf) != before {
					t.Fatalf("allocated %d bytes for a frame it refused", cap(fr.buf))
				}
				return
			}
			re := encodeFrame(env)
			if off+len(re) > len(data) || !bytes.Equal(re, data[off:off+len(re)]) {
				t.Fatalf("accepted frame at %d re-encodes to % x", off, re)
			}
			off += len(re)
		}
	})
}

// discardConn is a net.Conn whose writes succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// loopReader replays one frame forever.
type loopReader struct {
	b []byte
	i int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.i:])
	l.i = (l.i + n) % len(l.b)
	return n, nil
}

func benchFrameEnvelope() Envelope {
	env, _ := NewEnvelope("caller-17", "bench-echo", "request", "bench-ping-v1", map[string]uint64{"n": 42})
	env.Seq, env.TraceID = 9001, 0xfeedface
	return env
}

// TestFrameCodecAllocs pins the codec's steady state: writing a frame
// allocates nothing, and reading one allocates only its Content copy once
// the intern table holds the header strings.
func TestFrameCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	env := benchFrameEnvelope()
	wc := newWireConn(discardConn{})
	if got := testing.AllocsPerRun(200, func() { _ = wc.write(env) }); got != 0 {
		t.Errorf("write allocates %v times per frame, pinned at 0", got)
	}
	fr := newFrameReader(&loopReader{b: encodeFrame(env)})
	if got := testing.AllocsPerRun(200, func() { _, _ = fr.next() }); got != 1 {
		t.Errorf("next allocates %v times per frame, pinned at 1", got)
	}
}

// TestLinkRouteAllocs pins the link's send path: once its queue and frame
// buffer have grown, routing an envelope over a live connection — queue it,
// take the turn, write the queue out — allocates nothing.
func TestLinkRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(io.Discard, c)
	}()
	client := NewPlatform("client")
	defer client.Close()
	link, err := Dial(client, ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	env := benchFrameEnvelope()
	if got := testing.AllocsPerRun(200, func() { link.route(env) }); got != 0 {
		t.Errorf("route allocates %v times per envelope, pinned at 0", got)
	}
	if st := link.Stats(); st.Buffered != 0 || st.Connects != 1 {
		t.Fatalf("stats = %+v, want every envelope written over the first connection", st)
	}
}

// BenchmarkFrameCodec is one envelope's trip through the codec: write the
// frame, then read it back.
func BenchmarkFrameCodec(b *testing.B) {
	env := benchFrameEnvelope()
	wc := newWireConn(discardConn{})
	fr := newFrameReader(&loopReader{b: encodeFrame(env)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wc.write(env); err != nil {
			b.Fatal(err)
		}
		if _, err := fr.next(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOversizeEnvelopeIsRefusedNotWritten: an envelope no frame can carry
// is dead-lettered by the sender, and the connection it would have broken
// at the receiver stays up.
func TestOversizeEnvelopeIsRefusedNotWritten(t *testing.T) {
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

	big := Envelope{From: "big", To: "echo", Performative: "inform", Content: make([]byte, maxFrame)}
	if err := client.Send(big); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("oversize send: err = %v, want ErrUnknownAgent", err)
	}
	if got := client.DeliveryStats().Reasons[DropNoRoute]; got != 1 {
		t.Fatalf("no_route dead letters = %d, want 1", got)
	}
	if _, err := Call(client, "echo", "request", "o", "ping", 5*time.Second); err != nil {
		t.Fatalf("call after the refused envelope: %v", err)
	}
	if st := link.Stats(); st.Connects != 1 {
		t.Fatalf("link reconnected: %+v", st)
	}
	for k := range server.MetricsSnapshot().Counters {
		if strings.HasPrefix(k, "agent_wire_rejected_total") {
			t.Fatalf("the receiver saw a hostile frame: %s", k)
		}
	}
}

// TestStalledPeerDoesNotStallOthers: a peer that never reads fills its
// socket until the gateway's write to it blocks; a healthy peer's
// conversation through the same gateway must not wait for it.
func TestStalledPeerDoesNotStallOthers(t *testing.T) {
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

	// The stalled peer speaks once, so the gateway learns its reverse route.
	raw, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(encodeFrame(Envelope{From: "stalled", To: "echo", Performative: "inform"})); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		gw.mu.Lock()
		learned := gw.routes["stalled"] != nil
		gw.mu.Unlock()
		if learned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway never learned the stalled peer's route")
		}
	}

	stop, flooded := make(chan struct{}), make(chan struct{})
	var sent atomic.Int64
	go func() {
		defer close(flooded)
		body := make([]byte, 64<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = server.Send(Envelope{From: "flood", To: "stalled", Performative: "inform", Content: body})
			sent.Add(1)
		}
	}()
	defer func() {
		close(stop)
		raw.Close() // resets the connection, failing the blocked write
		<-flooded
	}()
	// The flood is blocked once its count stops moving.
	for last, deadline := int64(-1), time.Now().Add(10*time.Second); ; {
		time.Sleep(100 * time.Millisecond)
		n := sent.Load()
		if n == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the stalled peer's socket never filled (%d envelopes sent)", n)
		}
		last = n
	}

	client := NewPlatform("client")
	defer client.Close()
	link, err := Dial(client, gw.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	start := time.Now()
	if _, err := Call(client, "echo", "request", "o", "ping", time.Second); err != nil {
		t.Fatalf("healthy peer's call behind a stalled one: %v after %v", err, time.Since(start))
	}
	t.Run("link", stalledLinkPeer)
}

// stalledLinkPeer is the stall behind a Link: a Dial'ed link to a peer that
// accepts and never reads. The sender whose write fills the socket waits in
// it, but the link's lock is not held across the write, so Stats, another
// sender's Send and Close each return at once. Afterwards every envelope
// sent was either written whole to the peer or dead-lettered link_down.
func stalledLinkPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	client := NewPlatform("client")
	defer client.Close()
	link, err := Dial(client, ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	peer := <-accepted
	defer peer.Close() // runs first: resets a write still blocked on a failed test

	stop, flooded := make(chan struct{}), make(chan struct{})
	stopFlood := sync.OnceFunc(func() { close(stop) })
	defer stopFlood()
	var sent atomic.Int64
	go func() {
		defer close(flooded)
		body := make([]byte, 64<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sent.Add(1)
			_ = client.Send(Envelope{From: "flood", To: "stalled", Performative: "inform", Content: body})
		}
	}()
	for last, deadline := int64(-1), time.Now().Add(10*time.Second); ; {
		time.Sleep(100 * time.Millisecond)
		n := sent.Load()
		if n == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the stalled peer's socket never filled (%d envelopes sent)", n)
		}
		last = n
	}

	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("%s waited behind the stalled write", what)
		}
	}
	within("Stats", func() { link.Stats() })
	sent.Add(1)
	within("another sender's Send", func() {
		_ = client.Send(Envelope{From: "small", To: "stalled", Performative: "inform"})
	})
	stopFlood() // the flood sends nothing more once its stalled Send returns
	within("Close", link.Close)
	within("the stalled sender", func() { <-flooded })

	written := 0
	for fr := newFrameReader(peer); ; written++ {
		if _, err := fr.next(); err != nil {
			break // EOF, or the frame Close cut short
		}
	}
	dead := client.DeliveryStats().Reasons[DropLinkDown]
	if got := sent.Load(); got != int64(written)+int64(dead) {
		t.Fatalf("sent %d, but %d written whole + %d dead-lettered link_down", got, written, dead)
	}
}
