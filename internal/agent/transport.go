package agent

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// Transport: envelopes cross TCP as length-prefixed binary frames (DESIGN.md
// "Wire frame"): a 4-byte big-endian body length; frameVersion; uvarint Seq
// and InReplyTo; varint Hops; 8-byte big-endian TraceID; From, To,
// Performative, ContentType and Ontology as uvarint length and bytes; then
// Content. Every byte read is hostile: a frame that is oversized, of another
// version, malformed or cut short closes only its own connection and counts
// in agent_wire_rejected_total{reason}. No second format is read.
const (
	frameVersion = 1
	maxFrame     = 4 << 20 // body bound, checked before anything is allocated for it
	internMax    = 256     // strings in a connection's intern table,
	internLen    = 64      // each at most this long
)

// wireError is a refused frame; its text is the agent_wire_rejected_total reason.
type wireError string

func (e wireError) Error() string { return "agent: wire frame rejected: " + string(e) }

const errOversize, errVersion, errMalformed, errTruncated wireError = "oversize", "version", "malformed", "truncated"

// wireConn is one connection's write side: a frame buffer reused under mu.
type wireConn struct {
	conn net.Conn
	mu   sync.Mutex
	buf  []byte
}

func newWireConn(c net.Conn) *wireConn { return &wireConn{conn: c} }

// write sends one frame with one conn.Write, or refuses an envelope no frame
// can carry before encoding it. Its five allocation sites — appendFrame's
// three appends into buf, and a stack array each in appendFrame and
// frameSize — allocate nothing once buf holds the largest frame yet.
//
//lint:hot budget=5
func (w *wireConn) write(env Envelope) error {
	if frameSize(&env) > maxFrame {
		return errOversize
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = appendFrame(w.buf[:0], &env)
	//lint:ignore blockheld w.mu serialises one connection's frames and guards nothing else
	_, err := w.conn.Write(w.buf)
	return err
}

// frameSize is the body length appendFrame writes for env, counted without
// encoding it.
func frameSize(env *Envelope) int {
	var b [binary.MaxVarintLen64]byte
	n := 1 + binary.PutUvarint(b[:], env.Seq) + binary.PutUvarint(b[:], env.InReplyTo) +
		binary.PutVarint(b[:], int64(env.Hops)) + 8 + len(env.Content)
	for _, s := range [...]string{string(env.From), string(env.To), env.Performative, env.ContentType, env.Ontology} {
		n += binary.PutUvarint(b[:], uint64(len(s))) + len(s)
	}
	return n
}

func appendFrame(b []byte, env *Envelope) []byte {
	b = append(b, 0, 0, 0, 0, frameVersion)
	b = binary.AppendUvarint(b, env.Seq)
	b = binary.AppendUvarint(b, env.InReplyTo)
	b = binary.AppendVarint(b, int64(env.Hops))
	b = binary.BigEndian.AppendUint64(b, env.TraceID)
	for _, s := range [...]string{string(env.From), string(env.To), env.Performative, env.ContentType, env.Ontology} {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	b = append(b, env.Content...)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// frameReader is one connection's read side: the body buffer it reuses and
// the intern table the header strings come from.
type frameReader struct {
	r      *bufio.Reader
	hdr    [4]byte
	buf    []byte
	rest   []byte // the body not yet parsed
	bad    bool   // a field ran past the end or was not minimally encoded
	intern map[string]string
}

// next reads one frame: io.EOF at a clean close, io.ErrUnexpectedEOF inside a
// frame, a wireError for a refused one (env then means nothing). It allocates
// the body buffer's growth and, in steady state, only Content's copy.
//
//lint:hot budget=2
func (fr *frameReader) next() (env Envelope, err error) {
	if _, err = io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return env, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n > maxFrame {
		return env, errOversize
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	if _, err = io.ReadFull(fr.r, fr.buf[:n]); err == io.EOF {
		err = io.ErrUnexpectedEOF // the header promised a body
	}
	if err != nil {
		return env, err
	}
	if n == 0 || fr.buf[0] != frameVersion {
		return env, errVersion
	}
	fr.rest, fr.bad = fr.buf[1:n], false
	env.Seq, env.InReplyTo = fr.uvarint(), fr.uvarint()
	hops := fr.uvarint() // zigzag
	env.Hops = int(int64(hops>>1) ^ -int64(hops&1))
	if b := fr.take(8); b != nil {
		env.TraceID = binary.BigEndian.Uint64(b)
	}
	env.From, env.To = ID(fr.str()), ID(fr.str())
	env.Performative, env.ContentType, env.Ontology = fr.str(), fr.str(), fr.str()
	if fr.bad {
		return env, errMalformed
	}
	if len(fr.rest) > 0 {
		env.Content = make([]byte, len(fr.rest))
		copy(env.Content, fr.rest)
	}
	return env, nil
}

// take consumes n bytes of the body, or marks the frame malformed.
func (fr *frameReader) take(n uint64) []byte {
	if n > uint64(len(fr.rest)) {
		fr.bad, fr.rest = true, nil
		return nil
	}
	b := fr.rest[:n]
	fr.rest = fr.rest[n:]
	return b
}

// uvarint consumes a uvarint. It must be minimal — one byte, or a last
// byte that is not zero — so an accepted frame has exactly one encoding.
func (fr *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(fr.rest)
	if n <= 0 || (n > 1 && fr.rest[n-1] == 0) {
		fr.bad, fr.rest = true, nil
		return 0
	}
	fr.rest = fr.rest[n:]
	return v
}

// str consumes a string through the intern table, so what every envelope
// repeats costs a map lookup; a full table is cleared, not grown.
func (fr *frameReader) str() string {
	b := fr.take(fr.uvarint())
	if s, ok := fr.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= internLen {
		if len(fr.intern) >= internMax {
			clear(fr.intern)
		}
		fr.intern[s] = s
	}
	return s
}

// Gateway accepts remote platform connections. Envelopes arriving on a
// connection are injected into the local platform; replies addressed to a
// remote agent are routed back over the connection it last sent on.
type Gateway struct {
	platform *Platform
	ln       net.Listener
	routeID  RouteID

	mu        sync.Mutex
	conns     map[*wireConn]struct{}
	routes    map[ID]*wireConn // remote sender → the connection it last spoke on
	closeOnce sync.Once
}

// ListenAndServe starts a gateway on addr (e.g. "127.0.0.1:0") and installs
// its reverse route on the platform.
func ListenAndServe(p *Platform, addr string) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agent: gateway listen: %w", err)
	}
	g := &Gateway{platform: p, ln: ln, conns: map[*wireConn]struct{}{}, routes: map[ID]*wireConn{}}
	g.routeID = p.AddRoute(g.route)
	supervise.Spawn("gateway-accept", g.acceptLoop)
	return g, nil
}

// Addr reports the gateway's listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Close stops accepting, closes all connections, and uninstalls the
// gateway's route from the platform.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		g.platform.RemoveRoute(g.routeID)
		g.ln.Close()
		g.mu.Lock()
		for wc := range g.conns {
			wc.conn.Close()
		}
		g.mu.Unlock()
	})
}

func (g *Gateway) acceptLoop() {
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		wc := newWireConn(conn)
		g.mu.Lock()
		g.conns[wc] = struct{}{}
		g.mu.Unlock()
		supervise.Spawn("gateway-read", func() { g.readLoop(wc) })
	}
}

func (g *Gateway) readLoop(wc *wireConn) {
	defer func() {
		g.mu.Lock()
		delete(g.conns, wc)
		for id, c := range g.routes {
			if c == wc {
				delete(g.routes, id)
			}
		}
		g.mu.Unlock()
		wc.conn.Close()
	}()
	g.platform.readEnvelopes(wc.conn, "gateway", func(from ID) {
		g.mu.Lock()
		g.routes[from] = wc
		g.mu.Unlock()
	})
}

// readEnvelopes is the one wire read loop, shared by the gateway and the
// link: decode frames off conn until it fails (a refused or cut-short frame
// is counted by reason), count the hop, and inject each envelope into the
// platform, which dead-letters what it cannot deliver. seen, when set,
// observes every sender before its envelope is injected.
func (p *Platform) readEnvelopes(conn net.Conn, via string, seen func(from ID)) {
	fr := &frameReader{r: bufio.NewReader(conn), intern: map[string]string{}}
	for {
		env, err := fr.next()
		if err != nil {
			if err == io.ErrUnexpectedEOF {
				err = errTruncated
			}
			if reason, ok := err.(wireError); ok {
				p.metrics.Counter("agent_wire_rejected_total", "reason", string(reason)).Inc()
			}
			return
		}
		if seen != nil {
			seen(env.From)
		}
		env.Hops++
		p.trace(obs.SpanIngress, env, via)
		_ = p.Send(env)
	}
}

// route writes an envelope to the connection its addressee last spoke on,
// after releasing g.mu: a peer that stops reading stalls only writes to it.
func (g *Gateway) route(env Envelope) bool {
	g.mu.Lock()
	wc := g.routes[env.To]
	g.mu.Unlock()
	return wc != nil && wc.write(env) == nil
}
