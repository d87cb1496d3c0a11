package agent

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// Transport: envelopes travel between platforms as newline-delimited JSON
// over TCP. The framework is "network protocol independent" in the Ronin
// sense — a platform only sees RouteFuncs; this file provides the stdlib
// TCP instantiation used by the pgridd daemon. Remote envelopes get their
// Hops count incremented at ingress so the platform's hop budget can stop
// routing loops.

// wireConn wraps a connection with a locked JSON encoder.
type wireConn struct {
	conn net.Conn
	mu   sync.Mutex
	enc  *json.Encoder
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{conn: c, enc: json.NewEncoder(c)}
}

// write frames one envelope onto the wire — the per-envelope syscall
// path link batching (ROADMAP item 1) will coalesce.
//
//lint:hot budget=0
func (w *wireConn) write(env Envelope) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(env)
}

// Gateway accepts remote platform connections. Envelopes arriving on a
// connection are injected into the local platform; replies addressed to any
// agent previously seen as a sender on that connection are routed back over
// it.
type Gateway struct {
	platform *Platform
	ln       net.Listener
	routeID  RouteID

	mu    sync.Mutex
	conns map[*wireConn]map[ID]bool // remote IDs seen per connection
	done  chan struct{}
}

// ListenAndServe starts a gateway on addr (e.g. "127.0.0.1:0") and installs
// its reverse route on the platform.
func ListenAndServe(p *Platform, addr string) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agent: gateway listen: %w", err)
	}
	g := &Gateway{platform: p, ln: ln, conns: map[*wireConn]map[ID]bool{}, done: make(chan struct{})}
	g.routeID = p.AddRoute(g.route)
	supervise.Spawn("gateway-accept", g.acceptLoop)
	return g, nil
}

// Addr reports the gateway's listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Close stops accepting, closes all connections, and uninstalls the
// gateway's route from the platform.
func (g *Gateway) Close() {
	select {
	case <-g.done:
		return
	default:
		close(g.done)
	}
	g.platform.RemoveRoute(g.routeID)
	g.ln.Close()
	g.mu.Lock()
	for wc := range g.conns {
		wc.conn.Close()
	}
	g.mu.Unlock()
}

func (g *Gateway) acceptLoop() {
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		wc := newWireConn(conn)
		g.mu.Lock()
		g.conns[wc] = map[ID]bool{}
		g.mu.Unlock()
		supervise.Spawn("gateway-read", func() { g.readLoop(wc) })
	}
}

func (g *Gateway) readLoop(wc *wireConn) {
	defer func() {
		g.mu.Lock()
		delete(g.conns, wc)
		g.mu.Unlock()
		wc.conn.Close()
	}()
	g.platform.readEnvelopes(wc.conn, "gateway", func(from ID) {
		g.mu.Lock()
		g.conns[wc][from] = true
		g.mu.Unlock()
	})
}

// readEnvelopes is the one wire read loop, shared by the gateway and the
// link: decode envelopes off conn until it fails, count the hop, and inject
// each into the platform (undeliverable ones are dead-lettered by Send).
// seen, when set, observes every sender before its envelope is injected.
func (p *Platform) readEnvelopes(conn net.Conn, via string, seen func(from ID)) {
	dec := json.NewDecoder(bufio.NewReader(conn))
	for {
		var env Envelope
		if err := dec.Decode(&env); err != nil {
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

// route sends envelopes back to remote agents that previously talked to us.
func (g *Gateway) route(env Envelope) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for wc, ids := range g.conns {
		if ids[env.To] {
			return wc.write(env) == nil
		}
	}
	return false
}
