package agent

import (
	"fmt"
	"net"
	"sync"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// Link is the client-side connection from one platform to a remote
// gateway. It outlives its TCP connection: on loss it redials with capped
// exponential backoff, buffers outbound envelopes while down (the
// DisconnectionDeputy's store-and-forward semantics applied to a
// transport), and replays the buffer in order on reconnect. Overflowed and
// abandoned envelopes land in the platform's dead-letter ring with reason
// link_down.
type Link struct {
	platform *Platform
	addr     string
	opts     ReconnectOptions
	routeID  RouteID
	done     chan struct{}

	mu         sync.Mutex
	wc         *wireConn // nil while disconnected
	buffer     []Envelope
	closed     bool
	connects   int
	replayed   int
	overflowed int
}

// ReconnectOptions tunes a Link.
type ReconnectOptions struct {
	// Filter restricts which destinations the link forwards (nil = every
	// non-local ID), like Dial's filter.
	Filter func(ID) bool
	// MaxBuffer bounds the store-and-forward queue while disconnected
	// (default 256). On overflow the oldest envelope is dead-lettered.
	MaxBuffer int
	// BaseDelay and MaxDelay shape the capped-exponential redial backoff
	// (defaults 20ms and 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// WrapRoute, when set, decorates the route this link installs on the
	// platform — the seam chaos tests use to put a fault injector on one
	// node's uplink (e.g. faultinject.Injector.WrapRoute) without
	// touching the link machinery itself.
	WrapRoute func(RouteFunc) RouteFunc
}

func (o ReconnectOptions) withDefaults() ReconnectOptions {
	if o.MaxBuffer <= 0 {
		o.MaxBuffer = storeForwardCap
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 20 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Second
	}
	return o
}

// ReconnectStats is a snapshot of a Link's lifetime counters.
type ReconnectStats struct {
	// Connects counts successful connection establishments (1 = the
	// initial connect; more = reconnections happened).
	Connects int
	// Replayed counts buffered envelopes re-sent after a reconnect.
	Replayed int
	// Buffered is the current store-and-forward queue length.
	Buffered int
	// Overflowed counts envelopes dead-lettered because the buffer was
	// full.
	Overflowed int
}

// Dial connects the platform to a remote gateway and fails if the first
// connection cannot be established. Envelopes whose destination is not
// local and passes filter (nil = every non-local ID) are forwarded over the
// link; envelopes arriving from the remote side are injected locally.
func Dial(p *Platform, addr string, filter func(ID) bool) (*Link, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agent: dial gateway: %w", err)
	}
	return newLink(p, addr, ReconnectOptions{Filter: filter}, conn), nil
}

// DialReconnect installs a link without waiting for its first connection:
// it is established in the background, and envelopes routed before it
// comes up are buffered — so dialling an address that is not listening
// *yet* is not an error.
func DialReconnect(p *Platform, addr string, opts ReconnectOptions) *Link {
	return newLink(p, addr, opts, nil)
}

// newLink installs the link's route and starts its connection loop; conn is
// an already-established first connection, or nil to dial in the background.
func newLink(p *Platform, addr string, opts ReconnectOptions, conn net.Conn) *Link {
	l := &Link{
		platform: p,
		addr:     addr,
		opts:     opts.withDefaults(),
		done:     make(chan struct{}),
	}
	var first *wireConn
	if conn != nil {
		first = newWireConn(conn)
		l.install(first) // nothing buffered yet, so there is no replay to fail
	}
	route := RouteFunc(l.route)
	if l.opts.WrapRoute != nil {
		route = l.opts.WrapRoute(route)
	}
	l.routeID = p.AddRoute(route)
	supervise.Spawn("link", func() { l.run(first) })
	return l
}

// Connected reports whether the link currently has a live connection.
//
//lint:ignore deadcode test seam used by the agent and core chaos tests
func (l *Link) Connected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wc != nil
}

// Stats snapshots the link's counters.
func (l *Link) Stats() ReconnectStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ReconnectStats{
		Connects:   l.connects,
		Replayed:   l.replayed,
		Buffered:   len(l.buffer),
		Overflowed: l.overflowed,
	}
}

// Close stops redialling, uninstalls the route, and dead-letters whatever
// is still buffered.
func (l *Link) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	wc := l.wc
	l.wc = nil
	buf := l.buffer
	l.buffer = nil
	l.mu.Unlock()
	close(l.done)
	l.platform.RemoveRoute(l.routeID)
	if wc != nil {
		wc.conn.Close()
	}
	for _, env := range buf {
		l.platform.deadLetter(env, DropLinkDown)
	}
}

// route implements RouteFunc: write when up, store-and-forward when down.
// It accepts the envelope either way, unless no frame can carry it; loss is
// only possible by buffer overflow, which is dead-lettered rather than
// silent.
func (l *Link) route(env Envelope) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	if l.opts.Filter != nil && !l.opts.Filter(env.To) {
		return false
	}
	if l.wc != nil {
		wc := l.wc
		if err := wc.write(env); err == nil || err == errOversize {
			return err == nil // no frame carries it: Send dead-letters it
		}
		// The connection died under us: take it down and buffer this
		// envelope. Closing the socket fails the read loop, which redials.
		l.wc = nil
		wc.conn.Close()
	}
	if len(l.buffer) >= l.opts.MaxBuffer {
		oldest := l.buffer[0]
		l.buffer = l.buffer[1:]
		l.overflowed++
		l.platform.deadLetter(oldest, DropLinkDown)
	}
	l.buffer = append(l.buffer, env)
	l.platform.trace(obs.SpanBuffer, env, "link down")
	return true
}

// run keeps the link connected: read from the live connection until it is
// lost, then dial with capped exponential backoff, replay the buffer, and
// read again. wc is the connection Dial already installed, if any.
func (l *Link) run(wc *wireConn) {
	delay := l.opts.BaseDelay
	for {
		if wc != nil {
			l.platform.readEnvelopes(wc.conn, "link", nil)
			l.markDown(wc)
			wc = nil
		}
		select {
		case <-l.done:
			return
		default:
		}
		conn, err := net.Dial("tcp", l.addr)
		if err != nil {
			select {
			case <-l.done:
				return
			case <-l.platform.clock().After(delay):
			}
			delay = min(2*delay, l.opts.MaxDelay)
			continue
		}
		delay = l.opts.BaseDelay
		if fresh := newWireConn(conn); l.install(fresh) {
			wc = fresh
		} else {
			conn.Close() // closed, or the replay write failed: redial
		}
	}
}

// install replays the store-and-forward buffer over the new connection and
// makes it the live one. Replay happens under l.mu so concurrently routed
// envelopes queue behind the replayed ones — order is preserved.
func (l *Link) install(wc *wireConn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	for len(l.buffer) > 0 {
		switch err := wc.write(l.buffer[0]); err {
		case nil:
			l.platform.trace(obs.SpanReplay, l.buffer[0], "reconnected")
			l.replayed++
		case errOversize: // buffered while down, but no frame carries it
			l.platform.deadLetter(l.buffer[0], DropLinkDown)
		default:
			return false
		}
		l.buffer = l.buffer[1:]
	}
	l.buffer = nil
	l.wc = wc
	l.connects++
	return true
}

// markDown reacts to a read error: drop the connection if it is still the
// live one.
func (l *Link) markDown(wc *wireConn) {
	l.mu.Lock()
	if l.wc == wc {
		l.wc = nil
	}
	l.mu.Unlock()
	wc.conn.Close()
}
