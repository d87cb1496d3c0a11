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
// exponential backoff. Outbound envelopes go through the link's one
// store-and-forward queue, the DisconnectionDeputy's (fifo): written as soon
// as the connection is free, held while it is down, and written in order once
// a redial brings it back. Overflowed and abandoned envelopes land in the
// platform's dead-letter ring with reason link_down.
type Link struct {
	platform *Platform
	addr     string
	opts     ReconnectOptions
	routeID  RouteID
	done     chan struct{}

	mu         sync.Mutex
	wc         *wireConn // nil while disconnected
	out        fifo      // written to wc outside mu
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
	// MaxBuffer bounds the store-and-forward queue (default 256). On
	// overflow the oldest waiting envelope is dead-lettered.
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
	// Replayed counts queued envelopes written after a reconnect.
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
	l.out.limit, l.out.room = l.opts.MaxBuffer, make(chan struct{}, 1)
	var first *wireConn
	if conn != nil {
		first = newWireConn(conn)
		l.install(first)
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
		Buffered:   l.out.n,
		Overflowed: l.overflowed,
	}
}

// Close stops redialling, uninstalls the route, and dead-letters whatever
// is still queued.
func (l *Link) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	wc, abandoned := l.wc, l.out.ring
	l.wc, l.out.ring = nil, ring{}
	l.mu.Unlock()
	close(l.done)
	l.platform.RemoveRoute(l.routeID)
	if wc != nil {
		wc.conn.Close()
	}
	for abandoned.n > 0 {
		l.platform.deadLetter(abandoned.pop(), DropLinkDown)
	}
}

// route implements RouteFunc: env joins the queue, and a sender that finds
// the connection up and the turn free writes the queue out. It accepts what
// a frame can carry; a full queue makes the sender wait while the link is
// up, and dead-letters its oldest envelope while it is down.
//
//lint:hot budget=22
func (l *Link) route(env Envelope) bool {
	if (l.opts.Filter != nil && !l.opts.Filter(env.To)) || frameSize(&env) > maxFrame {
		return false // Send dead-letters what no frame carries
	}
	l.mu.Lock()
	waited := false
	for l.wc != nil && l.out.n == l.out.limit && !l.closed {
		// Up and full: wait for the turn to free a slot, the backpressure a
		// live connection gives. Down, the oldest is evicted instead.
		l.mu.Unlock()
		select {
		case <-l.out.room:
		case <-l.done:
		}
		l.mu.Lock()
		waited = true
	}
	if l.closed {
		l.mu.Unlock()
		return false
	}
	var oldest Envelope
	full := l.out.n == l.out.limit
	if full {
		oldest = l.out.pop()
		l.overflowed++
	}
	l.out.push(env)
	from := l.wc
	if waited || from == nil {
		poke(l.out.room) // the next waiting sender may fit, or find the link down
	}
	drain := l.out.claim(from != nil)
	l.mu.Unlock()
	if full {
		l.platform.deadLetter(oldest, DropLinkDown)
	}
	if from == nil {
		l.platform.trace(obs.SpanBuffer, env, "link down")
	}
	if drain {
		l.drain(from)
	}
	return true
}

// drain writes the queue out in order for the holder of its turn, outside
// l.mu. A write over a connection other than from is a replay, counted before
// the write so Stats never trails the peer. A failed write takes its
// connection down and returns the envelope to the head, unless the link
// closed or the queue filled behind it: then the envelope, the oldest, is
// dead-lettered.
//
//lint:hot budget=22
func (l *Link) drain(from *wireConn) {
	for {
		l.mu.Lock()
		wc := l.wc
		env, ok := l.out.next(wc != nil)
		replay := ok && wc != from
		if replay {
			l.replayed++
		}
		l.mu.Unlock()
		if !ok {
			return
		}
		if wc.write(env) == nil {
			if replay {
				l.platform.trace(obs.SpanReplay, env, "reconnected")
			}
			continue
		}
		l.markDown(wc)
		l.mu.Lock()
		if replay {
			l.replayed--
		}
		lost := l.closed || l.out.n == l.out.limit
		if !lost {
			l.out.unpop(env)
		} else if !l.closed {
			l.overflowed++
		}
		l.mu.Unlock()
		if lost {
			l.platform.deadLetter(env, DropLinkDown)
		}
	}
}

// run keeps the link connected: read from the live connection until it is
// lost, then dial with capped exponential backoff, install the new
// connection, and read again. wc is the connection Dial already installed,
// if any.
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
			conn.Close() // the link closed while dialling
		}
	}
}

// install makes wc the live connection and drains what queued while the
// link was down, unless a sender holds the turn. It reports false once the
// link has closed.
func (l *Link) install(wc *wireConn) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.wc = wc
	l.connects++
	drain := l.out.claim(true)
	l.mu.Unlock()
	if drain {
		l.drain(nil)
	}
	return true
}

// markDown drops wc if it is still the live connection, and closes it.
func (l *Link) markDown(wc *wireConn) {
	l.mu.Lock()
	if l.wc == wc {
		l.wc = nil
		poke(l.out.room) // a sender waiting for room finds the link down
	}
	l.mu.Unlock()
	wc.conn.Close()
}
