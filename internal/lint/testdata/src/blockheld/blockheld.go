// Package blockheld is the fixture corpus for the blockheld analyzer:
// blocking operations under a lock — direct, and reached through helper
// calls up to three deep — plus the shapes that must stay silent
// (blocking after Unlock, non-blocking select polls, collect-then-deliver).
package blockheld

import "sync"

// Deputy is a concrete delivery target whose Deliver parks on a
// channel, like a full mailbox does.
type Deputy struct{ ch chan int }

func (d *Deputy) Deliver(v int) { d.ch <- v }

type Node struct {
	mu  sync.Mutex
	ch  chan int
	wg  sync.WaitGroup
	dep *Deputy
}

// directSend blocks on the channel inside the critical section.
func (n *Node) directSend(v int) {
	n.mu.Lock()
	n.ch <- v // want blockheld
	n.mu.Unlock()
}

// h3/h2/h1: the blocking receive sits three helper calls below the
// lock holder.
func (n *Node) h3() { <-n.ch }

func (n *Node) h2() { n.h3() }

func (n *Node) h1() { n.h2() }

func (n *Node) chain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.h1() // want blockheld
}

// flush hides the PR 1 deliver-under-lock shape one call deep: the
// caller holds the lock, the helper delivers.
func (n *Node) flush(v int) { n.dep.Deliver(v) }

func (n *Node) deliverViaHelper(v int) {
	n.mu.Lock()
	n.flush(v) // want blockheld
	n.mu.Unlock()
}

// deliverDirect is the literal PR 1 shape: Deliver between Lock and
// Unlock in one body.
func (n *Node) deliverDirect(v int) {
	n.mu.Lock()
	n.dep.Deliver(v) // want blockheld
	n.mu.Unlock()
}

// Sink is an interface delivery target, like agent.Deputy: the call does
// not resolve, so the method name is the fact.
type Sink interface {
	Deliver(v int) error
}

// Box guards a buffer with a mutex and forwards to next.
type Box struct {
	mu     sync.Mutex
	buffer []int
	next   Sink
}

// deliverDeferred holds the lock (via defer) across the delivery.
func (b *Box) deliverDeferred(v int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next.Deliver(v) // want blockheld
}

// collectThenDeliver collects under the lock and delivers after
// releasing it — the shape the PR 1 DisconnectionDeputy fix established.
func (b *Box) collectThenDeliver() {
	b.mu.Lock()
	buf := b.buffer
	b.buffer = nil
	b.mu.Unlock()
	for _, v := range buf {
		_ = b.next.Deliver(v)
	}
}

// deliverSuppressed documents a passthrough that is safe by construction.
func (b *Box) deliverSuppressed(v int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	//lint:ignore blockheld fixture: next is non-blocking by contract
	return b.next.Deliver(v)
}

// wait parks on the WaitGroup with the lock held.
func (n *Node) wait() {
	n.mu.Lock()
	n.wg.Wait() // want blockheld
	n.mu.Unlock()
}

// sel blocks in a select with no default.
func (n *Node) sel() {
	n.mu.Lock()
	select { // want blockheld
	case v := <-n.ch:
		_ = v
	}
	n.mu.Unlock()
}

// poll is a non-blocking select: the default clause makes the receive a
// peek, so holding the lock across it is fine.
func (n *Node) poll() {
	n.mu.Lock()
	select {
	case v := <-n.ch:
		_ = v
	default:
	}
	n.mu.Unlock()
}

// afterUnlock releases the lock before blocking — the fix the rule
// suggests, and it must stay silent.
func (n *Node) afterUnlock(v int) {
	n.mu.Lock()
	n.mu.Unlock()
	n.ch <- v
}

// spawned launches the blocking chain in a fresh goroutine: the
// spawner does not block, so holding the lock across the go statement
// is fine (goroutine discipline is rawspawn's business).
func (n *Node) spawned() {
	n.mu.Lock()
	go n.h1()
	n.mu.Unlock()
}

// suppressed: an accepted blocking send under the lock, excused with a
// reason; the directive keeps the finding out and deadignore considers
// the directive live.
func (n *Node) suppressed(v int) {
	n.mu.Lock()
	//lint:ignore blockheld fixture exercises the suppression path
	n.ch <- v
	n.mu.Unlock()
}
