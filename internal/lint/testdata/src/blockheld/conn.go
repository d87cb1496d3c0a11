package blockheld

import (
	"net"
	"strings"
	"sync"
)

// Wire writes frames to a connection: socket I/O blocks for as long as the
// peer does not read, so it must not run under a lock.
type Wire struct {
	mu   sync.Mutex
	conn net.Conn
	tcp  *net.TCPConn
	log  strings.Builder
}

// writeLocked holds the lock across net.Conn's Write.
func (w *Wire) writeLocked(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.conn.Write(b) // want blockheld
	return err
}

// readTCP holds the lock across a concrete connection's Read.
func (w *Wire) readTCP(b []byte) {
	w.mu.Lock()
	_, _ = w.tcp.Read(b) // want blockheld
	w.mu.Unlock()
}

// send hides the write one call deep.
func (w *Wire) send(b []byte) { _, _ = w.conn.Write(b) }

func (w *Wire) sendLocked(b []byte) {
	w.mu.Lock()
	w.send(b) // want blockheld
	w.mu.Unlock()
}

// writeUnlocked takes the connection under the lock and writes after
// releasing it.
func (w *Wire) writeUnlocked(b []byte) {
	w.mu.Lock()
	c := w.conn
	w.mu.Unlock()
	_, _ = c.Write(b)
}

// note writes to memory, not a socket: a Write outside package net is no
// blocking operation.
func (w *Wire) note(s string) {
	w.mu.Lock()
	w.log.WriteString(s)
	_, _ = w.log.Write([]byte(s))
	w.mu.Unlock()
}
