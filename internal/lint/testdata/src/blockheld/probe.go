package blockheld

import (
	"os"
	"sync"
)

// Probe opens a file under its lock. The call is os.Open, which does not
// block here; a resolver that matched callees by name would wire it to
// this package's Open below and report it.
type Probe struct{ mu sync.Mutex }

func (p *Probe) probe(path string) error {
	p.mu.Lock()
	f, err := os.Open(path)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return f.Close()
}

// Open blocks on a channel: a call to it under a lock is a finding.
func Open(ch chan int) int { return <-ch }
