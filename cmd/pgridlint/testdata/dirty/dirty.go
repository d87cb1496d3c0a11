// Package dirty is a pgridlint CLI fixture with seeded violations:
// one rawclock hit and an unstoppable, unfenced goroutine (rawspawn).
package dirty

import "time"

// Stamp reads the wall clock directly.
func Stamp() time.Time {
	return time.Now()
}

// Pump leaks a goroutine with no stop path.
func Pump(ch chan int) {
	go func() {
		for {
			<-ch
		}
	}()
}

// Quiet is a suppressed violation: it must NOT count as a finding.
func Quiet() {
	//lint:ignore rawclock CLI fixture demonstrates suppression end-to-end
	time.Sleep(time.Millisecond)
}
