// Package rawspawn is a pgridlint fixture: long-running goroutines with
// and without a stop signal, launched raw versus through a supervision
// fence.
package rawspawn

// pump loops forever; anything that go-spawns it raw is flagged.
func pump(ch chan int, done chan struct{}) {
	for {
		select {
		case <-ch:
		case <-done:
			return
		}
	}
}

// finite runs to completion.
func finite(ch chan int) {
	for i := 0; i < 4; i++ {
		ch <- i
	}
}

type worker struct {
	ch   chan int
	done chan struct{}
}

// loop is a long-running method body.
func (w *worker) loop() {
	for {
		select {
		case <-w.ch:
		case <-w.done:
			return
		}
	}
}

// BadLeaky spins forever with no way to stop it — flagged even where raw
// spawns are allowed.
func BadLeaky(ch chan int) {
	go func() { // want rawspawn
		for {
			<-ch
		}
	}()
}

// BadLiteral spawns a looping literal raw: stoppable, but a panic inside
// still dies unfenced.
func BadLiteral(ch chan int, done chan struct{}) {
	go func() { // want rawspawn
		for {
			select {
			case <-ch:
			case <-done:
				return
			}
		}
	}()
}

// BadNamed spawns a looping same-package function raw: the callee has a
// stop path, but the panic fence is missing.
func BadNamed(ch chan int, done chan struct{}) {
	go pump(ch, done) // want rawspawn
}

// BadMethod spawns a looping method raw.
func BadMethod(w *worker) {
	go w.loop() // want rawspawn
}

// GoodFinite runs to completion; raw is fine.
func GoodFinite(ch chan int) {
	go finite(ch)
}

// GoodLiteralBounded ends on its own.
func GoodLiteralBounded(ch chan int) {
	go func() {
		for i := 0; i < 2; i++ {
			ch <- i
		}
	}()
}

// GoodRange ends when the channel closes.
func GoodRange(ch chan int) {
	go func() {
		for v := range ch {
			_ = v
		}
	}()
}

// SuppressedLeaky is a process-lifetime goroutine by design.
func SuppressedLeaky(ch chan int) {
	//lint:ignore rawspawn fixture: process-lifetime pump by design
	go func() {
		for {
			<-ch
		}
	}()
}

// Suppressed documents a deliberate raw spawn.
func Suppressed(w *worker) {
	//lint:ignore rawspawn fixture: fence lives in the caller
	go w.loop()
}
