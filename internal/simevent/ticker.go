package simevent

// Ticker schedules a handler at a fixed virtual period until stopped. It is
// the building block for epoch-driven continuous queries and periodic
// sensor sampling.
type Ticker struct {
	k       *Kernel
	period  Duration
	label   string
	fn      func(Time)
	fire    Handler // t.tick, bound once so re-arming allocates nothing
	pending EventID
	stopped bool
}

// NewTicker creates a ticker that calls fn every period, with the first
// firing one period from now. Call Start to arm it.
func NewTicker(k *Kernel, period Duration, label string, fn func(Time)) *Ticker {
	t := &Ticker{k: k, period: period, label: label, fn: fn}
	t.fire = t.tick
	return t
}

// Start arms the ticker. Starting an already-started ticker is a no-op.
func (t *Ticker) Start() error {
	if t.pending != 0 || t.stopped {
		return nil
	}
	return t.arm()
}

func (t *Ticker) arm() (err error) {
	t.pending, err = t.k.After(t.period, t.label, t.fire)
	return err
}

// tick runs fn and re-arms. Stop cancels the pending tick, so a tick never
// runs after it; Stop from inside fn leaves the ticker dormant, and so does
// a handler that stops the kernel.
func (t *Ticker) tick() {
	t.pending = 0
	t.fn(t.k.Now())
	if !t.stopped && t.arm() != nil {
		t.stopped = true
	}
}

// Stop disarms the ticker. A stopped ticker never fires again.
func (t *Ticker) Stop() {
	t.stopped = true
	t.k.Cancel(t.pending) // 0 when nothing is armed: no event has that ID
	t.pending = 0
}
