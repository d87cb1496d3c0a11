package simevent

// Ticker schedules a handler at a fixed virtual period until stopped. It is
// the building block for epoch-driven continuous queries and periodic
// sensor sampling.
type Ticker struct {
	k       *Kernel
	period  Duration
	label   string
	fn      func(Time)
	pending EventID
	stopped bool
}

// NewTicker creates a ticker that calls fn every period, with the first
// firing one period from now. Call Start to arm it.
func NewTicker(k *Kernel, period Duration, label string, fn func(Time)) *Ticker {
	return &Ticker{k: k, period: period, label: label, fn: fn}
}

// Start arms the ticker. Starting an already-started ticker is a no-op.
func (t *Ticker) Start() error {
	if t.pending != 0 || t.stopped {
		return nil
	}
	return t.arm()
}

func (t *Ticker) arm() error {
	id, err := t.k.After(t.period, t.label, t.fire)
	if err != nil {
		return err
	}
	t.pending = id
	return nil
}

func (t *Ticker) fire() {
	t.pending = 0
	if t.stopped {
		return
	}
	t.fn(t.k.Now())
	if !t.stopped {
		// Re-arm; a handler that stops the kernel leaves the ticker dormant.
		if err := t.arm(); err != nil {
			t.stopped = true
		}
	}
}

// Stop disarms the ticker. A stopped ticker never fires again.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.pending != 0 {
		t.k.Cancel(t.pending)
		t.pending = 0
	}
}
