package sensornet

import (
	"math/rand"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/simevent"
)

// Config parameterises a simulated network.
type Config struct {
	// Width and Height bound the deployment area in meters.
	Width, Height float64
	// RadioRange is the maximum link distance in meters.
	RadioRange float64
	// BandwidthBps is the radio bandwidth in bits per second.
	BandwidthBps float64
	// HopDelay is a fixed per-hop MAC/processing delay in seconds.
	HopDelay float64
	// HeaderBytes is the per-message overhead added to every payload.
	HeaderBytes int
	// InitialEnergy is the battery per sensor in joules.
	InitialEnergy float64
	// BasePos places the base station; defaults to the area corner.
	BasePos Position
	// Energy is the radio/computation energy model.
	Energy EnergyModel
	// Seed makes placement and protocol randomness reproducible.
	Seed int64
}

// DefaultConfig returns a 100 m × 100 m network with mica-mote-like
// parameters: 30 m radio range, 40 kbit/s bandwidth, 2 J batteries.
func DefaultConfig() Config {
	return Config{
		Width:         100,
		Height:        100,
		RadioRange:    30,
		BandwidthBps:  40_000,
		HopDelay:      0.002,
		HeaderBytes:   8,
		InitialEnergy: 2.0,
		BasePos:       Position{X: 50, Y: 0},
		Energy:        DefaultEnergyModel(),
		Seed:          1,
	}
}

// Stats accumulates network-wide accounting for an experiment window.
type Stats struct {
	Messages   int     // transmissions (a broadcast counts once)
	Deliveries int     // successful receptions
	Bytes      int     // payload+header bytes transmitted
	Dropped    int     // sends that failed (dead or out-of-range nodes)
	Lost       int     // transmissions lost to the radio loss model
	EnergyJ    float64 // total energy drained from sensors
	ComputeOps float64 // abstract in-network computation performed
}

// Network is a simulated sensor network attached to a discrete-event
// kernel.
type Network struct {
	Cfg     Config
	Kernel  *simevent.Kernel
	Base    *Node
	Sensors []*Node
	Sampler *Sampler

	// Metrics, when set, mirrors the Stats accounting as sensornet_*
	// gauges after every radio/compute operation, so a live /metrics
	// endpoint sees energy and traffic without polling Stats().
	Metrics *obs.Registry

	stats    Stats
	rng      *rand.Rand
	lossProb float64
	// tree caches the hop tree; see currentTree.
	tree   *hopTree
	gauges statGauges

	// inflight holds the deliveries of the messages on the air, each
	// kernel event a run of them (one for a send, every receiver of a
	// broadcast). It is cut back whenever the kernel drains.
	inflight []delivery
	land     simevent.Func // nw.dispatch, bound once
}

// Deliver handles a radio message arriving at node to at virtual time at;
// arg is what the sender passed with it (the broadcaster, for Broadcast). A
// round binds its Deliver once and keeps per-message state in slices the
// arg indexes, so a message in flight costs no closure.
type Deliver func(to, arg NodeID, at simevent.Time)

// delivery is one receiver of one message in flight. A flood's peak holds
// every reception at once, so node IDs are packed into 32 bits.
type delivery struct {
	h       Deliver
	to, arg int32
}

// statGauges are the handles of the sensornet_* series in one registry.
type statGauges struct {
	reg                                 *obs.Registry
	energy, messages, deliveries, bytes *obs.Gauge
	lost, dropped, computeOps           *obs.Gauge
}

// mirror publishes the current accounting into the metrics registry. The
// gauge handles are looked up once per registry (Metrics is a field anyone
// may repoint), not once per radio operation.
func (nw *Network) mirror() {
	if nw.Metrics == nil {
		return
	}
	g := &nw.gauges
	if g.reg != nw.Metrics {
		m := nw.Metrics
		*g = statGauges{
			reg:        m,
			energy:     m.Gauge("sensornet_energy_joules"),
			messages:   m.Gauge("sensornet_messages"),
			deliveries: m.Gauge("sensornet_deliveries"),
			bytes:      m.Gauge("sensornet_bytes"),
			lost:       m.Gauge("sensornet_lost"),
			dropped:    m.Gauge("sensornet_dropped"),
			computeOps: m.Gauge("sensornet_compute_ops"),
		}
	}
	g.energy.Set(nw.stats.EnergyJ)
	g.messages.Set(float64(nw.stats.Messages))
	g.deliveries.Set(float64(nw.stats.Deliveries))
	g.bytes.Set(float64(nw.stats.Bytes))
	g.lost.Set(float64(nw.stats.Lost))
	g.dropped.Set(float64(nw.stats.Dropped))
	g.computeOps.Set(nw.stats.ComputeOps)
}

// NewNetwork builds a network with the given sensor positions. Positions
// outside the configured area are accepted; the area only guides random
// placement helpers.
func NewNetwork(cfg Config, positions []Position) *Network {
	nw := &Network{
		Cfg:    cfg,
		Kernel: simevent.NewKernel(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	nw.Base = &Node{ID: BaseStationID, Pos: cfg.BasePos, Energy: 1e12, InitialEnergy: 1e12}
	nw.Sensors = make([]*Node, len(positions))
	for i, p := range positions {
		nw.Sensors[i] = &Node{
			ID: NodeID(i), Pos: p,
			Energy: cfg.InitialEnergy, InitialEnergy: cfg.InitialEnergy,
		}
	}
	nw.Sampler = NewSampler(UniformField(0), 0, cfg.Seed+1)
	nw.land = nw.dispatch
	nw.rebuildNeighbors()
	return nw
}

// NewGridNetwork places rows×cols sensors on a regular lattice filling the
// configured area.
func NewGridNetwork(cfg Config, rows, cols int) *Network {
	positions := make([]Position, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x := cfg.Width * (float64(c) + 0.5) / float64(cols)
			y := cfg.Height * (float64(r) + 0.5) / float64(rows)
			positions = append(positions, Position{X: x, Y: y})
		}
	}
	return NewNetwork(cfg, positions)
}

// SetField installs the physical field sensors sample, with measurement
// noise of the given standard deviation.
func (nw *Network) SetField(f Field, noise float64) {
	nw.Sampler = NewSampler(f, noise, nw.Cfg.Seed+1)
}

// Node returns the node with the given ID (the base station for
// BaseStationID), or nil if out of range.
func (nw *Network) Node(id NodeID) *Node {
	if id == BaseStationID {
		return nw.Base
	}
	if id < 0 || int(id) >= len(nw.Sensors) {
		return nil
	}
	return nw.Sensors[id]
}

// Stats returns a copy of the accumulated accounting.
func (nw *Network) Stats() Stats { return nw.stats }

// AliveCount reports how many sensors still have battery.
func (nw *Network) AliveCount() int {
	alive := 0
	for _, s := range nw.Sensors {
		if s.Alive() {
			alive++
		}
	}
	return alive
}

// TotalEnergyUsed reports joules drained across all sensors since
// deployment.
func (nw *Network) TotalEnergyUsed() float64 {
	used := 0.0
	for _, s := range nw.Sensors {
		used += s.InitialEnergy - s.Energy
	}
	return used
}

// rebuildNeighbors recomputes the neighbor lists from positions and radio
// range. O(n²), fine at the network sizes the paper considers.
func (nw *Network) rebuildNeighbors() {
	nw.tree = nil
	all := append([]*Node{nw.Base}, nw.Sensors...)
	for _, n := range all {
		n.Neighbors = n.Neighbors[:0]
	}
	for i, a := range all {
		for _, b := range all[i+1:] {
			if a.Pos.Distance(b.Pos) <= nw.Cfg.RadioRange {
				a.Neighbors = append(a.Neighbors, b.ID)
				b.Neighbors = append(b.Neighbors, a.ID)
			}
		}
	}
}

// InRange reports whether two nodes can communicate directly.
func (nw *Network) InRange(a, b NodeID) bool {
	na, nb := nw.Node(a), nw.Node(b)
	if na == nil || nb == nil {
		return false
	}
	return na.Pos.Distance(nb.Pos) <= nw.Cfg.RadioRange
}

// txDuration returns the virtual time to push a payload onto the air.
func (nw *Network) txDuration(payloadBytes int) simevent.Duration {
	total := float64(payloadBytes+nw.Cfg.HeaderBytes) * 8
	return simevent.Duration(total/nw.Cfg.BandwidthBps) + simevent.Duration(nw.Cfg.HopDelay)
}

// Send transmits payloadBytes from one node to a specific neighbor, calling
// h(to, arg, at) at the virtual delivery time. It reports false (and
// counts a drop) when the sender is dead, the receiver is dead, or the pair
// is out of range. Energy is charged to both endpoints.
//
// Budget 13: the delivery and its growth of inflight (2), what
// Kernel.ScheduleFunc lists (4), and mirror resolving the seven sensornet_*
// gauges the first time a registry is seen (7). Every site is a value,
// an error, a first use, or growth of a buffer that is reused, so a send
// past a run's peak allocates nothing (TestRadioPathAllocs).
//
//lint:hot budget=13
func (nw *Network) Send(from, to NodeID, payloadBytes int, h Deliver, arg NodeID) bool {
	src, dst := nw.Node(from), nw.Node(to)
	if src == nil || dst == nil || !src.Alive() || !dst.Alive() || !nw.InRange(from, to) {
		nw.stats.Dropped++
		return false
	}
	size := payloadBytes + nw.Cfg.HeaderBytes
	tx := nw.Cfg.Energy.TxCost(size, src.Pos.Distance(dst.Pos))
	src.drain(tx)
	src.Sent++
	src.TxBytes += size
	nw.stats.Messages++
	nw.stats.Bytes += size
	if nw.lost() {
		// The sender transmits into the void: it pays, nobody hears.
		nw.stats.Lost++
		nw.stats.EnergyJ += tx
		nw.mirror()
		return false
	}
	rx := nw.Cfg.Energy.RxCost(size)
	dst.drain(rx)
	dst.Received++
	dst.RxBytes += size
	nw.stats.Deliveries++
	nw.stats.EnergyJ += tx + rx
	nw.mirror()
	if h == nil {
		return true
	}
	start := len(nw.inflight)
	nw.inflight = append(nw.inflight, delivery{h: h, to: int32(to), arg: int32(arg)})
	return nw.post(nw.reserveTx(src, payloadBytes), start)
}

// post puts the deliveries inflight[start:] on the air as one kernel event
// at time at, reporting false (and taking them back) when the kernel
// refuses it.
func (nw *Network) post(at simevent.Time, start int) bool {
	run := uint64(start)<<32 | uint64(len(nw.inflight)-start)
	if _, err := nw.Kernel.ScheduleFunc(at, "deliver", nw.land, run); err != nil {
		nw.inflight = nw.inflight[:start]
		return false
	}
	return true
}

// dispatch runs one event's deliveries in order, all at the event's time,
// and stops with the kernel: the order and times one event per delivery
// would give, since those events would carry equal timestamps and
// consecutive sequence numbers.
func (nw *Network) dispatch(run uint64) {
	now := nw.Kernel.Now()
	for i, end := int(run>>32), int(run>>32)+int(uint32(run)); i < end && !nw.Kernel.Stopped(); i++ {
		d := nw.inflight[i] // a copy: the handler may grow inflight
		d.h(NodeID(d.to), NodeID(d.arg), now)
	}
	if nw.Kernel.Pending() == 0 {
		nw.inflight = nw.inflight[:0]
	}
}

// reserveTx serialises a node's transmissions: the radio is half-duplex,
// so a send starts when the previous one finishes. It returns the
// delivery time and advances the node's radio reservation.
func (nw *Network) reserveTx(src *Node, payloadBytes int) simevent.Time {
	start := nw.Kernel.Now()
	if simevent.Time(src.txFree) > start {
		start = simevent.Time(src.txFree)
	}
	end := start + nw.txDuration(payloadBytes)
	src.txFree = float64(end)
	return end
}

// Broadcast transmits payloadBytes from a node to every alive neighbor in
// one radio transmission (the sender pays once at full range; each receiver
// pays reception). h(to, from, at) is called once per receiving neighbor,
// in Neighbors order, from one kernel event at the transmission's end.
//
// Budget 13: the sites Send's budget lists. A broadcast appends its
// receivers to inflight and schedules one event, so past a run's peak it
// allocates nothing, however many neighbors hear it.
//
//lint:hot budget=13
func (nw *Network) Broadcast(from NodeID, payloadBytes int, h Deliver) int {
	src := nw.Node(from)
	if src == nil || !src.Alive() {
		nw.stats.Dropped++
		return 0
	}
	size := payloadBytes + nw.Cfg.HeaderBytes
	src.drain(nw.Cfg.Energy.TxCost(size, nw.Cfg.RadioRange))
	src.Sent++
	src.TxBytes += size
	nw.stats.Messages++
	nw.stats.Bytes += size
	nw.stats.EnergyJ += nw.Cfg.Energy.TxCost(size, nw.Cfg.RadioRange)
	bcastAt := nw.reserveTx(src, payloadBytes)
	start := len(nw.inflight)
	reached := 0
	for _, nbrID := range src.Neighbors {
		dst := nw.Node(nbrID)
		if dst == nil || !dst.Alive() {
			continue
		}
		if nw.lost() {
			nw.stats.Lost++
			continue
		}
		dst.drain(nw.Cfg.Energy.RxCost(size))
		dst.Received++
		dst.RxBytes += size
		nw.stats.Deliveries++
		nw.stats.EnergyJ += nw.Cfg.Energy.RxCost(size)
		reached++
		if h != nil {
			if nw.Kernel.Stopped() {
				break // nothing more can be delivered
			}
			nw.inflight = append(nw.inflight, delivery{h: h, to: int32(nbrID), arg: int32(from)})
		}
	}
	if len(nw.inflight) > start {
		nw.post(bcastAt, start) // cannot fail: bcastAt is not past, the kernel runs
	}
	nw.mirror()
	return reached
}

// Compute charges a node for ops abstract operations of local computation.
func (nw *Network) Compute(id NodeID, ops float64) {
	n := nw.Node(id)
	if n == nil || !n.Alive() {
		return
	}
	n.Computed += ops
	cost := nw.Cfg.Energy.ComputeCost(ops)
	n.drain(cost)
	if n.ID != BaseStationID {
		nw.stats.EnergyJ += cost
		nw.stats.ComputeOps += ops
		nw.mirror()
	}
}

// ChargeIdle drains idle-listening energy from every alive sensor for a
// span of virtual seconds. Lifetime experiments call this once per epoch.
func (nw *Network) ChargeIdle(seconds float64) {
	cost := nw.Cfg.Energy.IdleJPerSec * seconds
	for _, s := range nw.Sensors {
		if s.Alive() {
			s.drain(cost)
			nw.stats.EnergyJ += cost
		}
	}
	nw.mirror()
}

// hopTree is the BFS routing tree rooted at the base station, together with
// the alive flags it was built from. It is immutable once built: HopTree
// hands the parent map out, and collection rounds keep routing along the
// tree they started with while nodes die mid-round.
type hopTree struct {
	parent map[NodeID]NodeID
	// depth is each sensor's hop count to the base station, -1 when
	// unreachable or dead.
	depth []int
	alive []bool
}

// currentTree returns the hop tree for the present topology, rebuilding it
// only when the neighbor lists changed (rebuildNeighbors drops it) or the
// set of alive sensors differs from the one it was built from. The alive
// flags are compared directly, not through a counter drain would bump:
// Node.Energy is exported and tests and callers kill or revive a sensor by
// writing it.
func (nw *Network) currentTree() *hopTree {
	if t := nw.tree; t != nil && len(t.alive) == len(nw.Sensors) {
		same := true
		for i, s := range nw.Sensors {
			if t.alive[i] != s.Alive() {
				same = false
				break
			}
		}
		if same {
			return t
		}
	}
	n := len(nw.Sensors)
	t := &hopTree{
		parent: make(map[NodeID]NodeID, n),
		depth:  make([]int, n),
		alive:  make([]bool, n),
	}
	for i, s := range nw.Sensors {
		t.alive[i] = s.Alive()
		t.depth[i] = -1
	}
	// Breadth-first from the base station over alive sensors, taking each
	// node's neighbors in list order: the first node to reach a sensor
	// becomes its parent.
	queue := make([]NodeID, 0, n+1)
	queue = append(queue, BaseStationID)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		d := 1
		if cur != BaseStationID {
			d = t.depth[cur] + 1
		}
		for _, nbr := range nw.Node(cur).Neighbors {
			if nbr < 0 || int(nbr) >= n || t.depth[nbr] >= 0 || !t.alive[nbr] {
				continue // the base station, an unknown ID, visited, or dead
			}
			t.depth[nbr] = d
			t.parent[nbr] = cur
			queue = append(queue, nbr)
		}
	}
	nw.tree = t
	return t
}

// HopTree returns the BFS hop tree rooted at the base station over alive
// nodes. The result maps each reachable sensor to its parent (toward the
// base). Unreachable sensors are absent. The map is shared between callers
// and must not be modified; a change of topology produces a new map and
// leaves one already handed out as it was.
func (nw *Network) HopTree() map[NodeID]NodeID { return nw.currentTree().parent }

// Depths returns every sensor's hop count to the base station along the
// current hop tree, indexed by sensor ID; -1 marks a sensor that is dead or
// unreachable. Like HopTree's map, the slice is shared and read-only.
func (nw *Network) Depths() []int { return nw.currentTree().depth }
