package sensornet

import (
	"errors"
	"fmt"

	"pervasivegrid/internal/simevent"
)

// CollectRequest describes one round of aggregate data collection: sample
// every selected sensor once and deliver the aggregate (or the raw
// readings, depending on the strategy) to the base station.
type CollectRequest struct {
	// Agg is the aggregate the base station must end up with.
	Agg AggKind
	// Select filters sensors (the WHERE clause); nil selects all.
	Select func(*Node) bool
	// Time is the virtual sampling timestamp.
	Time float64
}

// CollectResult reports one collection round.
type CollectResult struct {
	// Value is the aggregate observed at the base station.
	Value float64
	// Coverage is how many sensor readings contributed to Value.
	Coverage int
	// Selected is how many alive sensors matched the predicate.
	Selected int
	// Latency is the virtual time from round start to the last delivery
	// at the base station.
	Latency float64
	// Messages, Bytes, and EnergyJ are the round's network cost.
	Messages int
	Bytes    int
	EnergyJ  float64
	// Readings holds the raw readings when the strategy delivers raw
	// data to the base station (direct collection); nil otherwise.
	Readings []Reading
}

// Strategy is a data-collection solution model from §4 of the paper: a way
// to move sensor data (or partial aggregates) to the base station.
type Strategy interface {
	// Name identifies the strategy in experiment tables.
	Name() string
	// Collect performs one collection round on the network. The network
	// kernel is run to completion within the call.
	Collect(nw *Network, req CollectRequest) (CollectResult, error)
}

// ErrUnreachable indicates no selected sensor can reach the base station.
var ErrUnreachable = errors.New("sensornet: no selected sensor can reach the base station")

// selectedReachable returns the selected alive sensors that have a route to
// the base station under the given hop tree.
func selectedReachable(nw *Network, tree map[NodeID]NodeID, sel func(*Node) bool) []*Node {
	var out []*Node
	for _, s := range nw.Sensors {
		if !s.Alive() {
			continue
		}
		if sel != nil && !sel(s) {
			continue
		}
		if _, ok := tree[s.ID]; !ok {
			continue
		}
		out = append(out, s)
	}
	return out
}

// collected closes a collection round that began at start with the
// accounting before; base is what reached the base station.
func (nw *Network) collected(req CollectRequest, before Stats, start, last simevent.Time, base Partial, selected int) CollectResult {
	after := nw.Stats()
	return CollectResult{
		Value:    base.Final(req.Agg),
		Coverage: int(base.Count),
		Selected: selected,
		Latency:  float64(last - start),
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
		EnergyJ:  after.EnergyJ - before.EnergyJ,
	}
}

// DirectStrategy ships every raw reading hop-by-hop to the base station,
// which computes the aggregate centrally. This is the paper's "all sensors
// send their data to the base station" baseline.
type DirectStrategy struct{}

// Name implements Strategy.
func (DirectStrategy) Name() string { return "direct" }

// Collect implements Strategy.
func (DirectStrategy) Collect(nw *Network, req CollectRequest) (CollectResult, error) {
	start := nw.Kernel.Now()
	statsBefore := nw.Stats()
	tree := nw.HopTree()
	selected := selectedReachable(nw, tree, req.Select)
	if len(selected) == 0 {
		return CollectResult{}, ErrUnreachable
	}

	var agg Partial
	var readings []Reading
	last := start
	sample := make([]Reading, len(nw.Sensors)) // by the reading's sensor

	// hop carries the reading of sensor origin one hop toward the base
	// station, cur being the node that holds it.
	var hop Deliver
	hop = func(cur, origin NodeID, at simevent.Time) {
		last = max(last, at)
		if cur == BaseStationID {
			nw.Compute(BaseStationID, 1) // one aggregation step at base
			agg.Add(sample[origin].Value)
			readings = append(readings, sample[origin])
		} else if parent, ok := tree[cur]; ok { // else the route was lost
			nw.Send(cur, parent, RawReadingBytes, hop, origin)
		}
	}

	for _, s := range selected {
		sample[s.ID] = nw.Sampler.Sample(s, req.Time)
		nw.Send(s.ID, tree[s.ID], RawReadingBytes, hop, s.ID)
	}
	nw.Kernel.RunAll()

	res := nw.collected(req, statsBefore, start, last, agg, len(selected))
	res.Readings = readings
	return res, nil
}

// TreeStrategy performs TAG-style in-network aggregation over a hop tree:
// each node merges its children's partial state records with its own
// reading and ships exactly one partial state record to its parent.
type TreeStrategy struct{}

// Name implements Strategy.
func (TreeStrategy) Name() string { return "tree" }

// Collect implements Strategy.
func (TreeStrategy) Collect(nw *Network, req CollectRequest) (CollectResult, error) {
	start := nw.Kernel.Now()
	statsBefore := nw.Stats()
	tree := nw.HopTree()
	selected := selectedReachable(nw, tree, req.Select)
	if len(selected) == 0 {
		return CollectResult{}, ErrUnreachable
	}
	// Sensor IDs are dense (0..n-1), so the round's per-node state lives in
	// slices indexed by ID and every walk over it is in ID order: which
	// sensor draws which noise sample, and the order partials merge at equal
	// timestamps, repeat from a seed.
	n := len(nw.Sensors)

	// participants are every node on a route from a selected sensor to
	// the base: non-selected relay nodes still forward partials.
	participant := make([]bool, n)
	for _, s := range selected {
		for cur := s.ID; cur != BaseStationID && !participant[cur]; cur = tree[cur] {
			participant[cur] = true
		}
	}

	// expected child partials per participant node.
	expected := make([]int, n)
	for id, in := range participant {
		if !in {
			continue
		}
		if p := tree[NodeID(id)]; p != BaseStationID {
			expected[p]++
		}
	}

	state := make([]Partial, n)
	for _, s := range selected {
		r := nw.Sampler.Sample(s, req.Time)
		state[s.ID].Add(r.Value)
		nw.Compute(s.ID, 1)
	}

	var baseAgg Partial
	last := start
	received := make([]int, n)

	// A node sends once, after every child has reported or failed, so its
	// state no longer changes and the parent merges it on arrival.
	var sendUp func(id NodeID)
	merge := func(parent, child NodeID, at simevent.Time) {
		last = max(last, at)
		if parent == BaseStationID {
			nw.Compute(BaseStationID, 1)
			baseAgg.Merge(state[child])
			return
		}
		nw.Compute(parent, 1)
		state[parent].Merge(state[child])
		received[parent]++
		if received[parent] >= expected[parent] {
			sendUp(parent)
		}
	}
	sendUp = func(id NodeID) {
		parent := tree[id]
		ok := nw.Send(id, parent, PartialStateBytes, merge, id)
		if !ok && parent != BaseStationID {
			// The link failed (a node died mid-round). The parent will
			// never hear from this child; lower its expectation so the
			// round still completes, losing this subtree's data — the
			// graceful-degradation behaviour the paper calls for.
			expected[parent]--
			if received[parent] >= expected[parent] && expected[parent] >= 0 {
				sendUp(parent)
			}
		}
	}

	// Leaves (participants with no expected children) fire first; inner
	// nodes fire when all children have reported. The leaves are fixed
	// before any of them sends: a failed send drops its parent's
	// expectation to zero and fires the parent at once, and that parent
	// must not be taken for a leaf and fire a second time.
	var leaves []NodeID
	for id, in := range participant {
		if in && expected[id] == 0 {
			leaves = append(leaves, NodeID(id))
		}
	}
	for _, id := range leaves {
		sendUp(id)
	}
	nw.Kernel.RunAll()

	return nw.collected(req, statsBefore, start, last, baseAgg, len(selected)), nil
}

// ClusterStrategy groups sensors into clusters with heads (LEACH-style):
// members send raw readings one hop to their head, heads aggregate locally
// and ship one partial state record to the base station along the hop tree.
type ClusterStrategy struct {
	round int
}

// ClusterHeadFraction is the fraction of alive sensors ClusterStrategy
// elects head each round. Heads are rotated by round counter so the role's
// energy burden is shared; the partition cost model prices cluster
// collection at the same density.
const ClusterHeadFraction = 0.1

// Name implements Strategy.
func (c *ClusterStrategy) Name() string { return "cluster" }

// Collect implements Strategy.
func (c *ClusterStrategy) Collect(nw *Network, req CollectRequest) (CollectResult, error) {
	start := nw.Kernel.Now()
	statsBefore := nw.Stats()
	tree := nw.HopTree()
	selected := selectedReachable(nw, tree, req.Select)
	if len(selected) == 0 {
		return CollectResult{}, ErrUnreachable
	}
	c.round++

	// Deterministic rotating head election: a sensor is a head this
	// round when (id + round*stride) mod period < frac*period.
	period := 1000
	stride := 137
	isHead := func(id NodeID) bool {
		h := (int(id)*31 + c.round*stride) % period
		if h < 0 {
			h += period
		}
		return float64(h) < ClusterHeadFraction*float64(period)
	}

	var heads []*Node
	for _, s := range selected {
		if isHead(s.ID) {
			heads = append(heads, s)
		}
	}
	if len(heads) == 0 {
		heads = append(heads, selected[0]) // guarantee at least one head
	}

	// Assign each selected sensor to the nearest head in radio range;
	// sensors with no head in range act as their own head. Per-head state
	// is indexed by sensor ID and walked in ID order, as in TreeStrategy.
	n := len(nw.Sensors)
	members := make([][]*Node, n)
	for _, s := range selected {
		best := NodeID(-2)
		bestD := 0.0
		for _, h := range heads {
			d := s.Pos.Distance(h.Pos)
			if d <= nw.Cfg.RadioRange && (best == -2 || d < bestD) {
				best, bestD = h.ID, d
			}
		}
		if best == -2 {
			best = s.ID // own head
		}
		members[best] = append(members[best], s)
	}

	var baseAgg Partial
	last := start
	expected := make([]int, n) // raw readings each head waits for
	headState := make([]Partial, n)
	for head, ms := range members {
		if ms == nil {
			continue
		}
		for _, m := range ms {
			if m.ID != NodeID(head) {
				expected[head]++
			}
		}
		// The head samples itself if it is a selected sensor (it always
		// is: heads are drawn from selected).
		r := nw.Sampler.Sample(nw.Sensors[head], req.Time)
		headState[head].Add(r.Value)
		nw.Compute(NodeID(head), 1)
	}

	// ship forwards a head's partial record, cur holding it, one hop along
	// the hop tree toward the base. A head ships once, after its last
	// member reported or failed, so the record no longer changes.
	var ship Deliver
	ship = func(cur, head NodeID, at simevent.Time) {
		last = max(last, at)
		if cur == BaseStationID {
			nw.Compute(BaseStationID, 1)
			baseAgg.Merge(headState[head])
		} else if parent, ok := tree[cur]; ok {
			nw.Send(cur, parent, PartialStateBytes, ship, head)
		}
	}
	headDone := func(head NodeID) {
		if parent, ok := tree[head]; ok {
			nw.Send(head, parent, PartialStateBytes, ship, head)
		}
	}
	reading := make([]float64, n) // each member's raw reading, by ID
	report := func(head, member NodeID, at simevent.Time) {
		last = max(last, at)
		nw.Compute(head, 1)
		headState[head].Add(reading[member])
		expected[head]--
		if expected[head] == 0 {
			headDone(head)
		}
	}

	for id, ms := range members {
		if ms == nil {
			continue
		}
		head := NodeID(id)
		if expected[head] == 0 {
			headDone(head)
			continue
		}
		for _, m := range ms {
			if m.ID == head {
				continue
			}
			reading[m.ID] = nw.Sampler.Sample(m, req.Time).Value
			if !nw.Send(m.ID, head, RawReadingBytes, report, m.ID) {
				expected[head]--
				if expected[head] == 0 {
					headDone(head)
				}
			}
		}
	}
	nw.Kernel.RunAll()

	return nw.collected(req, statsBefore, start, last, baseAgg, len(selected)), nil
}

// StrategyByName resolves a solution-model name used in experiment tables.
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "direct":
		return DirectStrategy{}, nil
	case "tree":
		return TreeStrategy{}, nil
	case "cluster":
		return &ClusterStrategy{}, nil
	}
	return nil, fmt.Errorf("sensornet: unknown strategy %q", name)
}
