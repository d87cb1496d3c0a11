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

	// forward pushes one raw reading from cur toward the base station.
	var forward func(cur NodeID, r Reading)
	forward = func(cur NodeID, r Reading) {
		parent, ok := tree[cur]
		if !ok && cur != BaseStationID {
			return // route lost (node died mid-round)
		}
		nw.Send(cur, parent, RawReadingBytes, func(at simevent.Time) {
			if float64(at) > float64(last) {
				last = at
			}
			if parent == BaseStationID {
				nw.Compute(BaseStationID, 1) // one aggregation step at base
				agg.Add(r.Value)
				readings = append(readings, r)
				return
			}
			forward(parent, r)
		})
	}

	for _, s := range selected {
		r := nw.Sampler.Sample(s, req.Time)
		forward(s.ID, r)
	}
	nw.Kernel.RunAll()

	statsAfter := nw.Stats()
	return CollectResult{
		Value:    agg.Final(req.Agg),
		Coverage: int(agg.Count),
		Selected: len(selected),
		Latency:  float64(last - start),
		Messages: statsAfter.Messages - statsBefore.Messages,
		Bytes:    statsAfter.Bytes - statsBefore.Bytes,
		EnergyJ:  statsAfter.EnergyJ - statsBefore.EnergyJ,
		Readings: readings,
	}, nil
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

	var sendUp func(id NodeID)
	sendUp = func(id NodeID) {
		parent := tree[id]
		payload := state[id]
		ok := nw.Send(id, parent, PartialStateBytes, func(at simevent.Time) {
			if float64(at) > float64(last) {
				last = at
			}
			if parent == BaseStationID {
				nw.Compute(BaseStationID, 1)
				baseAgg.Merge(payload)
				return
			}
			nw.Compute(parent, 1)
			state[parent].Merge(payload)
			received[parent]++
			if received[parent] >= expected[parent] {
				sendUp(parent)
			}
		})
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

	statsAfter := nw.Stats()
	return CollectResult{
		Value:    baseAgg.Final(req.Agg),
		Coverage: int(baseAgg.Count),
		Selected: len(selected),
		Latency:  float64(last - start),
		Messages: statsAfter.Messages - statsBefore.Messages,
		Bytes:    statsAfter.Bytes - statsBefore.Bytes,
		EnergyJ:  statsAfter.EnergyJ - statsBefore.EnergyJ,
	}, nil
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

	// shipUp forwards one partial record from a head to the base along
	// the hop tree.
	var shipUp func(cur NodeID, payload Partial)
	shipUp = func(cur NodeID, payload Partial) {
		parent, ok := tree[cur]
		if !ok {
			return
		}
		nw.Send(cur, parent, PartialStateBytes, func(at simevent.Time) {
			if float64(at) > float64(last) {
				last = at
			}
			if parent == BaseStationID {
				nw.Compute(BaseStationID, 1)
				baseAgg.Merge(payload)
				return
			}
			shipUp(parent, payload)
		})
	}

	headDone := func(head NodeID) {
		shipUp(head, headState[head])
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
			r := nw.Sampler.Sample(m, req.Time)
			v := r.Value
			ok := nw.Send(m.ID, head, RawReadingBytes, func(at simevent.Time) {
				if float64(at) > float64(last) {
					last = at
				}
				nw.Compute(head, 1)
				headState[head].Add(v)
				expected[head]--
				if expected[head] == 0 {
					headDone(head)
				}
			})
			if !ok {
				expected[head]--
				if expected[head] == 0 {
					headDone(head)
				}
			}
		}
	}
	nw.Kernel.RunAll()

	statsAfter := nw.Stats()
	return CollectResult{
		Value:    baseAgg.Final(req.Agg),
		Coverage: int(baseAgg.Count),
		Selected: len(selected),
		Latency:  float64(last - start),
		Messages: statsAfter.Messages - statsBefore.Messages,
		Bytes:    statsAfter.Bytes - statsBefore.Bytes,
		EnergyJ:  statsAfter.EnergyJ - statsBefore.EnergyJ,
	}, nil
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
