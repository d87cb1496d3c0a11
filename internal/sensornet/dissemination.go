package sensornet

import (
	"fmt"

	"pervasivegrid/internal/simevent"
)

// DisseminationResult reports a query-installation round: how the query
// text reached the sensors ("Install Query" in the paper's Figure 1).
type DisseminationResult struct {
	// Reached is how many distinct sensors received the message.
	Reached int
	// Latency is the virtual time until the last first-time reception.
	Latency float64
	// Messages, Bytes, EnergyJ are the round's network cost.
	Messages int
	Bytes    int
	EnergyJ  float64
}

// newSeen returns the set of nodes a dissemination round has reached,
// indexed by ID+1 (the base station is -1), with origin in it. Only nodes
// that exist can receive, so the slice covers every index a delivery uses.
func newSeen(nw *Network, origin NodeID) []bool {
	seen := make([]bool, len(nw.Sensors)+1)
	if nw.Node(origin) != nil {
		seen[origin+1] = true
	}
	return seen
}

// disseminated closes a dissemination round that began at start with the
// accounting before.
func (nw *Network) disseminated(before Stats, start, last simevent.Time, reached int) DisseminationResult {
	after := nw.Stats()
	return DisseminationResult{
		Reached:  reached,
		Latency:  float64(last - start),
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
		EnergyJ:  after.EnergyJ - before.EnergyJ,
	}
}

// Flood disseminates payloadBytes from origin using classic flooding: every
// node rebroadcasts the first copy it receives exactly once. The paper
// names flooding as one data-routing technique a network may use.
func Flood(nw *Network, origin NodeID, payloadBytes int) DisseminationResult {
	start := nw.Kernel.Now()
	statsBefore := nw.Stats()
	seen := newSeen(nw, origin)
	reached := 0 // first receptions, so the origin is not counted
	last := start

	var relay Deliver
	relay = func(to, _ NodeID, at simevent.Time) {
		if seen[to+1] {
			return
		}
		seen[to+1] = true
		reached++
		last = max(last, at)
		nw.Broadcast(to, payloadBytes, relay)
	}
	nw.Broadcast(origin, payloadBytes, relay)
	nw.Kernel.RunAll()

	return nw.disseminated(statsBefore, start, last, reached)
}

// Unicast routes a payload from a sensor to the base station hop-by-hop
// along the current hop tree and reports the delivery result. It is the
// primitive behind simple (single-sensor) queries.
func Unicast(nw *Network, from NodeID, payloadBytes int) (DisseminationResult, error) {
	start := nw.Kernel.Now()
	statsBefore := nw.Stats()
	tree := nw.HopTree()
	if _, ok := tree[from]; !ok {
		return DisseminationResult{}, fmt.Errorf("sensornet: node %d cannot reach base station", from)
	}
	last := start
	reached := 0 // 1 once the payload reaches the base station

	var hop Deliver
	hop = func(cur, _ NodeID, at simevent.Time) {
		last = max(last, at)
		if cur == BaseStationID {
			reached = 1
		} else if parent, ok := tree[cur]; ok {
			nw.Send(cur, parent, payloadBytes, hop, 0)
		}
	}
	nw.Send(from, tree[from], payloadBytes, hop, 0)
	nw.Kernel.RunAll()

	return nw.disseminated(statsBefore, start, last, reached), nil
}
