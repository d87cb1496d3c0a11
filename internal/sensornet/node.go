// Package sensornet simulates wireless sensor networks: node placement,
// radio connectivity, a first-order energy model, data routing (flooding,
// cluster heads, TAG-style aggregation trees), and collection of sensor
// readings toward a base station.
//
// The simulator plays the role GloMoSim plays in the paper: it provides the
// measurable substrate (energy, messages, latency) over which the pervasive
// grid runtime decides where computation should happen.
package sensornet

import (
	"fmt"
	"math"
)

// NodeID identifies a node in a network. The base station is always
// BaseStationID; sensors are numbered from 0.
type NodeID int

// BaseStationID is the reserved ID of the base station.
const BaseStationID NodeID = -1

// Position is a point in the 2-D deployment plane, in meters.
type Position struct {
	X, Y float64
}

// Distance returns the Euclidean distance to other.
func (p Position) Distance(other Position) float64 {
	dx, dy := p.X-other.X, p.Y-other.Y
	return math.Sqrt(dx*dx + dy*dy)
}

func (p Position) String() string {
	return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y)
}

// Node is a simulated sensor node.
type Node struct {
	ID  NodeID
	Pos Position

	// Energy is the remaining battery in joules. The base station has
	// effectively infinite energy.
	Energy float64
	// InitialEnergy records the battery at deployment.
	InitialEnergy float64

	// Room optionally tags the node with a location label ("210") so
	// WHERE predicates can select by room.
	Room string

	// Rate is the sensing rate in readings per second for continuous
	// streams.
	Rate float64

	// Neighbors holds the IDs of nodes within radio range, including the
	// base station when in range. Maintained by the Network.
	Neighbors []NodeID

	// txFree is the virtual time the node's radio finishes its current
	// transmission; sends queue behind it (half-duplex, one TX at a
	// time). Managed by the Network.
	txFree float64

	// Counters.
	Sent     int     // messages transmitted
	Received int     // messages received
	TxBytes  int     // bytes transmitted
	RxBytes  int     // bytes received
	Computed float64 // local computation performed, in abstract ops
}

// Alive reports whether the node still has battery. The base station is
// always alive.
func (n *Node) Alive() bool {
	return n.ID == BaseStationID || n.Energy > 0
}

// drain subtracts j joules, clamping at zero. The base station never
// drains.
func (n *Node) drain(j float64) {
	if n.ID == BaseStationID {
		return
	}
	n.Energy -= j
	if n.Energy < 0 {
		n.Energy = 0
	}
}

// Reading is a single sensed sample.
type Reading struct {
	Sensor NodeID
	Time   float64 // virtual seconds
	Value  float64
}
