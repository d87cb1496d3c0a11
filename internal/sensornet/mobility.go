package sensornet

// Mobility and link-failure support: the paper singles out "dynamic network
// topologies" and "frequent disconnections" as what separates the pervasive
// grid from classical grid computing. Nodes can move (handhelds, field
// units), links can drop packets, and senders can retransmit.

// MoveNode relocates a node and rebuilds the neighbor lists. Moving an
// unknown node reports false.
//
//lint:ignore deadcode test seam used by the sensornet and core robustness tests
func (nw *Network) MoveNode(id NodeID, to Position) bool {
	n := nw.Node(id)
	if n == nil {
		return false
	}
	n.Pos = to
	nw.rebuildNeighbors()
	return true
}

// MoveBase relocates the base station (e.g. a mobile command vehicle).
//
//lint:ignore deadcode test seam used by the sensornet and core robustness tests
func (nw *Network) MoveBase(to Position) {
	nw.Base.Pos = to
	nw.rebuildNeighbors()
}

// SetLossProb sets the per-transmission loss probability applied by Send
// and Broadcast. Lost transmissions still cost the sender (and, for
// unicast, the receiver's radio does not hear anything, so only the sender
// pays).
func (nw *Network) SetLossProb(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	nw.lossProb = p
}

// lost draws one loss event.
func (nw *Network) lost() bool {
	return nw.lossProb > 0 && nw.rng.Float64() < nw.lossProb
}
