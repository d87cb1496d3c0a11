// Package partition implements the paper's Decision Maker: for each query
// it estimates the computation, data transfer, energy consumption, and
// response time of every solution model — in-network aggregation (tree or
// cluster), delivering raw data to the base station/handheld, or moving the
// data to the grid — picks the model that best satisfies the query's COST
// clause, and adapts by folding measured executions back into learned
// calibration ("comparing the estimates ... with the actual values ... and
// the results would be incorporated into the learning technique").
package partition

import (
	"fmt"
	"math"

	"pervasivegrid/internal/query"
	"pervasivegrid/internal/sensornet"
)

// Model is a solution model from §4 of the paper.
type Model int

// Solution models.
const (
	// ModelDirect ships raw readings to the base station, which
	// computes.
	ModelDirect Model = iota
	// ModelTree aggregates in-network over a TAG-style tree.
	ModelTree
	// ModelCluster aggregates at cluster heads, then ships partials.
	ModelCluster
	// ModelGrid ships raw data through the base station to the grid and
	// computes there.
	ModelGrid
	numModels = 4
)

// Models lists all solution models.
func Models() []Model { return []Model{ModelDirect, ModelTree, ModelCluster, ModelGrid} }

func (m Model) String() string {
	switch m {
	case ModelDirect:
		return "direct"
	case ModelTree:
		return "tree"
	case ModelCluster:
		return "cluster"
	case ModelGrid:
		return "grid"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Features summarises a (query, network, computation) instance for both the
// analytic cost model and the learners.
type Features struct {
	// Base is the query's base type (Simple/Aggregate/Complex).
	Base query.Type
	// Selected is the number of sensors the WHERE clause matches.
	Selected int
	// AvgDepth and MaxDepth describe the routing tree from the selected
	// sensors to the base station.
	AvgDepth, MaxDepth float64
	// ComputeOps is the work the query's function needs (0 for
	// simple/aggregate; the PDE estimate for complex queries).
	ComputeOps float64
	// Epoch is the continuous-query period (0 for one-shot).
	Epoch float64
}

// Vector encodes features for the learners.
func (f Features) Vector() []float64 {
	cont := 0.0
	if f.Epoch > 0 {
		cont = 1
	}
	return []float64{
		float64(f.Base),
		float64(f.Selected),
		f.AvgDepth,
		math.Log10(f.ComputeOps + 1),
		cont,
	}
}

// Platform describes the hardware the estimator reasons about.
type Platform struct {
	// Net parameterises the sensor network radios.
	Net sensornet.Config
	// BaseOpsPerSec is the base station / handheld compute rate.
	BaseOpsPerSec float64
	// SensorOpsPerSec is the per-node in-network compute rate.
	SensorOpsPerSec float64
	// GridLinkBps and GridLatencySec describe the base-to-grid pipe.
	GridLinkBps    float64
	GridLatencySec float64
	// GridOpsPerSec is the effective grid compute rate (parallel).
	GridOpsPerSec float64
}

// DefaultPlatform pairs the default sensor network with a handheld-class
// base station and a fast but far-away grid.
func DefaultPlatform() Platform {
	return Platform{
		Net:             sensornet.DefaultConfig(),
		BaseOpsPerSec:   5e6,
		SensorOpsPerSec: 5e5,
		GridLinkBps:     2e6,
		GridLatencySec:  0.05,
		GridOpsPerSec:   5e9,
	}
}

// Estimate is the predicted cost of running a query under one model.
type Estimate struct {
	Model Model
	// EnergyJ is the sensor-network energy for one round.
	EnergyJ float64
	// TimeSec is the response time for one round.
	TimeSec float64
	// Bytes is the radio traffic for one round.
	Bytes int
	// Feasible is false when the model cannot run the query (e.g. a
	// PDE solve inside the sensor network at impossible scale).
	Feasible bool
}

// perHopSeconds is the modelled time to push payload one hop.
func (p Platform) perHopSeconds(payloadBytes int) float64 {
	return float64(payloadBytes+p.Net.HeaderBytes)*8/p.Net.BandwidthBps + p.Net.HopDelay
}

// hopEnergy is tx+rx energy for one hop at the configured radio range.
func (p Platform) hopEnergy(payloadBytes int) float64 {
	size := payloadBytes + p.Net.HeaderBytes
	r := p.Net.RadioRange
	return p.Net.Energy.TxCost(size, r) + p.Net.Energy.RxCost(size)
}

// Estimator produces analytic per-model estimates.
type Estimator struct {
	P Platform
}

// NewEstimator builds an estimator for a platform.
func NewEstimator(p Platform) *Estimator { return &Estimator{P: p} }

// Estimate predicts the cost of one round of the query under model m.
func (e *Estimator) Estimate(m Model, f Features) Estimate {
	p := e.P
	n := float64(f.Selected)
	if n < 1 {
		n = 1
	}
	avgD := math.Max(f.AvgDepth, 1)
	maxD := math.Max(f.MaxDepth, avgD)
	raw := sensornet.RawReadingBytes
	partial := sensornet.PartialStateBytes

	est := Estimate{Model: m, Feasible: true}
	switch m {
	case ModelDirect:
		hops := n * avgD
		est.Bytes = int(hops) * (raw + p.Net.HeaderBytes)
		est.EnergyJ = hops * p.hopEnergy(raw)
		// Convergecast serialises at the root: the root link carries
		// all n readings; the farthest sensor pays maxD hops.
		est.TimeSec = maxD*p.perHopSeconds(raw) + (n-1)*p.perHopSeconds(raw)
		est.TimeSec += f.ComputeOps / p.BaseOpsPerSec
	case ModelTree:
		if f.Base == query.Complex {
			// A PDE solve cannot be decomposed into TAG partials.
			est.Feasible = false
		}
		links := n * 1.1 // participants ship one partial each (+relays)
		est.Bytes = int(links) * (partial + p.Net.HeaderBytes)
		est.EnergyJ = links*p.hopEnergy(partial) + n*p.Net.Energy.ComputeCost(1)
		est.TimeSec = maxD * p.perHopSeconds(partial)
	case ModelCluster:
		if f.Base == query.Complex {
			est.Feasible = false
		}
		heads := math.Max(1, n*sensornet.ClusterHeadFraction)
		memberHops := n - heads
		headHops := heads * avgD
		est.Bytes = int(memberHops)*(raw+p.Net.HeaderBytes) + int(headHops)*(partial+p.Net.HeaderBytes)
		est.EnergyJ = memberHops*p.hopEnergy(raw) + headHops*p.hopEnergy(partial) + n*p.Net.Energy.ComputeCost(1)
		est.TimeSec = p.perHopSeconds(raw) + maxD*p.perHopSeconds(partial) + (n/heads)*p.perHopSeconds(raw)
	case ModelGrid:
		// Collect raw data exactly like direct, then push it over the
		// grid link and compute there.
		hops := n * avgD
		est.Bytes = int(hops) * (raw + p.Net.HeaderBytes)
		est.EnergyJ = hops * p.hopEnergy(raw)
		collect := maxD*p.perHopSeconds(raw) + (n-1)*p.perHopSeconds(raw)
		transfer := p.GridLatencySec + n*float64(raw)*8/p.GridLinkBps
		compute := f.ComputeOps / p.GridOpsPerSec
		ret := p.GridLatencySec
		est.TimeSec = collect + transfer + compute + ret
	}
	return est
}
