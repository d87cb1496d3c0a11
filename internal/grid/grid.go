// Package grid models the wired Grid infrastructure of the paper: a set of
// networked compute resources ("from the ASCI terraflop machines to
// workstations") reachable from the sensor network's base station over a
// bandwidth-limited link, with a scheduler that places jobs and a transfer
// model that accounts for moving data in and out.
//
// Virtual time in this package is decoupled from the sensor network's
// discrete-event clock: the decision maker combines both through its cost
// model.
package grid

import (
	"errors"
	"fmt"
	"sync"
)

// Resource is one compute element on the grid.
type Resource struct {
	// Name identifies the resource in schedules.
	Name string
	// OpsPerSec is the sustained rate in abstract operations per second
	// for a single-worker job.
	OpsPerSec float64
	// Cores bounds intra-job parallelism on this resource.
	Cores int
	// Efficiency is the parallel efficiency per extra core in (0, 1];
	// effective rate = OpsPerSec * (1 + Efficiency*(workers-1)).
	Efficiency float64

	mu        sync.Mutex
	busyUntil float64 // virtual seconds
}

// NewResource validates and builds a resource.
func NewResource(name string, opsPerSec float64, cores int, efficiency float64) (*Resource, error) {
	if name == "" {
		return nil, errors.New("grid: resource needs a name")
	}
	if opsPerSec <= 0 {
		return nil, fmt.Errorf("grid: resource %q rate must be positive", name)
	}
	if cores < 1 {
		return nil, fmt.Errorf("grid: resource %q needs >= 1 core", name)
	}
	if efficiency <= 0 || efficiency > 1 {
		return nil, fmt.Errorf("grid: resource %q efficiency %v outside (0,1]", name, efficiency)
	}
	return &Resource{Name: name, OpsPerSec: opsPerSec, Cores: cores, Efficiency: efficiency}, nil
}

// EffectiveRate returns the ops/sec this resource sustains with the given
// number of workers (clamped to Cores).
func (r *Resource) EffectiveRate(workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	if workers > r.Cores {
		workers = r.Cores
	}
	return r.OpsPerSec * (1 + r.Efficiency*float64(workers-1))
}

// BusyUntil reports the virtual time this resource frees up.
func (r *Resource) BusyUntil() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busyUntil
}

// Link models the pipe between the base station and the grid.
type Link struct {
	// BandwidthBps is in bits per second.
	BandwidthBps float64
	// LatencySec is the one-way latency.
	LatencySec float64
}

// TransferTime returns the virtual seconds to move bytes across the link.
func (l Link) TransferTime(bytes int) float64 {
	if bytes <= 0 {
		return l.LatencySec
	}
	return l.LatencySec + float64(bytes)*8/l.BandwidthBps
}

// Job is a unit of grid work.
type Job struct {
	// Name labels the job.
	Name string
	// Ops is the abstract operation count (for placement estimates).
	Ops float64
	// InputBytes and OutputBytes cross the base-station link.
	InputBytes, OutputBytes int
	// Workers requests intra-job parallelism (0 = all cores of the
	// chosen resource).
	Workers int
	// Run optionally performs the real computation; workers is the
	// degree of parallelism granted. When nil the job is simulation-only.
	Run func(workers int) (any, error)
}

// Placement describes where and when a job runs under the virtual-time
// model.
type Placement struct {
	Resource *Resource
	// Start and Finish are virtual times including queueing; transfer
	// happens before Start.
	Start, Finish float64
	// TransferIn, Compute, TransferOut decompose the makespan.
	TransferIn, Compute, TransferOut float64
	// Output is the Run result when the job carried real computation.
	Output any
}

// ResponseTime is the full virtual latency from submission to the result
// arriving back at the base station.
func (p Placement) ResponseTime() float64 { return p.Finish }
