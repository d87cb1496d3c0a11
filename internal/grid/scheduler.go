package grid

import (
	"errors"
	"fmt"
	"sync"
)

// Policy selects how the scheduler places jobs.
type Policy int

// Scheduling policies.
const (
	// MinCompletion picks the resource minimising the job's finish time
	// (queue wait + compute), the sensible default.
	MinCompletion Policy = iota
	// FastestFirst always picks the highest effective rate regardless of
	// queue depth.
	FastestFirst
	// RoundRobin cycles through resources, ignoring load.
	RoundRobin
)

func (p Policy) String() string {
	switch p {
	case MinCompletion:
		return "min-completion"
	case FastestFirst:
		return "fastest-first"
	case RoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Cluster is a schedulable set of grid resources behind one access link.
type Cluster struct {
	Link   Link
	Policy Policy

	mu        sync.Mutex
	resources []*Resource
	now       float64 // virtual clock
	rrNext    int
}

// NewCluster builds a cluster; at least one resource is required.
func NewCluster(link Link, policy Policy, resources ...*Resource) (*Cluster, error) {
	if len(resources) == 0 {
		return nil, errors.New("grid: cluster needs at least one resource")
	}
	return &Cluster{Link: link, Policy: policy, resources: resources}, nil
}

// Resources returns the cluster's resources.
func (c *Cluster) Resources() []*Resource {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Resource, len(c.resources))
	copy(out, c.resources)
	return out
}

// Now reports the cluster's virtual clock.
func (c *Cluster) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the cluster's virtual clock forward.
func (c *Cluster) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	c.mu.Lock()
	c.now += dt
	c.mu.Unlock()
}

// Estimate predicts the placement for a job under the current load without
// committing it.
func (c *Cluster) Estimate(job Job) (Placement, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.place(job, false)
}

// Submit places the job (reserving the resource's virtual time) and, if the
// job has a Run function, executes it with the granted parallelism.
func (c *Cluster) Submit(job Job) (Placement, error) {
	c.mu.Lock()
	p, err := c.place(job, true)
	c.mu.Unlock()
	if err != nil {
		return p, err
	}
	if job.Run != nil {
		workers := job.Workers
		if workers <= 0 || workers > p.Resource.Cores {
			workers = p.Resource.Cores
		}
		out, err := job.Run(workers)
		if err != nil {
			return p, fmt.Errorf("grid: job %q failed on %s: %w", job.Name, p.Resource.Name, err)
		}
		p.Output = out
	}
	return p, nil
}

// place picks a resource per policy. Callers hold c.mu.
func (c *Cluster) place(job Job, commit bool) (Placement, error) {
	if job.Ops < 0 {
		return Placement{}, fmt.Errorf("grid: job %q has negative ops", job.Name)
	}
	workers := job.Workers

	candidate := func(r *Resource) Placement {
		w := workers
		if w <= 0 || w > r.Cores {
			w = r.Cores
		}
		tin := c.Link.TransferTime(job.InputBytes)
		r.mu.Lock()
		ready := r.busyUntil
		r.mu.Unlock()
		start := c.now + tin
		if ready > start {
			start = ready
		}
		compute := 0.0
		if job.Ops > 0 {
			compute = job.Ops / r.EffectiveRate(w)
		}
		tout := c.Link.TransferTime(job.OutputBytes)
		return Placement{
			Resource: r, Start: start,
			Finish:      start + compute + tout,
			TransferIn:  tin,
			Compute:     compute,
			TransferOut: tout,
		}
	}

	var best Placement
	switch c.Policy {
	case RoundRobin:
		r := c.resources[c.rrNext%len(c.resources)]
		if commit {
			c.rrNext++
		}
		best = candidate(r)
	case FastestFirst:
		var fastest *Resource
		for _, r := range c.resources {
			if fastest == nil || r.EffectiveRate(r.Cores) > fastest.EffectiveRate(fastest.Cores) {
				fastest = r
			}
		}
		best = candidate(fastest)
	default: // MinCompletion
		for i, r := range c.resources {
			p := candidate(r)
			if i == 0 || p.Finish < best.Finish {
				best = p
			}
		}
	}

	if commit {
		r := best.Resource
		r.mu.Lock()
		if end := best.Start + best.Compute; end > r.busyUntil {
			r.busyUntil = end
		}
		r.mu.Unlock()
	}
	return best, nil
}

// SubmitTo places a job on the named resource regardless of policy — the
// path used when an external negotiation (e.g. a contract-net award) has
// already picked the resource.
func (c *Cluster) SubmitTo(name string, job Job) (Placement, error) {
	c.mu.Lock()
	var target *Resource
	for _, r := range c.resources {
		if r.Name == name {
			target = r
			break
		}
	}
	if target == nil {
		c.mu.Unlock()
		return Placement{}, fmt.Errorf("grid: unknown resource %q", name)
	}
	saved := c.resources
	c.resources = []*Resource{target}
	p, err := c.place(job, true)
	c.resources = saved
	c.mu.Unlock()
	if err != nil {
		return p, err
	}
	if job.Run != nil {
		workers := job.Workers
		if workers <= 0 || workers > p.Resource.Cores {
			workers = p.Resource.Cores
		}
		out, err := job.Run(workers)
		if err != nil {
			return p, fmt.Errorf("grid: job %q failed on %s: %w", job.Name, p.Resource.Name, err)
		}
		p.Output = out
	}
	return p, nil
}
