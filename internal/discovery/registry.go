package discovery

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

// Lease is a time-bounded registration, the mechanism that keeps the
// registry honest when "services may be coming up and going down
// frequently".
type Lease struct {
	ID      uint64
	Name    string
	Expires time.Time
}

// Registry stores service advertisements under leases. It is safe for
// concurrent use, and reads take no lock: Profiles, Len, Has and Lookup
// serve an immutable name-ordered snapshot published through an atomic
// pointer. A mutation that changes the set of advertisements drops the
// snapshot and the first read after it rebuilds, so a burst of writes pays
// for one rebuild. The clock is injectable so simulations can drive expiry
// deterministically.
type Registry struct {
	// Clock supplies the current time; nil means obs.Real.
	Clock obs.Clock

	// Metrics, when set, receives discovery_match_latency_seconds,
	// discovery_lookup_{hits,misses}_total, and a discovery_registry_size
	// gauge. Nil disables instrumentation (obs.Registry is nil-safe).
	Metrics *obs.Registry

	// OnRegister, when set, observes every successful Register and Renew
	// (called outside the registry lock, after the entry is stored). The
	// durable store journals these so the node re-advertises its
	// services after a crash. Set before traffic starts.
	OnRegister func(p *ontology.Profile, l Lease)

	// OnDeregister, when set, observes explicit Deregister calls (not
	// lease expiry — an expired lease re-expires on its own after
	// recovery, so journaling it would be redundant). Set before traffic
	// starts.
	OnDeregister func(name string)

	mu      sync.Mutex
	nextID  uint64
	entries map[string]*entry // by profile name
	// snap is the published view of entries; nil after a mutation that
	// changed the set. Written under mu, read without it.
	snap    atomic.Pointer[snapshot]
	watches watchList
}

type entry struct {
	profile *ontology.Profile
	lease   Lease
}

// snapshot is an immutable view of the live advertisements.
type snapshot struct {
	profiles []*ontology.Profile // name order
	// horizon is the earliest expiry among the leases the view was built
	// from: until the clock passes it nothing in the view has lapsed, so
	// the view is served as it is. Renew either leaves every expiry at or
	// past it, or drops the view.
	horizon time.Time
}

// current reports whether the view can be served at now: it exists and
// nothing in it has lapsed.
func (s *snapshot) current(now time.Time) bool {
	return s != nil && (len(s.profiles) == 0 || !s.horizon.Before(now))
}

// NewRegistry builds an empty registry on the wall clock.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

func (r *Registry) now() time.Time {
	if r.Clock != nil {
		return r.Clock.Now()
	}
	return obs.Real.Now()
}

// Register advertises a profile for ttl; re-registering a name replaces the
// previous advertisement and lease. A non-positive ttl is an error. The
// registry keeps the pointer and shares it with every reader: a registered
// profile is immutable, and a change is a new Register.
func (r *Registry) Register(p *ontology.Profile, ttl time.Duration) (Lease, error) {
	if p == nil || p.Name == "" {
		return Lease{}, fmt.Errorf("discovery: register needs a named profile")
	}
	if ttl <= 0 {
		return Lease{}, fmt.Errorf("discovery: register %q with non-positive ttl", p.Name)
	}
	r.mu.Lock()
	r.nextID++
	l := Lease{ID: r.nextID, Name: p.Name, Expires: r.now().Add(ttl)}
	r.entries[p.Name] = &entry{profile: p, lease: l}
	r.snap.Store(nil)
	r.mu.Unlock()
	// Watchers and the journal hook run outside the lock so their
	// callbacks may use the registry freely.
	r.notifyWatchers(p)
	if fn := r.OnRegister; fn != nil {
		fn(p, l)
	}
	return l, nil
}

// Renew extends an existing lease by ttl from now. Renewing an unknown,
// superseded or lapsed lease fails: a lease that has expired is gone
// whether or not a read has swept it yet.
func (r *Registry) Renew(l Lease, ttl time.Duration) (Lease, error) {
	if ttl <= 0 {
		return Lease{}, fmt.Errorf("discovery: renew with non-positive ttl")
	}
	r.mu.Lock()
	now := r.now()
	e, ok := r.entries[l.Name]
	if !ok || e.lease.ID != l.ID || e.lease.Expires.Before(now) {
		r.mu.Unlock()
		return Lease{}, fmt.Errorf("discovery: lease %d for %q not active", l.ID, l.Name)
	}
	e.lease.Expires = now.Add(ttl)
	if s := r.snap.Load(); s != nil && e.lease.Expires.Before(s.horizon) {
		// Renewed to lapse sooner than anything the view knew of.
		r.snap.Store(nil)
	}
	renewed := e.lease
	profile := e.profile
	r.mu.Unlock()
	if fn := r.OnRegister; fn != nil {
		fn(profile, renewed)
	}
	return renewed, nil
}

// Deregister removes an advertisement by name; removing an absent name is a
// no-op.
func (r *Registry) Deregister(name string) {
	r.mu.Lock()
	_, had := r.entries[name]
	if had {
		delete(r.entries, name)
		r.snap.Store(nil)
	}
	r.mu.Unlock()
	if had {
		if fn := r.OnDeregister; fn != nil {
			fn(name)
		}
	}
}

// view returns the current snapshot, rebuilding it when a mutation dropped
// it or a lease in it has lapsed.
func (r *Registry) view() *snapshot {
	now := r.now()
	if s := r.snap.Load(); s.current(now) {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.snap.Load(); s.current(now) {
		return s // another reader rebuilt it first
	}
	// Sweep expired entries and publish what is left.
	s := &snapshot{profiles: make([]*ontology.Profile, 0, len(r.entries))}
	for name, e := range r.entries {
		if e.lease.Expires.Before(now) {
			delete(r.entries, name)
			continue
		}
		if len(s.profiles) == 0 || e.lease.Expires.Before(s.horizon) {
			s.horizon = e.lease.Expires
		}
		s.profiles = append(s.profiles, e.profile)
	}
	slices.SortFunc(s.profiles, byName)
	r.snap.Store(s)
	return s
}

func byName(a, b *ontology.Profile) int { return strings.Compare(a.Name, b.Name) }

// Profiles returns the live advertisements in name order. The slice is the
// caller's own.
func (r *Registry) Profiles() []*ontology.Profile {
	return slices.Clone(r.view().profiles)
}

// Len reports the number of live advertisements.
func (r *Registry) Len() int { return len(r.view().profiles) }

// Has reports whether name is advertised under a live lease.
func (r *Registry) Has(name string) bool {
	_, found := slices.BinarySearchFunc(r.view().profiles, name,
		func(p *ontology.Profile, name string) int { return strings.Compare(p.Name, name) })
	return found
}

// Lookup runs the matcher over the live advertisements. The matcher sees
// the shared snapshot and must not modify it.
func (r *Registry) Lookup(m Matcher, req ontology.Request) []Match {
	profiles := r.view().profiles
	r.Metrics.Gauge("discovery_registry_size").Set(float64(len(profiles)))
	start := r.now()
	matches := m.Match(req, profiles)
	r.Metrics.Histogram("discovery_match_latency_seconds").
		Observe(r.now().Sub(start).Seconds())
	if len(matches) > 0 {
		r.Metrics.Counter("discovery_lookup_hits_total").Inc()
	} else {
		r.Metrics.Counter("discovery_lookup_misses_total").Inc()
	}
	return matches
}
