package discovery

import (
	"encoding/binary"
	"fmt"
	"maps"
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
// pointer, with each advertisement's signature numbered and its properties
// in columns for a SemanticMatcher. A mutation that changes the set of
// advertisements, or renews a lease to lapse before the snapshot's
// horizon, drops the snapshot and records the name; the first read after
// it merges those names into the last snapshot, copying the runs of names
// between them, so a burst of writes pays for one merge.
// The clock is injectable so simulations can drive expiry deterministically.
type Registry struct {
	// Clock supplies the current time; nil means obs.Real.
	Clock obs.Clock

	// Metrics, when set, receives discovery_match_latency_seconds,
	// discovery_lookup_{hits,misses}_total,
	// discovery_view_rebuilds_total{kind="merge"|"sweep"|"full"}, and a
	// discovery_registry_size gauge set when a snapshot is published. Nil
	// disables instrumentation (obs.Registry is nil-safe).
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
	snap atomic.Pointer[snapshot]
	// last is the view the next rebuild merges into, touched the names
	// written since; no names are kept while last is nil.
	last    *snapshot
	touched []string
	// sigNum numbers the signatures met since the last full rebuild, by key.
	sigNum map[string]int32
	key    []byte // scratch for signature keys
	props  columns
}

type entry struct {
	profile *ontology.Profile
	lease   Lease
}

// snapshot is an immutable view of the live advertisements and the match
// index over them: sig[i] is the number of profiles[i]'s signature, in
// [0, sigs), and slot[i] the slot its properties hold in the columns, whose
// index by key is at; a view published before a lookup needed its columns
// has none (at is nil). The positions in profiles of signature g's
// profiles, in name order, are bySig[from[g]:from[g+1]]: its posting list,
// empty for a number whose profiles have all gone since it was given; a
// view published before a walk needed them has none (from is nil).
type snapshot struct {
	profiles []*ontology.Profile // name order
	sig      []int32
	sigs     int
	from     []int32
	bySig    []int32
	slot     []int32
	epoch    int // of the slots
	at       map[string]int32
	cols     []column
	// horizon is at or before every expiry in the view: the earliest after
	// a sweep or a full rebuild, a lower bound after a merge. Until the
	// clock passes it nothing in the view has lapsed, so the view is served
	// as it is and a merge copies it. Renew either leaves every expiry at
	// or past it, or touches the name.
	horizon time.Time
}

// current reports whether the view can be served at now: it exists and
// nothing in it has lapsed.
func (s *snapshot) current(now time.Time) bool {
	return s != nil && (len(s.profiles) == 0 || !s.horizon.Before(now))
}

// NewRegistry builds an empty registry on the wall clock.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}, sigNum: map[string]int32{}}
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
	r.touch(p.Name)
	r.mu.Unlock()
	// The journal hook runs outside the lock so it may use the registry
	// freely.
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
	if r.last != nil && e.lease.Expires.Before(r.last.horizon) {
		// Renewed to lapse before the horizon, which a merge would copy
		// the name past unread.
		r.touch(l.Name)
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
		r.touch(name)
	}
	r.mu.Unlock()
	if had {
		if fn := r.OnDeregister; fn != nil {
			fn(name)
		}
	}
}

// touch unpublishes the view after name was registered, withdrawn or
// renewed to lapse before the horizon, and records the name for the next
// rebuild to merge. Called under r.mu.
func (r *Registry) touch(name string) {
	r.snap.Store(nil)
	if r.last == nil {
		return
	}
	r.touched = append(r.touched, name)
	if 4*len(r.touched) > len(r.last.profiles) {
		r.last, r.touched = nil, r.touched[:0] // cheaper to start over
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
	return r.rebuild(now)
}

var noView = &snapshot{} // what a full rebuild merges into

func byName(p *ontology.Profile, name string) int { return strings.Compare(p.Name, name) }

// rebuild publishes the view at now: it merges the last view minus the
// touched names, whose entries keep their signature numbers and slots, with
// the touched names still live. While the last view's horizon holds nothing
// untouched in it has lapsed, so a merge copies each run of untouched names,
// found by a binary search for the next touched name from where the last
// one stopped: O(k log n) for k touched names, plus one copy per run. Its
// horizon, the least of the last view's and the touched entries' expiries,
// is a lower bound on every expiry in it. Past the horizon a sweep reads
// every name's entry, drops the lapsed ones and finds the horizon exactly,
// in O(n + k log k).
// With no last view, or more than twice as many slots given out as there
// are entries, it merges an empty view with every entry and numbers and
// places afresh: a full rebuild. A profile has a slot of its own, so there
// are never more signatures than slots. Called under r.mu.
func (r *Registry) rebuild(now time.Time) *snapshot {
	prev, kind, touched := r.last, "merge", r.touched
	switch {
	case prev == nil || int(r.props.slots) > 2*len(r.entries):
		prev, kind, touched = noView, "full", slices.Collect(maps.Keys(r.entries))
		clear(r.sigNum)
		r.props.reset(len(r.entries))
	case !prev.current(now):
		kind = "sweep"
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	size := len(r.entries)
	profiles := make([]*ontology.Profile, size)
	both := make([]int32, 2*size) // sig and slot
	sig, slot := both[:size:size], both[size:]
	s := &snapshot{}
	if kind == "merge" && len(prev.profiles) > 0 {
		s.horizon = prev.horizon
	}
	n := 0
	for i, j := 0, 0; i < len(prev.profiles) || j < len(touched); {
		var e *entry
		num, at := int32(-1), int32(-1)
		if j == len(touched) || i < len(prev.profiles) && prev.profiles[i].Name < touched[j] {
			if kind == "merge" { // copy the run of untouched names up to touched[j]
				end := len(prev.profiles)
				if j < len(touched) {
					k, _ := slices.BinarySearchFunc(prev.profiles[i:], touched[j], byName)
					end = i + k
				}
				copy(profiles[n:], prev.profiles[i:end])
				copy(sig[n:], prev.sig[i:end])
				copy(slot[n:], prev.slot[i:end])
				n, i = n+end-i, end
				continue
			}
			e, num, at = r.entries[prev.profiles[i].Name], prev.sig[i], prev.slot[i]
			i++
		} else {
			if i < len(prev.profiles) && prev.profiles[i].Name == touched[j] {
				i++ // touched since: its entry, not the view, says what it is
			}
			e = r.entries[touched[j]]
			j++
		}
		if e == nil {
			continue // withdrawn
		}
		if e.lease.Expires.Before(now) {
			delete(r.entries, e.lease.Name)
			continue
		}
		if num < 0 {
			num, at = r.intern(e.profile), r.props.place(e.profile)
		}
		if s.horizon.IsZero() || e.lease.Expires.Before(s.horizon) {
			s.horizon = e.lease.Expires
		}
		profiles[n], sig[n], slot[n] = e.profile, num, at
		n++
	}
	s.profiles, s.sig, s.sigs, s.slot = profiles[:n], sig[:n], len(r.sigNum), slot[:n]
	s.epoch = r.props.epoch
	r.snap.Store(s)
	r.last, r.touched = s, r.touched[:0]
	r.Metrics.Counter("discovery_view_rebuilds_total", "kind", kind).Inc()
	r.Metrics.Gauge("discovery_registry_size").Set(float64(n))
	return s
}

// postings groups the positions 0..len(sig)-1 by signature number in one
// counting pass: number g's positions are list[from[g]:from[g+1]], in
// ascending order, for they are placed in the order they are visited. The
// two arrays share one allocation.
func postings(sig []int32, sigs int) (from, list []int32) {
	both := make([]int32, sigs+1+len(sig))
	from, list = both[:sigs+1:sigs+1], both[sigs+1:]
	for _, g := range sig {
		from[g+1]++
	}
	for g := range sigs {
		from[g+1] += from[g]
	}
	for i, g := range sig {
		list[from[g]] = int32(i)
		from[g]++ // now the end of g's list, which is where g+1's starts
	}
	copy(from[1:], from[:sigs])
	from[0] = 0
	return from, list
}

// intern returns the number of p's signature, numbering it if it is new.
// The key holds Concept, Inputs and Outputs, each list counted and each
// string length-prefixed, so two keys are equal exactly when
// signature.covers says the signatures are. Called under r.mu.
func (r *Registry) intern(p *ontology.Profile) int32 {
	r.key = appendStrings(appendStrings(appendStrings(r.key[:0], p.Concept), p.Inputs...), p.Outputs...)
	num, ok := r.sigNum[string(r.key)]
	if !ok {
		num = int32(len(r.sigNum))
		r.sigNum[string(r.key)] = num
	}
	return num
}

func appendStrings(b []byte, list ...string) []byte {
	b = binary.AppendUvarint(b, uint64(len(list)))
	for _, s := range list {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	return b
}

// Profiles returns the live advertisements in name order. The slice is the
// caller's own.
func (r *Registry) Profiles() []*ontology.Profile {
	return slices.Clone(r.view().profiles)
}

// Len reports the number of live advertisements.
func (r *Registry) Len() int { return len(r.view().profiles) }

// Has reports whether name is advertised under a live lease.
func (r *Registry) Has(name string) bool {
	_, found := slices.BinarySearchFunc(r.view().profiles, name, byName)
	return found
}

// columns returns s with its property columns: it writes the cells of the
// profiles placed since they were last written, and publishes s again with
// the columns if s is still the published view. A full rebuild since s was
// read started other columns, so s is returned as it is and read from the
// maps.
func (r *Registry) columns(s *snapshot) *snapshot {
	if s.at != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.epoch != r.props.epoch {
		return s
	}
	r.props.write()
	c := *s
	c.at, c.cols = r.props.publish()
	if r.snap.Load() == s {
		r.snap.Store(&c)
	}
	return &c
}

// posted returns s with its posting lists, publishing s again with them if
// s is still the published view.
func (r *Registry) posted(s *snapshot) *snapshot {
	if s.from != nil {
		return s
	}
	c := *s
	c.from, c.bySig = postings(s.sig, s.sigs)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snap.Load() == s {
		r.snap.Store(&c)
	}
	return &c
}

// Lookup runs the matcher over the live advertisements. The matcher sees
// the shared snapshot and must not modify it. Only a *SemanticMatcher is
// handed its signature numbers and posting lists and, when the request has
// a constraint or a preference to read them for, its property columns; a
// decorator around one is not. Both are built when a lookup first needs
// them: the posting lists only for a request with no preference, which
// walks them.
func (r *Registry) Lookup(m Matcher, req ontology.Request) []Match {
	s := r.view()
	sm, semantic := m.(*SemanticMatcher)
	if semantic && (len(req.Constraints) > 0 || len(req.PreferLow) > 0) {
		s = r.columns(s)
	}
	if semantic && len(req.PreferLow) == 0 {
		s = r.posted(s)
	}
	start := r.now()
	var matches []Match
	if semantic {
		matches = sm.match(req, s.profiles, s)
	} else {
		matches = m.Match(req, s.profiles)
	}
	r.Metrics.Histogram("discovery_match_latency_seconds").
		Observe(r.now().Sub(start).Seconds())
	if len(matches) > 0 {
		r.Metrics.Counter("discovery_lookup_hits_total").Inc()
	} else {
		r.Metrics.Counter("discovery_lookup_misses_total").Inc()
	}
	return matches
}
