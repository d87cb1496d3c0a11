package discovery

import (
	"sync"

	"pervasivegrid/internal/ontology"
)

// Continuous discovery: "the world of services can change rapidly ... a
// good composition platform should be able to adapt its composition by
// taking maximum advantage of the currently available services." Watchers
// get a callback whenever a newly registered advertisement matches their
// standing request, so compositions can rebind to better services as they
// appear.

// watcher is one standing subscription.
type watcher struct {
	id       uint64
	matcher  Matcher
	req      ontology.Request
	minScore float64
	fn       func(Match)
}

// watchList is embedded in Registry hooks; kept separate so the zero
// Registry keeps working.
type watchList struct {
	mu       sync.Mutex
	nextID   uint64
	watchers []*watcher
}

// Watch installs a standing request on the registry: fn runs (on the
// registering goroutine) for every future advertisement whose match score
// reaches minScore. It returns a cancel function. Existing advertisements
// do not fire; pair Watch with an initial Lookup for a full picture.
//
//lint:ignore deadcode S17 names standing discovery watches; no experiment runs one yet
func (r *Registry) Watch(m Matcher, req ontology.Request, minScore float64, fn func(Match)) func() {
	r.watches.mu.Lock()
	defer r.watches.mu.Unlock()
	r.watches.nextID++
	w := &watcher{id: r.watches.nextID, matcher: m, req: req, minScore: minScore, fn: fn}
	r.watches.watchers = append(r.watches.watchers, w)
	id := w.id
	return func() {
		r.watches.mu.Lock()
		defer r.watches.mu.Unlock()
		for i, ww := range r.watches.watchers {
			if ww.id == id {
				r.watches.watchers = append(r.watches.watchers[:i], r.watches.watchers[i+1:]...)
				return
			}
		}
	}
}

// notifyWatchers runs after a successful Register, outside r.mu.
func (r *Registry) notifyWatchers(p *ontology.Profile) {
	r.watches.mu.Lock()
	snapshot := append([]*watcher(nil), r.watches.watchers...)
	r.watches.mu.Unlock()
	for _, w := range snapshot {
		for _, m := range w.matcher.Match(w.req, []*ontology.Profile{p}) {
			if m.Score >= w.minScore {
				w.fn(m)
			}
		}
	}
}
