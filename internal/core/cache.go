package core

import (
	"pervasivegrid/internal/query"
)

// Result caching implements the paper's proactive option: "we might want
// to pro-actively compute some generic information about services required
// to execute a query which is requested with a high frequency" — a query
// answered recently (within CacheTTL of virtual time) is served from the
// base station's cache at zero network cost.

type cachedResult struct {
	res Result
	at  float64 // virtual completion time
}

// EnableCache turns result caching on with the given virtual-time TTL in
// seconds. A non-positive ttl disables caching.
func (rt *Runtime) EnableCache(ttl float64) {
	rt.cacheTTL = ttl
	if ttl <= 0 {
		rt.cache = nil
		return
	}
	if rt.cache == nil {
		rt.cache = map[string]cachedResult{}
	}
}

// cacheable reports whether a query's result may be reused: one-shot
// queries only (continuous queries stream by definition), and only when
// caching is enabled.
func (rt *Runtime) cacheable(q *query.Query) bool {
	return rt.cacheTTL > 0 && q.Epoch == 0
}

// cachedFor returns a fresh-enough cached result.
func (rt *Runtime) cachedFor(q *query.Query) (*Result, bool) {
	if !rt.cacheable(q) {
		return nil, false
	}
	e, ok := rt.cache[q.String()]
	if !ok || rt.clock-e.at > rt.cacheTTL {
		return nil, false
	}
	out := e.res // copy
	out.Cached = true
	// A cache hit costs nothing on the radio.
	out.EnergyJ, out.TimeSec, out.Messages, out.Bytes = 0, 0, 0, 0
	return &out, true
}

// storeCache records a completed execution.
func (rt *Runtime) storeCache(q *query.Query, res *Result) {
	if !rt.cacheable(q) || res == nil {
		return
	}
	rt.cache[q.String()] = cachedResult{res: *res, at: rt.clock}
}
