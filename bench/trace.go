package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/composition"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

// Span names. A layer is a package of the repo; the part after the dot says
// which stretch of a request the span covers.
const (
	spanRequestPath = "agent.request_path" // caller start -> server deputy Deliver
	spanMailboxWait = "agent.mailbox_wait" // deputy Deliver -> handler start
	spanHandler     = "core.handler"       // handler start -> handler end
	spanReplyPath   = "agent.reply_path"   // handler end -> caller return
	spanMatch       = "discovery.match"    // Matcher.Match
	spanInvoke      = "core.invoke"        // composition step invocation
)

// span is one timed stretch of one request. Parent indexes the spans of the
// same trace; a root has parent -1.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer records spans from outside the program: around the benchmark's own
// calls, and at the public hooks (deputy wrap, handler wrap, matcher, the
// engine's invoker). It relies on the traced pass keeping one request in
// flight, which is what lets a hook on the server side know whose span it
// is recording without any identifier crossing the wire.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// request numbers the open request, out of requests so far; 0 means
	// none, and hooks are idle.
	request, requests int
	// root is the open request's root span; open is the innermost open
	// span, the parent of whatever is recorded next.
	root, open int
	// mark is where the next stretch of the open scope starts.
	mark int64
	// replyPending is set once a handler under the open scope has ended.
	replyPending bool
}

func newTracer() *tracer { return &tracer{epoch: obs.Real.Now()} }

func (t *tracer) now() int64 { return int64(obs.Real.Now().Sub(t.epoch)) }

func (t *tracer) add(name string, start, end int64, parent int) int {
	t.spans = append(t.spans, span{name, start, end, parent, t.request})
	return len(t.spans) - 1
}

// begin opens the next request with a root span named name.
func (t *tracer) begin(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	t.request = t.requests
	t.mark = t.now()
	t.root = t.add(name, t.mark, 0, -1)
	t.open = t.root
	t.replyPending = false
}

// closeScope ends a root or an invoke; what lies between the last handler's
// end and now is the reply's way back. Callers hold t.mu.
func (t *tracer) closeScope(scope int) {
	end := t.now()
	if t.replyPending {
		t.add(spanReplyPath, t.mark, end, scope)
		t.replyPending = false
	}
	t.spans[scope].End = end
}

// end closes the request.
func (t *tracer) end() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeScope(t.root)
	t.request = 0
}

type tracedDeputy struct {
	inner agent.Deputy
	t     *tracer
}

func (t *tracer) wrapDeputy(inner agent.Deputy) agent.Deputy { return &tracedDeputy{inner, t} }

func (d *tracedDeputy) Deliver(env agent.Envelope) error {
	t := d.t
	t.mu.Lock()
	if t.request != 0 {
		now := t.now()
		t.add(spanRequestPath, t.mark, now, t.open)
		t.mark = now
	}
	t.mu.Unlock()
	return d.inner.Deliver(env)
}

func (t *tracer) wrapHandler(inner agent.Handler) agent.Handler {
	return agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		t.mu.Lock()
		if t.request == 0 {
			t.mu.Unlock()
			inner.Handle(env, ctx)
			return
		}
		scope, start := t.open, t.now()
		t.add(spanMailboxWait, t.mark, start, scope)
		h := t.add(spanHandler, start, 0, scope)
		t.open = h
		t.mu.Unlock()

		inner.Handle(env, ctx)

		t.mu.Lock()
		defer t.mu.Unlock()
		if end := t.spans[scope].End; end != 0 {
			// The handler sends its reply before it returns, so the caller
			// can be back first; the handler's span then ends with the
			// caller's, and there is no reply path left to show.
			t.spans[h].End = end
			return
		}
		t.spans[h].End = t.now()
		t.open, t.mark, t.replyPending = scope, t.spans[h].End, true
	})
}

// tracedMatcher decorates the broker's matcher.
type tracedMatcher struct {
	inner discovery.Matcher
	tr    *tracer
}

func (m *tracedMatcher) Name() string { return m.inner.Name() }

func (m *tracedMatcher) Match(req ontology.Request, candidates []*ontology.Profile) []discovery.Match {
	t := m.tr
	start := t.now()
	out := m.inner.Match(req, candidates)
	t.mu.Lock()
	if t.request != 0 {
		t.add(spanMatch, start, t.now(), t.open)
	}
	t.mu.Unlock()
	return out
}

// wrapInvoker opens an invoke scope around each composition step call.
func (t *tracer) wrapInvoker(inner composition.Invoker) composition.Invoker {
	return func(p *ontology.Profile, step composition.Step) error {
		t.mu.Lock()
		if t.request == 0 {
			t.mu.Unlock()
			return inner(p, step)
		}
		t.mark = t.now()
		invoke := t.add(spanInvoke, t.mark, 0, t.root)
		t.open = invoke
		t.mu.Unlock()

		err := inner(p, step)

		t.mu.Lock()
		t.closeScope(invoke)
		t.open = t.root
		t.mu.Unlock()
		return err
	}
}

// durations returns the length of every closed span by name, in
// microseconds.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.End != 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// coverage reports, as a median over requests, the share of a root span
// that its direct children account for.
func (t *tracer) coverage() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int]int64{} // root index -> time in direct children
	var roots []int
	for i, s := range t.spans {
		if s.Parent == -1 {
			roots = append(roots, i)
		} else if t.spans[s.Parent].Parent == -1 && s.End != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	shares := make([]float64, 0, len(roots))
	for _, r := range roots {
		if total := t.spans[r].End - t.spans[r].Start; total > 0 {
			shares = append(shares, float64(covered[r])/float64(total))
		}
	}
	return median(shares)
}

// traceFileRequests bounds the trace file; the medians use every span.
const traceFileRequests = 2000

// write stores the spans of the first requests as one JSON document.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keep := t.spans
	for i, s := range keep {
		if s.Request > traceFileRequests {
			keep = keep[:i]
			break
		}
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, keep})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, data, 0o644)
}
