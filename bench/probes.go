package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/durable"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/query"
)

// perLayer names every per-layer metric, in report order. A layer is a
// package of the repo. A metric whose layer is not on a workload's path
// reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"agent.request_path_us", "us"},
	{"agent.mailbox_wait_us", "us"},
	{"agent.reply_path_us", "us"},
	{"agent.call_local_us", "us"},
	{"agent.wire_codec_us", "us"},
	{"agent.wire_bytes_per_op", "bytes"},
	{"agent.deliver_local_us", "us"},
	{"agent.retries_per_op", "count"},
	{"agent.shed", "count"},
	{"agent.dead_letters", "count"},
	{"core.handler_us", "us"},
	{"core.submit_us.point", "us"},
	{"core.submit_us.aggregate", "us"},
	{"core.submit_us.complex", "us"},
	{"query.parse_us", "us"},
	{"partition.choose_us", "us"},
	{"discovery.lookup_us", "us"},
	{"discovery.profiles_us", "us"},
	{"discovery.match_us", "us"},
	{"discovery.lookup_allocs", "count"},
	{"discovery.register_us", "us"},
	{"discovery.renew_us", "us"},
	{"discovery.hit_share", "share"},
	{"discovery.registry_size", "count"},
	{"durable.journal_us", "us"},
	{"durable.wal_append_us", "us"},
	{"durable.wal_bytes_per_op", "bytes"},
	{"durable.syncs", "count"},
	{"composition.plan_us", "us"},
	{"composition.run_us", "us"},
	{"composition.lookups_per_conv", "count"},
	{"composition.invokes_per_conv", "count"},
	{"process.allocs_per_op", "count"},
	{"process.bytes_per_op", "bytes"},
	{"process.gc_pause_ms", "ms"},
	{"gen.slice_spread", "share"},
	{"gen.trace_overhead_share", "share"},
}

func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	return m
}

// probe calls fn repeatedly, each call timed on its own, until the probe
// budget or the call count is used up (but five times at least), and
// returns the median in microseconds.
func (s *session) probe(calls int, fn func(i int)) float64 {
	times := make([]float64, 0, calls)
	deadline := obs.Real.Now().Add(s.probeBudget)
	for i := 0; i < calls; i++ {
		start := obs.Real.Now()
		fn(i)
		end := obs.Real.Now()
		times = append(times, float64(end.Sub(start))/1e3)
		if end.After(deadline) && i >= 4 {
			break
		}
	}
	return median(times)
}

// probeLayers calls into each layer the session's workload uses, one layer
// at a time on an otherwise idle node, and fills in that layer's metrics.
func (s *session) probeLayers(wires []wire, layers map[string]float64) error {
	if err := s.probeAgent(wires, layers); err != nil {
		return err
	}
	if len(s.queries) > 0 {
		s.probeCore(layers)
	}
	if len(s.discoveries) > 0 {
		if err := s.probeDiscovery(layers); err != nil {
			return err
		}
	}
	if s.node.store != nil {
		if err := s.probeDurable(layers); err != nil {
			return err
		}
	}
	if s.library != nil {
		if _, err := s.library.PlanRanked("situation-report", 0); err != nil {
			return err
		}
		layers["composition.plan_us"] = s.probe(500, func(int) {
			_, _ = s.library.PlanRanked("situation-report", 0) // planned without error just above
		})
	}
	return nil
}

func (s *session) probeAgent(wires []wire, layers map[string]float64) error {
	// The workload's own operation on the node's platform: no link, no
	// gateway. What it saves against the traced TCP call is the transport.
	local := localClient(s.node, 99, s.seed)
	if s.w.attach != nil {
		if err := s.w.attach(s, local); err != nil {
			return err
		}
		defer closeClients([]*client{local})
	}
	var opErr error
	layers["agent.call_local_us"] = s.probe(2000, func(int) {
		if err := s.w.op(s, local, nil); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("local call: %w", opErr)
	}

	// Platform.Send to handler entry, on a sink agent of the benchmark's own.
	const sinkID agent.ID = "bench-sink"
	entered := make(chan time.Time, 1)
	err := s.node.platform.Register(sinkID, agent.HandlerFunc(func(agent.Envelope, *agent.Context) {
		entered <- obs.Real.Now()
	}), agent.Attributes{}, nil)
	if err != nil {
		return err
	}
	defer s.node.platform.Deregister(sinkID)
	env, err := agent.NewEnvelope("bench", sinkID, "inform", echoOntology, ping{Nonce: 1})
	if err != nil {
		return err
	}
	var deliver []float64
	for i := 0; i < 2000; i++ {
		start := obs.Real.Now()
		if err := s.node.platform.Send(env); err != nil {
			return err
		}
		deliver = append(deliver, float64((<-entered).Sub(start))/1e3)
	}
	layers["agent.deliver_local_us"] = median(deliver)

	// The workload's envelopes through the codec, as one round trip does.
	if len(wires) == 0 {
		return nil
	}
	var bytes, measured int
	var codecErr error
	layers["agent.wire_codec_us"] = s.probe(len(wires), func(i int) {
		n, err := codecRoundTrip(&wires[i], uint64(1000+i))
		if err != nil {
			codecErr = err
		}
		bytes += n
		measured++
	})
	layers["agent.wire_bytes_per_op"] = float64(bytes) / float64(measured)
	if codecErr != nil {
		return fmt.Errorf("codec: %w", codecErr)
	}
	return nil
}

// codecRoundTrip encodes and decodes one operation's request and reply the
// way a round trip over the link does — body into envelope, envelope into a
// newline-delimited JSON frame, and back — and returns the bytes framed.
func codecRoundTrip(w *wire, seq uint64) (bytes int, err error) {
	pass := func(env agent.Envelope, body any) error {
		data, err := json.Marshal(env)
		if err != nil {
			return err
		}
		bytes += len(data) + 1
		var back agent.Envelope
		if err := json.Unmarshal(data, &back); err != nil {
			return err
		}
		return back.Decode(reflect.New(reflect.TypeOf(body)).Interface())
	}
	req, err := agent.NewEnvelope("caller-1", w.to, w.performative, w.ontology, w.request)
	if err != nil {
		return 0, err
	}
	req.Seq = seq
	if err := pass(req, w.request); err != nil {
		return 0, err
	}
	req.TraceID = obs.NewTraceID() // the node assigns one at ingress; the reply carries it
	reply, err := req.Reply("inform", w.reply)
	if err != nil {
		return 0, err
	}
	reply.Seq = seq + 1
	return bytes, pass(reply, w.reply)
}

func (s *session) probeCore(layers map[string]float64) {
	rt := s.node.rt
	byClass := map[string][]string{}
	for _, q := range s.queries {
		byClass[q.class] = append(byClass[q.class], q.src)
	}
	submit := func(class string, calls int) float64 {
		pool := byClass[class]
		return s.probe(calls, func(i int) {
			_, _ = rt.Submit(pool[i%len(pool)]) // every pool query ran at set-up
		})
	}
	layers["core.submit_us.point"] = submit("point", 500)
	layers["core.submit_us.aggregate"] = submit("aggregate", 60)
	layers["core.submit_us.complex"] = submit("complex", 20)
	layers["query.parse_us"] = s.probe(2000, func(i int) {
		_, _ = query.Parse(s.queries[i%len(s.queries)].src)
	})
	layers["partition.choose_us"] = s.probe(1000, func(i int) {
		_, _, _ = rt.ChooseOnly(s.queries[i%len(s.queries)].src)
	})
}

func (s *session) probeDiscovery(layers map[string]float64) error {
	broker := s.node.rt.Broker
	reqs := s.discoveries
	oracle := discovery.NewSemanticMatcher(s.node.rt.Onto)
	live := broker.Reg.Profiles()
	// Whole passes over the pool (one at least, more while the probe budget
	// lasts) time the lookup and its two parts on the same requests, so that
	// lookup = profiles + match can be checked; allocations are counted
	// over the same lookups.
	timed := func(fn func()) float64 {
		start := obs.Real.Now()
		fn()
		return float64(obs.Real.Now().Sub(start)) / 1e3
	}
	var lookups, snapshots, matches []float64
	var mallocs uint64
	var before, after runtime.MemStats
	deadline := obs.Real.Now().Add(s.probeBudget)
	for pass := 0; pass == 0 || obs.Real.Now().Before(deadline); pass++ {
		for _, d := range reqs {
			runtime.ReadMemStats(&before)
			lookups = append(lookups, timed(func() { broker.Lookup(d.req, s.lookupWant()) }))
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			snapshots = append(snapshots, timed(func() { broker.Reg.Profiles() }))
			matches = append(matches, timed(func() { oracle.Match(d.req, live) }))
		}
	}
	layers["discovery.lookup_us"] = median(lookups)
	layers["discovery.profiles_us"] = median(snapshots)
	layers["discovery.match_us"] = median(matches)
	layers["discovery.lookup_allocs"] = float64(mallocs) / float64(len(lookups))

	// Register and renew, with the journal hook when the node has a store.
	p := seededProfile(clientRand(s.seed, 98), "bench-probe", seededConcepts[0])
	var lease discovery.Lease
	var err error
	const calls = 200
	layers["discovery.register_us"] = s.probe(calls, func(int) {
		if l, e := broker.Reg.Register(p, churnTTL); e != nil {
			err = e
		} else {
			lease = l
		}
	})
	layers["discovery.renew_us"] = s.probe(calls, func(int) {
		if l, e := broker.Reg.Renew(lease, churnTTL); e != nil {
			err = e
		} else {
			lease = l
		}
	})
	broker.Reg.Deregister(p.Name)
	return err
}

// lookupWant is the result count the workload's lookups ask the broker
// for: the broker agent passes the request's Max, composition passes 0.
func (s *session) lookupWant() int {
	if s.library != nil {
		return 0
	}
	return discoverMax
}

func (s *session) probeDurable(layers map[string]float64) error {
	p := seededProfile(clientRand(s.seed, 97), "bench-probe", seededConcepts[0])
	expires := obs.Real.Now().Add(churnTTL)
	layers["durable.journal_us"] = s.probe(500, func(int) {
		s.node.store.JournalRegistration(p, expires)
	})
	s.node.store.JournalDeregister(p.Name)

	// WAL.Append on a log of its own, with the store's options and a
	// record the size of a journaled registration.
	dir := s.node.dir + "-probe"
	defer os.RemoveAll(dir)
	wal, err := durable.OpenWAL(dir, 0, durable.Options{
		Sync: durable.SyncInterval, SyncEvery: 50 * time.Millisecond,
	}, nil)
	if err != nil {
		return err
	}
	rec, err := json.Marshal(map[string]any{"k": "reg", "reg": durable.Registration{Profile: p, Expires: expires}})
	if err != nil {
		return err
	}
	var appendErr error
	layers["durable.wal_append_us"] = s.probe(500, func(int) {
		if err := wal.Append(rec); err != nil {
			appendErr = err
		}
	})
	if err := wal.Close(); err != nil {
		return err
	}
	return appendErr
}

// stepRequests are the lookups a situation-report conversation makes, in
// the shape composition.Engine gives them.
func stepRequests() []discoveryCase {
	return []discoveryCase{
		{req: ontology.Request{Concept: "TemperatureSensor", Outputs: []string{"TemperatureSensor"}}},
		{req: ontology.Request{Concept: "HeatSolver", Outputs: []string{"HeatSolver"}}},
	}
}
