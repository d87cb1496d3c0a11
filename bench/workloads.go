package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/composition"
	"pervasivegrid/internal/core"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/ontology"
)

// callTimeout is generous on purpose: on a healthy node no call comes near
// it, so a retry or a timeout is a failure worth counting, not tuning.
const callTimeout = 10 * time.Second

// wire is one operation's request and reply as they cross the link, kept
// during the traced pass for the codec probe.
type wire struct {
	to                     agent.ID
	performative, ontology string
	request, reply         any
}

// workload is one traffic mix. A session is one set-up of it: a node plus
// whatever reference answers its checks need.
type workload struct {
	name string
	why  string
	spec nodeSpec
	// warmOps is how many operations warm a fresh node up in a run of 20
	// seconds, about half a second's worth; other lengths scale it.
	warmOps int
	// local workloads run on the node's own platform, with no TCP.
	local bool
	// prepare computes reference answers on a freshly built node.
	prepare func(s *session) error
	// attach gives a new client its per-client state.
	attach func(s *session, c *client) error
	// op performs and verifies one operation. w, when not nil, receives
	// the request and reply bodies.
	op func(s *session, c *client, w *wire) error
}

// session is one set-up of a workload.
type session struct {
	w    *workload
	node *node
	seed int64
	// tr and probeBudget are set during the traced pass.
	tr          *tracer
	probeBudget time.Duration
	// queries and discoveries are the seeded request pools.
	queries     []queryCase
	discoveries []discoveryCase
	library     *composition.Library
}

// workloads lists the five mixes in report order.
var workloads = []*workload{pingFlood, queryMix, discoverRead, leaseChurn, composeLocal}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- ping_flood ----

var pingFlood = &workload{
	name:    "ping_flood",
	why:     "smallest message to an echo agent: the agent layer (codec, link, gateway, mailbox, Call) is all the work",
	spec:    nodeSpec{echo: true},
	warmOps: 20000,
	op: func(s *session, c *client, w *wire) error {
		req := ping{Nonce: c.rng.Uint64()}
		env, err := agent.Call(c.platform, echoAgentID, "request", echoOntology, req, callTimeout)
		if err != nil {
			return err
		}
		var got ping
		if err := env.Decode(&got); err != nil {
			return err
		}
		if got.Nonce != req.Nonce {
			return fmt.Errorf("echo returned nonce %d for %d", got.Nonce, req.Nonce)
		}
		if w != nil {
			*w = wire{echoAgentID, "request", echoOntology, req, got}
		}
		return nil
	},
}

// ---- query_mix ----

// queryCase is one distinct query with the answer a twin runtime gave.
type queryCase struct {
	src   string
	class string // point, aggregate, complex
	want  core.QueryReply
}

// queryPool builds every distinct query the mix draws from: one point read
// per sensor, the aggregate variants, and the temperature distribution.
func queryPool() []queryCase {
	var pool []queryCase
	for id := 0; id < 100; id++ {
		pool = append(pool, queryCase{class: "point",
			src: fmt.Sprintf("SELECT temp FROM sensors WHERE sensor = %d", id)})
	}
	for _, fn := range []string{"avg", "max", "count"} {
		pool = append(pool,
			queryCase{class: "aggregate", src: fmt.Sprintf("SELECT %s(temp) FROM sensors", fn)},
			queryCase{class: "aggregate", src: fmt.Sprintf("SELECT %s(temp) FROM sensors WHERE room = 'r1'", fn)},
			queryCase{class: "aggregate", src: fmt.Sprintf("SELECT %s(temp) FROM sensors GROUP BY room", fn)},
			queryCase{class: "aggregate", src: fmt.Sprintf("SELECT %s(temp) FROM sensors WHERE temp > 25", fn)},
		)
	}
	pool = append(pool, queryCase{class: "complex", src: "SELECT tempdist(temp) FROM sensors"})
	return pool
}

// pickQuery draws 70 % point reads, 20 % aggregates (half of them plain,
// half with a predicate or a grouping), 10 % temperature distributions.
func pickQuery(rng *rand.Rand, pool []queryCase) *queryCase {
	const points, aggregates = 100, 12
	switch r := rng.Intn(10); {
	case r < 7:
		return &pool[rng.Intn(points)]
	case r < 9:
		if rng.Intn(2) == 0 {
			return &pool[points+4*rng.Intn(3)]
		}
		return &pool[points+4*rng.Intn(3)+1+rng.Intn(3)]
	default:
		return &pool[points+aggregates]
	}
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b))
}

// sameAnswer compares the fields of a reply that the deployment fixes: the
// value, the groups and the number of sensors that contributed. Energy and
// virtual time depend on which model the learning decision maker picked.
func sameAnswer(got, want core.QueryReply) error {
	if !got.OK {
		return fmt.Errorf("query failed: %s", got.Error)
	}
	if got.Kind != want.Kind || got.Coverage != want.Coverage || !near(got.Value, want.Value) {
		return fmt.Errorf("got %s value %g over %d sensors, want %s %g over %d",
			got.Kind, got.Value, got.Coverage, want.Kind, want.Value, want.Coverage)
	}
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("got %d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for k, v := range want.Groups {
		if g, ok := got.Groups[k]; !ok || !near(g, v) {
			return fmt.Errorf("group %s is %g, want %g", k, g, v)
		}
	}
	return nil
}

// referenceAnswers runs the pool on a twin runtime that serves nothing else.
func referenceAnswers(pool []queryCase) error {
	twin, err := newRuntime()
	if err != nil {
		return err
	}
	for i := range pool {
		res, err := twin.Submit(pool[i].src)
		if err != nil {
			return fmt.Errorf("reference for %q: %w", pool[i].src, err)
		}
		pool[i].want = core.QueryReply{OK: true, Kind: res.Kind.String(),
			Value: res.Value, Coverage: res.Coverage, Groups: res.Groups}
	}
	return nil
}

var queryMix = &workload{
	name:    "query_mix",
	why:     "the paper's flagship flow: point reads, aggregates and PDE solves, where the query handler is nearly all the time",
	warmOps: 400,
	prepare: func(s *session) error {
		s.queries = queryPool()
		return referenceAnswers(s.queries)
	},
	op: func(s *session, c *client, w *wire) error {
		q := pickQuery(c.rng, s.queries)
		got, err := core.AskQuery(c.platform, q.src, callTimeout, agent.DefaultRetryPolicy())
		if err != nil {
			return err
		}
		if w != nil {
			*w = wire{core.QueryAgentID, "request", core.QueryOntology, core.QueryRequest{Query: q.src}, got}
		}
		return sameAnswer(got, q.want)
	},
}

// ---- discover_read and lease_churn ----

const (
	registryProfiles = 2000
	discoverMax      = 5
	discoverPool     = 64
)

// seededConcepts are the eight service categories the registry holds.
var seededConcepts = []string{
	"TemperatureSensor", "SmokeSensor", "HeatSolver", "ClusteringService",
	"WeatherData", "ColorPrinter", "DisplayService", "StorageService",
}

// seededProfile draws one advertisement of the given concept; costs start
// at 1 so that a "cost < 0" constraint can never match.
func seededProfile(rng *rand.Rand, name, concept string) *ontology.Profile {
	p := &ontology.Profile{
		Name:    name,
		Concept: concept,
		Outputs: []string{concept},
		Properties: map[string]ontology.Value{
			"cost": ontology.Num(1 + float64(rng.Intn(100))),
			"load": ontology.Num(float64(rng.Intn(20))),
			"x":    ontology.Num(float64(rng.Intn(100))),
			"y":    ontology.Num(float64(rng.Intn(100))),
			"room": ontology.Str(fmt.Sprintf("r%d", rng.Intn(4))),
		},
		Interface: concept + ".call",
	}
	if concept == "HeatSolver" {
		p.Inputs = []string{"TemperatureSensor"}
	}
	return p
}

// seedProfiles draws the registry population. Concepts go round-robin, so
// that every seed gives each category the same number of services and only
// their properties differ.
func seedProfiles(rng *rand.Rand, n int) []*ontology.Profile {
	out := make([]*ontology.Profile, n)
	for i := range out {
		out[i] = seededProfile(rng, fmt.Sprintf("svc-%04d", i), seededConcepts[i%len(seededConcepts)])
	}
	return out
}

// discoveryCase is one request of the pool with the ranked names and
// scores the linear matcher gave at set-up.
type discoveryCase struct {
	req   ontology.Request
	names []string
	score []float64
}

// discoveryRequests builds the request pool: eight concepts times four
// kinds of constraint times two levels of selectivity, every other request
// with a second constraint, every tenth unable to match. The shape of the
// pool is the same for every seed — how many candidates a request lets
// through sets what its lookup costs, and the tail of the latency
// distribution is the pool's least selective requests. The seed moves only
// the location the requests ask from (and the registry's properties).
func discoveryRequests(rng *rand.Rand) []discoveryCase {
	constraint := func(kind, level int) ontology.Constraint {
		switch kind % 4 {
		case 0:
			return ontology.Constraint{Property: "cost", Op: ontology.OpLt, Value: ontology.Num([]float64{30, 70}[level])}
		case 1:
			return ontology.Constraint{Property: "load", Op: ontology.OpLe, Value: ontology.Num([]float64{5, 14}[level])}
		case 2:
			return ontology.Constraint{Property: "room", Op: ontology.OpEq, Value: ontology.Str([]string{"r1", "r2"}[level])}
		default:
			return ontology.Constraint{Op: ontology.OpNear, Value: ontology.Num([]float64{30, 55}[level])}
		}
	}
	pool := make([]discoveryCase, discoverPool)
	for i := range pool {
		kind, level := i/8%4, i/32%2
		req := ontology.Request{
			Concept:     seededConcepts[i%len(seededConcepts)],
			Constraints: []ontology.Constraint{constraint(kind, level)},
			PreferLow:   []string{[]string{"cost", "load"}[level]},
			X:           float64(rng.Intn(100)), Y: float64(rng.Intn(100)), HasLoc: true,
		}
		if i%2 == 1 {
			req.Constraints = append(req.Constraints, constraint(kind+1, level))
		}
		if i%10 == 9 {
			req.Constraints = append(req.Constraints,
				ontology.Constraint{Property: "cost", Op: ontology.OpLt, Value: ontology.Num(0)})
		}
		pool[i].req = req
	}
	return pool
}

// rankedAndSatisfying checks what must hold of any discovery reply,
// whatever the registry held: at most max matches, best first, each one
// meeting every constraint of the request.
func rankedAndSatisfying(req ontology.Request, reply core.DiscoverReply) error {
	if !reply.OK {
		return fmt.Errorf("discover failed: %s", reply.Error)
	}
	if len(reply.Matches) > discoverMax {
		return fmt.Errorf("%d matches, asked for %d", len(reply.Matches), discoverMax)
	}
	for i := range reply.Matches {
		m := &reply.Matches[i]
		if i > 0 {
			prev := &reply.Matches[i-1]
			if m.Score > prev.Score || (m.Score == prev.Score && m.Profile.Name < prev.Profile.Name) {
				return fmt.Errorf("match %d (%s %g) outranks match %d (%s %g)",
					i, m.Profile.Name, m.Score, i-1, prev.Profile.Name, prev.Score)
			}
		}
		for _, c := range req.Constraints {
			if !ontology.Satisfies(&m.Profile, c, req) {
				return fmt.Errorf("match %s violates %s %s %s", m.Profile.Name, c.Property, c.Op, c.Value)
			}
		}
	}
	return nil
}

// prepareDiscovery draws the request pool and, when the registry will not
// change under the run, records the linear matcher's answer to each.
func prepareDiscovery(s *session, reference bool) {
	s.discoveries = discoveryRequests(rand.New(rand.NewSource(s.seed + 1)))
	if !reference {
		return
	}
	oracle := discovery.NewSemanticMatcher(s.node.rt.Onto)
	live := s.node.rt.Broker.Reg.Profiles()
	for i := range s.discoveries {
		d := &s.discoveries[i]
		for j, m := range oracle.Match(d.req, live) {
			if j == discoverMax {
				break
			}
			d.names = append(d.names, m.Profile.Name)
			d.score = append(d.score, m.Score)
		}
	}
}

func discover(s *session, c *client, w *wire) (*discoveryCase, core.DiscoverReply, error) {
	d := &s.discoveries[c.rng.Intn(len(s.discoveries))]
	reply, err := core.Discover(c.platform, d.req, discoverMax, callTimeout, agent.DefaultRetryPolicy())
	if err != nil {
		return d, reply, err
	}
	if w != nil {
		*w = wire{core.BrokerAgentID, "discover", core.DiscoveryOntology,
			core.DiscoverRequest{Request: d.req, Max: discoverMax}, reply}
	}
	return d, reply, rankedAndSatisfying(d.req, reply)
}

func advertise(c *client, p ontology.Profile, ttl time.Duration, w *wire) error {
	reply, err := core.Advertise(c.platform, p, ttl, callTimeout, agent.DefaultRetryPolicy())
	if err != nil {
		return err
	}
	if w != nil {
		*w = wire{core.BrokerAgentID, "advertise", core.DiscoveryOntology,
			core.AdvertiseRequest{Profile: p, TTLSeconds: ttl.Seconds()}, reply}
	}
	if !reply.OK || reply.LeaseID == 0 {
		return fmt.Errorf("advertise %s refused: %s", p.Name, reply.Error)
	}
	return nil
}

var discoverRead = &workload{
	name:    "discover_read",
	why:     "semantic lookups against 2000 advertisements: the read side of discovery, about half of each round trip",
	spec:    nodeSpec{profiles: registryProfiles},
	warmOps: 300,
	prepare: func(s *session) error {
		prepareDiscovery(s, true)
		return nil
	},
	op: func(s *session, c *client, w *wire) error {
		if c.rng.Intn(50) == 0 {
			// A renewal re-advertises a seeded profile unchanged, so the
			// answers recorded at set-up stay right.
			p := s.node.seeded[c.rng.Intn(len(s.node.seeded))]
			return advertise(c, *p, core.DefaultLeaseTTL, w)
		}
		d, reply, err := discover(s, c, w)
		if err != nil {
			return err
		}
		if len(reply.Matches) != len(d.names) {
			return fmt.Errorf("%d matches, linear matcher found %d", len(reply.Matches), len(d.names))
		}
		for i, m := range reply.Matches {
			if m.Profile.Name != d.names[i] || !near(m.Score, d.score[i]) {
				return fmt.Errorf("rank %d is %s (%g), linear matcher had %s (%g)",
					i, m.Profile.Name, m.Score, d.names[i], d.score[i])
			}
		}
		return nil
	},
}

const (
	churnWindow = 500
	churnTTL    = 2 * time.Second
	// churnDrift moves the window of names on by one every so many
	// operations of a client, so that names left behind stop being renewed,
	// expire two seconds later and are swept by the next lookup.
	churnDrift = 32
)

// churnCursor is a lease_churn client's position in the name space.
type churnCursor struct{ ops int }

var leaseChurn = &workload{
	name:    "lease_churn",
	why:     "registrations, renewals and withdrawals under short leases with the journal attached: the write side of discovery",
	spec:    nodeSpec{profiles: registryProfiles, walDir: "wal"},
	warmOps: 2000,
	prepare: func(s *session) error {
		prepareDiscovery(s, false)
		return nil
	},
	attach: func(s *session, c *client) error {
		c.state = &churnCursor{}
		return nil
	},
	op: func(s *session, c *client, w *wire) error {
		cur := c.state.(*churnCursor)
		cur.ops++
		name := fmt.Sprintf("churn-%d", cur.ops/churnDrift+c.rng.Intn(churnWindow))
		switch r := c.rng.Intn(100); {
		case r < 75:
			concept := seededConcepts[c.rng.Intn(len(seededConcepts))]
			return advertise(c, *seededProfile(c.rng, name, concept), churnTTL, w)
		case r < 90:
			req := core.DeregisterRequest{Name: name}
			env, err := agent.CallRetry(c.platform, core.BrokerAgentID, "deregister", core.DiscoveryOntology,
				req, callTimeout, agent.DefaultRetryPolicy())
			if err != nil {
				return err
			}
			var reply core.AdvertiseReply
			if err := env.Decode(&reply); err != nil {
				return err
			}
			if w != nil {
				*w = wire{core.BrokerAgentID, "deregister", core.DiscoveryOntology, req, reply}
			}
			if !reply.OK {
				return fmt.Errorf("deregister %s refused: %s", name, reply.Error)
			}
			return nil
		default:
			_, _, err := discover(s, c, w)
			return err
		}
	},
}

// ---- compose_local ----

// situationReport is the library pgridd arms with -recompose.
func situationReport() (*composition.Library, error) {
	lib := composition.NewLibrary()
	for _, task := range []*composition.Task{
		{Name: "situation-report", Subtasks: []string{"survey", "solve"}},
		{Name: "survey", Concept: "TemperatureSensor",
			Outputs: []string{"TemperatureSensor"}},
		{Name: "solve", Concept: "HeatSolver",
			Inputs: []string{"TemperatureSensor"}, Outputs: []string{"HeatSolver"}},
	} {
		if err := lib.Define(task); err != nil {
			return nil, err
		}
	}
	return lib, nil
}

var composeLocal = &workload{
	name:    "compose_local",
	why:     "adaptive composition inside the node: discovery used in-process, several lookups and two local invocations per conversation, no TCP",
	spec:    nodeSpec{profiles: registryProfiles, providers: true},
	warmOps: 30,
	local:   true,
	prepare: func(s *session) (err error) {
		s.discoveries = stepRequests()
		s.library, err = situationReport()
		return err
	},
	attach: func(s *session, c *client) error {
		// One composer per client: an engine is not safe for concurrent use.
		eng := s.node.rt.NewCompositionEngine(c.platform)
		eng.Breakers = c.platform.Breakers
		a := &composition.Adaptive{
			Engine:     eng,
			Library:    s.library,
			Goal:       "situation-report",
			Events:     c.platform.Events,
			Node:       nodeName,
			MaxReplans: 3,
		}
		if s.tr != nil {
			eng.Invoke = s.tr.wrapInvoker(eng.Invoke)
		}
		a.Start()
		a.WatchBreakers(c.platform.Breakers)
		c.state = a
		return nil
	},
	op: func(s *session, c *client, w *wire) error {
		exec := c.state.(*composition.Adaptive).Run()
		if !exec.Succeeded {
			return fmt.Errorf("conversation abandoned: %v", exec.Err)
		}
		if exec.Replans != 0 || len(exec.Steps) != 2 {
			return fmt.Errorf("%d steps and %d re-plans, want 2 and 0", len(exec.Steps), exec.Replans)
		}
		for _, step := range exec.Steps {
			if !step.OK || step.Service == "" {
				return fmt.Errorf("step %s is not bound", step.Task)
			}
		}
		if w != nil {
			// The envelopes of the first step's invocation.
			*w = wire{core.ProviderAgentID(exec.Steps[0].Service), "request", core.ComposeOntology,
				core.InvokeRequest{Task: "survey", Concept: "TemperatureSensor"},
				core.InvokeReply{OK: true, Service: exec.Steps[0].Service}}
		}
		return nil
	},
}

// newSession sets a workload up once: node, registry, journal, references.
func newSession(w *workload, seed int64, outDir string, tr *tracer) (*session, error) {
	spec := w.spec
	if spec.walDir != "" {
		spec.walDir = filepath.Join(outDir, fmt.Sprintf("%s-%s-%d", spec.walDir, w.name, sessionCounter.Add(1)))
	}
	n, err := newNode(spec, seed, tr)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, node: n, seed: seed, tr: tr}
	if w.prepare != nil {
		if err := w.prepare(s); err != nil {
			n.close()
			return nil, err
		}
	}
	return s, nil
}

// connect gives the session n clients: handhelds over loopback TCP, or
// local callers for a workload without a link.
func (s *session) connect(n int) ([]*client, error) {
	clients := make([]*client, 0, n)
	for i := 0; i < n; i++ {
		c := localClient(s.node, i, s.seed)
		if !s.w.local {
			var err error
			if c, err = dialClient(s.node, i, s.seed); err != nil {
				closeClients(clients)
				return nil, err
			}
		}
		clients = append(clients, c)
		if s.w.attach != nil {
			if err := s.w.attach(s, c); err != nil {
				closeClients(clients)
				return nil, err
			}
		}
	}
	return clients, nil
}

func closeClients(clients []*client) {
	for _, c := range clients {
		if a, ok := c.state.(*composition.Adaptive); ok {
			a.Stop()
		}
		c.close()
	}
}
