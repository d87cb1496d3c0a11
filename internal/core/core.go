// Package core is the Pervasive Grid runtime — the paper's contribution.
// It ties together the substrates: the sensor-network simulator, the wired
// grid, the query processor, and the adaptive decision maker, and exposes
// the three components the paper names — Query Processor, Decision Maker,
// and Simulator — behind one API. It also wires the multi-agent framework
// (a query agent answering envelopes) and semantic service discovery
// (sensors, solvers, and gateways advertise profiles).
package core

import (
	"fmt"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/grid"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/partition"
	"pervasivegrid/internal/pde"
	"pervasivegrid/internal/query"
	"pervasivegrid/internal/sensornet"
)

// Config assembles a pervasive grid deployment.
type Config struct {
	// Net parameterises the sensor network.
	Net sensornet.Config
	// Rows, Cols deploy sensors on a lattice (both > 0).
	Rows, Cols int
	// Field is the physical field being sensed (default: 20°C ambient
	// temperature).
	Field sensornet.Field
	// Noise is the sensor measurement noise stddev.
	Noise float64
	// Platform parameterises the decision maker's cost model; its Net
	// field is overwritten with Net.
	Platform partition.Platform
	// PDE controls complex-query solves.
	PDE PDEConfig
	// MaxRounds bounds continuous-query execution per Submit (default 3).
	MaxRounds int
}

// PDEConfig controls the temperature-distribution solver.
type PDEConfig struct {
	// Nx, Ny set the solve resolution (default 33x33).
	Nx, Ny int
	// Method picks the solver (default SOR).
	Method pde.Method
	// Tol is the convergence tolerance (default 1e-6).
	Tol float64
}

// DefaultConfig is a 10x10 building deployment against the default
// platform.
func DefaultConfig() Config {
	return Config{
		Net:      sensornet.DefaultConfig(),
		Rows:     10,
		Cols:     10,
		Platform: partition.DefaultPlatform(),
		PDE:      PDEConfig{Nx: 33, Ny: 33, Method: pde.SOR, Tol: 1e-6},
	}
}

// Runtime is a running pervasive grid.
type Runtime struct {
	Cfg     Config
	Net     *sensornet.Network
	Cluster *grid.Cluster
	DM      *partition.DecisionMaker
	Onto    *ontology.Ontology
	Broker  *discovery.Broker

	// DeputyWrap, when set, decorates the deputy of every agent this
	// runtime registers (query, broker, solver bidders). The pgridd
	// daemon points it at a faultinject.Injector for chaos experiments;
	// tests use it to make the real messaging path lossy.
	DeputyWrap func(agent.Deputy) agent.Deputy

	// HandlerWrap, when set, decorates the handler of every agent this
	// runtime registers — the crash-side twin of DeputyWrap. Chaos tests
	// point it at faultinject.Injector.WrapHandler so the agent itself
	// panics mid-conversation and supervision has something to heal.
	HandlerWrap func(agent.Handler) agent.Handler

	// Metrics receives runtime-level series (core_queries_total,
	// core_conversation_seconds, cache hit/miss counters, energy and
	// message totals). Always non-nil for runtimes built via New.
	Metrics *obs.Registry

	// clock is the runtime's virtual time in seconds, advanced by query
	// execution and continuous epochs.
	clock float64

	// cache holds recent one-shot results when EnableCache is on.
	cache    map[string]cachedResult
	cacheTTL float64

	// stats accumulates execution counters.
	stats Snapshot
	// meters holds the series record writes.
	meters meters
}

// meters are the series record writes, held per registry (Metrics is a
// field anyone may repoint) as Network.mirror holds its gauges, so a query
// builds no metric key. Each is resolved on its first write, as before.
type meters struct {
	reg                            *obs.Registry
	hits, misses, energy, messages *obs.Counter
	kinds                          [query.Continuous + 1]*obs.Counter
	models                         [partition.ModelGrid + 1]*obs.Counter
	virtualSec, perEpoch           *obs.Histogram
}

// counter returns *slot, resolving name+labels into it the first time.
func (m *meters) counter(slot **obs.Counter, name string, labels ...string) *obs.Counter {
	if *slot == nil {
		*slot = m.reg.Counter(name, labels...)
	}
	return *slot
}

// Snapshot is the runtime's execution counters, for operators ("the main
// mission control may want to query the data network for evaluating the
// overall performance").
type Snapshot struct {
	// Queries counts completed executions by query kind name.
	Queries map[string]int
	// Models counts executions by chosen solution model name.
	Models map[string]int
	// CacheHits counts results served from the cache.
	CacheHits int
	// EnergyJ and Messages total the radio spend across executions.
	EnergyJ  float64
	Messages int
}

// wrapHandler applies the runtime's HandlerWrap decoration (identity
// when unset); every agent the runtime registers goes through it.
func (rt *Runtime) wrapHandler(h agent.Handler) agent.Handler {
	if rt.HandlerWrap == nil {
		return h
	}
	return rt.HandlerWrap(h)
}

// Stats returns a copy of the execution counters.
func (rt *Runtime) Stats() Snapshot {
	out := rt.stats
	out.Queries = map[string]int{}
	out.Models = map[string]int{}
	for k, v := range rt.stats.Queries {
		out.Queries[k] = v
	}
	for k, v := range rt.stats.Models {
		out.Models[k] = v
	}
	return out
}

// record folds one completed result into the counters.
func (rt *Runtime) record(res *Result) {
	if rt.stats.Queries == nil {
		rt.stats.Queries = map[string]int{}
		rt.stats.Models = map[string]int{}
	}
	rt.stats.Queries[res.Kind.String()]++
	rt.stats.Models[res.Model.String()]++
	m := &rt.meters
	if m.reg != rt.Metrics {
		*m = meters{reg: rt.Metrics}
	}
	if res.Cached {
		rt.stats.CacheHits++
		m.counter(&m.hits, "core_cache_hits_total").Inc()
	} else {
		m.counter(&m.misses, "core_cache_misses_total").Inc()
	}
	rt.stats.EnergyJ += res.EnergyJ
	rt.stats.Messages += res.Messages
	m.counter(&m.kinds[res.Kind], "core_queries_total", "kind", res.Kind.String()).Inc()
	m.counter(&m.models[res.Model], "core_models_total", "model", res.Model.String()).Inc()
	m.counter(&m.energy, "core_energy_joules_total").Add(res.EnergyJ)
	m.counter(&m.messages, "core_messages_total").Add(float64(res.Messages))
	if m.virtualSec == nil {
		m.virtualSec, m.perEpoch = m.reg.Histogram("core_query_virtual_seconds"), m.reg.Histogram("sensornet_messages_per_epoch")
	}
	m.virtualSec.Observe(res.TimeSec)
	epochs := len(res.Rounds)
	if epochs == 0 {
		epochs = 1 // a one-shot query is a single epoch
	}
	m.perEpoch.Observe(float64(res.Messages) / float64(epochs))
}

// New assembles a runtime from the config.
func New(cfg Config) (*Runtime, error) {
	if cfg.PDE.Nx < 3 {
		cfg.PDE.Nx = 33
	}
	if cfg.PDE.Ny < 3 {
		cfg.PDE.Ny = 33
	}
	if cfg.PDE.Tol <= 0 {
		cfg.PDE.Tol = 1e-6
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 3
	}

	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("core: config needs Rows/Cols")
	}
	nw := sensornet.NewGridNetwork(cfg.Net, cfg.Rows, cfg.Cols)
	if cfg.Field == nil {
		cfg.Field = sensornet.NewTemperatureField(20)
	}
	nw.SetField(cfg.Field, cfg.Noise)

	// The wired grid: a workstation and a supercomputer.
	ws, err := grid.NewResource("workstation", 2e8, 4, 0.9)
	if err != nil {
		return nil, err
	}
	super, err := grid.NewResource("supercomputer", 5e9, 32, 0.85)
	if err != nil {
		return nil, err
	}
	link := grid.Link{BandwidthBps: cfg.Platform.GridLinkBps, LatencySec: cfg.Platform.GridLatencySec}
	if link.BandwidthBps <= 0 {
		link = grid.Link{BandwidthBps: 2e6, LatencySec: 0.05}
	}
	cluster, err := grid.NewCluster(link, grid.MinCompletion, ws, super)
	if err != nil {
		return nil, err
	}

	cfg.Platform.Net = cfg.Net
	onto := ontology.Pervasive()
	rt := &Runtime{
		Cfg:     cfg,
		Net:     nw,
		Cluster: cluster,
		DM:      partition.NewDecisionMaker(partition.NewEstimator(cfg.Platform)),
		Onto:    onto,
		Broker:  discovery.NewBroker("base-station", discovery.NewSemanticMatcher(onto)),
		Metrics: obs.NewRegistry(),
	}
	rt.Broker.Reg.Metrics = rt.Metrics
	nw.Metrics = rt.Metrics
	return rt, nil
}

// AssignRooms labels sensors with room names on a rooms-x by rooms-y grid
// ("r<i>" row-major), so WHERE room = '...' predicates select regions.
func (rt *Runtime) AssignRooms(roomsX, roomsY int) {
	if roomsX < 1 || roomsY < 1 {
		return
	}
	for _, s := range rt.Net.Sensors {
		cx := int(s.Pos.X / rt.Cfg.Net.Width * float64(roomsX))
		cy := int(s.Pos.Y / rt.Cfg.Net.Height * float64(roomsY))
		if cx >= roomsX {
			cx = roomsX - 1
		}
		if cy >= roomsY {
			cy = roomsY - 1
		}
		s.Room = fmt.Sprintf("r%d", cy*roomsX+cx)
	}
}
