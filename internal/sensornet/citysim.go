package sensornet

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"pervasivegrid/internal/simevent"
)

// CitySim is the city-scale counterpart of Network: where Network models
// one building's radio graph in detail (O(n²) neighbor rebuilds, per-hop
// reservations), CitySim scales the paper's vision to the whole city —
// 100k+ sensors ticking — by trading radio-level fidelity for a sharded
// event loop. Nodes are partitioned across simevent.ShardedKernel shards;
// each shard samples, drains, and aggregates its own nodes every tick,
// and periodically reports its partial aggregate to the base station
// (shard 0) through cross-shard posts. Everything a node does derives
// from a per-node xorshift stream seeded by (Seed, node ID), and
// cross-shard merges happen in fixed source order, so a run is
// byte-identical for any worker count: Digest() is the proof.

const (
	// cityTickPeriod is the virtual sampling period in seconds.
	cityTickPeriod simevent.Duration = 1
	// cityReportEvery posts each shard's aggregate to the base station
	// every this many ticks.
	cityReportEvery = 5
)

// CityConfig parameterises a city-scale simulation.
type CityConfig struct {
	// Nodes is the sensor population (required).
	Nodes int
	// Shards partitions the population (default: 8, or Nodes when
	// smaller). Node id lives on shard id % Shards.
	Shards int
	// Workers bounds the goroutines executing shards (default
	// GOMAXPROCS). Any value yields the same run — that is the point.
	Workers int
	// Seed makes the whole simulation reproducible.
	Seed int64
	// InitialEnergy is the per-node battery in joules (default 2).
	InitialEnergy float64
	// SampleCost is joules drained per sample (default 5e-5, roughly a
	// mote-class sense+CPU budget per reading).
	SampleCost float64
}

func (c CityConfig) withDefaults() CityConfig {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards > c.Nodes {
		c.Shards = c.Nodes
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.InitialEnergy <= 0 {
		c.InitialEnergy = 2.0
	}
	if c.SampleCost <= 0 {
		c.SampleCost = 5e-5
	}
	return c
}

// cityNode is one simulated sensor's state. Kept flat (no pointers, no
// maps) so 100k of them stay cache- and GC-friendly.
type cityNode struct {
	rng     uint64  // per-node xorshift64 state
	energy  float64 // remaining battery, joules
	reading float64 // last sampled value
	samples uint32  // lifetime sample count
}

// next steps the node's xorshift64 stream and returns a uniform [0,1).
func (n *cityNode) next() float64 {
	x := n.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	n.rng = x
	return float64(x>>11) / float64(1<<53)
}

// cityShard owns one partition of the population. Only its own shard's
// event handlers touch it during a run.
type cityShard struct {
	idx   int
	nodes []cityNode // node id = idx + k*Shards for the k-th entry
	ticks int

	// Rolling aggregate since the last base report.
	sum   float64
	peak  float64
	alive int
}

// CityAggregate is the base station's merged view of the city.
type CityAggregate struct {
	Reports int     // shard reports merged
	Samples uint64  // total samples covered by merged reports
	Sum     float64 // sum of readings in merged reports
	Peak    float64 // hottest reading seen in any merged report
	Alive   int     // alive node-ticks covered by merged reports
}

// CitySim drives a sharded city-wide sensing population.
type CitySim struct {
	Cfg    CityConfig
	Kernel *simevent.ShardedKernel

	shards []*cityShard
	base   CityAggregate // owned by shard 0's handlers during a run
	ticks  int
}

// NewCitySim builds the population and arms one sampling ticker per
// shard. The field being sensed is synthetic but deterministic: a slow
// city-wide diurnal wave plus per-node noise from the node's own stream.
func NewCitySim(cfg CityConfig) (*CitySim, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sensornet: city sim needs nodes, got %d", cfg.Nodes)
	}
	cs := &CitySim{
		Cfg:    cfg,
		Kernel: simevent.NewSharded(cfg.Shards, cityTickPeriod, cfg.Workers),
		shards: make([]*cityShard, cfg.Shards),
	}
	for s := 0; s < cfg.Shards; s++ {
		count := (cfg.Nodes - s + cfg.Shards - 1) / cfg.Shards
		sh := &cityShard{idx: s, nodes: make([]cityNode, count)}
		for k := range sh.nodes {
			id := s + k*cfg.Shards
			// splitmix64 over (seed, id) gives every node an independent,
			// reproducible stream regardless of sharding arithmetic.
			sh.nodes[k] = cityNode{rng: splitmix64(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(id) + 1), energy: cfg.InitialEnergy}
		}
		cs.shards[s] = sh
		tk := simevent.NewTicker(cs.Kernel.Shard(s), cityTickPeriod, fmt.Sprintf("city-tick-%d", s), func(now simevent.Time) {
			cs.tickShard(sh, now)
		})
		if err := tk.Start(); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// splitmix64 is the standard 64-bit mixer; it turns correlated inputs
// into independent xorshift seeds and never returns zero.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 0x2545f4914f6cdd1d
	}
	return x
}

// tickShard samples every alive node in the shard and, every
// cityReportEvery ticks, posts the rolling aggregate to the base station on shard 0.
func (cs *CitySim) tickShard(sh *cityShard, now simevent.Time) {
	wave := 20 + 8*math.Sin(float64(now)/300*2*math.Pi) // diurnal-ish city wave
	sh.ticks++
	for k := range sh.nodes {
		n := &sh.nodes[k]
		if n.energy <= 0 {
			continue
		}
		n.reading = wave + 2*(n.next()-0.5)
		n.samples++
		n.energy -= cs.Cfg.SampleCost
		if n.energy < 0 {
			n.energy = 0
		}
		sh.sum += n.reading
		if n.reading > sh.peak {
			sh.peak = n.reading
		}
		sh.alive++
	}
	if sh.ticks%cityReportEvery == 0 {
		sum, peak, alive := sh.sum, sh.peak, sh.alive
		covered := uint64(sh.alive)
		sh.sum, sh.peak, sh.alive = 0, 0, 0
		_ = cs.Kernel.Post(sh.idx, 0, now, "city-report", func() {
			cs.base.Reports++
			cs.base.Samples += covered
			cs.base.Sum += sum
			if peak > cs.base.Peak {
				cs.base.Peak = peak
			}
			cs.base.Alive += alive
		})
	}
}

// Run advances the city by ticks sampling periods.
func (cs *CitySim) Run(ticks int) error {
	if ticks <= 0 {
		return nil
	}
	target := simevent.Time(cs.ticks+ticks) * cityTickPeriod
	if _, err := cs.Kernel.Run(target); err != nil {
		return err
	}
	cs.ticks += ticks
	return nil
}

// Digest folds every node's state (iterated in global node-ID order, so
// the partition layout cannot leak into the hash) plus the base
// aggregate into one FNV-1a value. Two runs with the same seed must
// produce identical digests regardless of Workers — the determinism
// contract of the sharded loop.
func (cs *CitySim) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for id := 0; id < cs.Cfg.Nodes; id++ {
		n := &cs.shards[id%cs.Cfg.Shards].nodes[id/cs.Cfg.Shards]
		w(n.rng)
		w(math.Float64bits(n.energy))
		w(math.Float64bits(n.reading))
		w(uint64(n.samples))
	}
	w(uint64(cs.base.Reports))
	w(cs.base.Samples)
	w(math.Float64bits(cs.base.Sum))
	w(math.Float64bits(cs.base.Peak))
	w(uint64(cs.base.Alive))
	return h.Sum64()
}
