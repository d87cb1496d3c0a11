package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/core"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// A run alternates slices with one client and slices with two, and what it
// reports is read across slices (see quietQuartile): wall-clock numbers on
// a shared two-core box drift by several percent from one second to the
// next, and a neighbour's burst of several seconds should slow some slices
// of each kind rather than all of one.
const (
	// minRounds is the fewest (solo slice, duo slice) pairs the untraced
	// part of a run is cut into; a slice is otherwise a second long.
	minRounds = 2
	// tracedShare is how long the traced pass drives the node, as a share
	// of the run's seconds.
	tracedShare = 0.25
	// A run sets the workload up at least minSetups times to time it, and
	// goes on, up to maxSetups times, until its set-up budget is spent: a
	// set-up of a few milliseconds needs many repeats for a steady median.
	minSetups = 3
	maxSetups = 30
	// setupShare and probeShare size the set-up budget and the budget of
	// one isolated probe, as shares of the run's seconds.
	setupShare = 1.0 / 20
	probeShare = 1.0 / 130
	// maxFailShare is the share of failed operations a run tolerates.
	maxFailShare = 0.001
)

// Tracing modes of a run.
const (
	traceOff  = 0 // untraced slices only: the end-to-end metrics
	traceOnly = 1 // a half-length untraced part, then the traced pass: the per-layer metrics
	traceBoth = 2 // both at full length
)

// sessionCounter numbers data directories within the process.
var sessionCounter atomic.Int64

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Samples counts what stands behind the percentiles and medians.
	Samples map[string]int `json:"samples"`
	// Slices holds the per-slice readings the metrics were read from.
	Slices map[string][]float64 `json:"slices"`
	// Errors holds the first failure of a few phases, for diagnosis.
	Errors []string `json:"errors,omitempty"`
	// Problems lists why the run does not count as correct.
	Problems []string `json:"problems,omitempty"`
	// TraceFile is where the traced pass wrote its spans.
	TraceFile string `json:"trace_file,omitempty"`
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// count adds a stretch of operations to the run's totals.
func (r *result) count(name string, attempted, failed int64, firstErr error) {
	r.Attempted += attempted
	r.Failed += failed
	if firstErr != nil && len(r.Errors) < 4 {
		r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", name, firstErr))
	}
}

// slice is what driving some clients for a stretch of time yields.
type slice struct {
	// ops were complete when the stretch ended; attempted also counts the
	// requests then in flight, which are checked like any other.
	ops, attempted int64
	seconds        float64
	cpu            float64   // user+system seconds of the whole process
	latencies      []float64 // microseconds, all clients pooled
	failed         int64
	firstErr       error
	wires          []wire
}

func (s slice) rps() float64      { return float64(s.ops) / s.seconds }
func (s slice) cpuPerOp() float64 { return s.cpu / float64(s.ops) * 1e6 }

// wireSamples bounds how many request/reply pairs a traced slice keeps.
const wireSamples = 256

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// drive runs every client as a closed loop — the next request leaves when
// the previous reply is checked — for dur. What was complete when dur ended
// counts; each client then finishes the request it has in flight. With a
// tracer the single client brackets each request with a root span.
func (s *session) drive(clients []*client, dur time.Duration, tr *tracer) slice {
	var stop atomic.Bool
	type tally struct {
		done      atomic.Int64
		latencies []float64
		failed    int64
		firstErr  error
		wires     []wire
	}
	tallies := make([]tally, len(clients))
	procs := make([]*supervise.Proc, len(clients))
	start, startCPU := obs.Real.Now(), cpuSeconds()
	for i, c := range clients {
		t, c := &tallies[i], c
		procs[i] = supervise.Spawn(fmt.Sprintf("bench-client-%d", i), func() {
			var w *wire
			if tr != nil {
				w = &wire{}
			}
			for !stop.Load() {
				begin := obs.Real.Now()
				if tr != nil {
					tr.begin("request")
				}
				err := s.w.op(s, c, w)
				if tr != nil {
					tr.end()
					if err == nil && len(t.wires) < wireSamples {
						t.wires = append(t.wires, *w)
					}
				}
				t.latencies = append(t.latencies, float64(obs.Real.Now().Sub(begin))/1e3)
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
				}
				t.done.Add(1)
			}
		})
	}
	obs.Real.Sleep(dur)
	sl := slice{seconds: obs.Real.Now().Sub(start).Seconds(), cpu: cpuSeconds() - startCPU}
	done := make([]int64, len(clients))
	for i := range tallies {
		done[i] = tallies[i].done.Load()
	}
	stop.Store(true)
	for i, p := range procs {
		<-p.Done()
		t := &tallies[i]
		if err := p.Err(); err != nil && t.firstErr == nil {
			t.firstErr = err
		}
		sl.ops += done[i]
		sl.attempted += int64(len(t.latencies))
		sl.latencies = append(sl.latencies, t.latencies[:done[i]]...)
		sl.failed += t.failed
		sl.wires = append(sl.wires, t.wires...)
		if sl.firstErr == nil {
			sl.firstErr = t.firstErr
		}
	}
	return sl
}

// percentile reads the p-th percentile off sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 0:
		return (s[n/2-1] + s[n/2]) / 2
	default:
		return s[n/2]
	}
}

// ratio is a/b, or 0 where a run too short to complete anything left b at 0:
// a result must stay writable as JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quietQuartile reads per-slice values at the quartile nearer the
// undisturbed end: the upper one where higher is better, else the lower.
// Other tenants of the box only ever slow a slice down, in bursts that
// last seconds, so this quartile follows the program where the median
// follows the neighbours; over ten-run sets it spread a fifth to a half
// less.
func quietQuartile(v []float64, higherBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Round(0.25 * float64(len(s)-1)))
	if higherBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

// duoClients is the most clients a run uses: two, or one on a one-core box.
func duoClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// deliveryTotals sums the envelope accounting of the node and of every
// client that has a platform of its own.
func deliveryTotals(n *node, clients []*client) (st agent.DeliveryStats) {
	platforms := []*agent.Platform{n.platform}
	for _, c := range clients {
		if c.link != nil {
			platforms = append(platforms, c.platform)
		}
	}
	for _, p := range platforms {
		d := p.DeliveryStats()
		st.Retries += d.Retries
		st.Shed += d.Shed
		st.DeadLettered += d.DeadLettered
	}
	return st
}

// warmUp performs n warm-up operations.
func (s *session) warmUp(c *client, n int) (failed int64, firstErr error) {
	for i := 0; i < n; i++ {
		if err := s.w.op(s, c, nil); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return failed, firstErr
}

// run is the settings of one run of one workload.
type run struct {
	w       *workload
	seed    int64
	seconds float64
	mode    int
	outDir  string
}

// share is a share of the run's seconds.
func (r run) share(x float64) time.Duration {
	return time.Duration(r.seconds * x * float64(time.Second))
}

// warmOps is how many operations warm a node up: fixed by the run's
// seconds, not a length of time, so that the live heap read right after
// them does not depend on how fast the node is. Caller-ID state is never
// freed, and a heap read after a fixed time would grow with every gain in
// speed.
func (r run) warmOps() int { return max(1, int(float64(r.w.warmOps)*r.seconds/20)) }

// measure is one run: set-ups, warm-up, the alternating solo and duo
// slices, and the traced pass, as the mode asks.
func (r run) measure() (*result, error) {
	w, seconds, mode := r.w, r.seconds, r.mode
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: r.seed, Samples: map[string]int{}, Slices: map[string][]float64{}}
	untraced := seconds
	if mode == traceOnly {
		untraced /= 2
	}
	rounds := max(minRounds, int(untraced/2))
	sliceDur := time.Duration(untraced / float64(2*rounds) * float64(time.Second))

	// Set-up, several times over; the last one is kept and driven.
	var s *session
	var clients []*client
	var setupSeconds []float64
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < r.share(setupShare)); i++ {
		if s != nil {
			closeClients(clients)
			s.node.close()
		}
		runtime.GC() // every set-up starts from the same heap
		start := obs.Real.Now()
		var err error
		if s, err = newSession(w, r.seed, r.outDir, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if clients, err = s.connect(duoClients()); err != nil {
			s.node.close()
			return nil, fmt.Errorf("%s: connect: %w", w.name, err)
		}
		took := obs.Real.Now().Sub(start)
		spent += took
		setupSeconds = append(setupSeconds, took.Seconds())
	}
	defer func() {
		closeClients(clients)
		s.node.close()
	}()

	failed, firstErr := s.warmUp(clients[0], r.warmOps())
	res.count("warm-up", int64(r.warmOps()), failed, firstErr)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	var duoOps, mallocs, allocBytes, pauseNs float64
	var before, after runtime.MemStats
	for round := 0; round < rounds; round++ {
		solo := s.drive(clients[:1], sliceDur, nil)
		res.count("solo", solo.attempted, solo.failed, solo.firstErr)
		sort.Float64s(solo.latencies)
		res.Slices["solo_p50_us"] = append(res.Slices["solo_p50_us"], percentile(solo.latencies, 50))
		res.Slices["solo_p99_us"] = append(res.Slices["solo_p99_us"], percentile(solo.latencies, 99))
		res.Samples["p50_us"] += len(solo.latencies)

		runtime.ReadMemStats(&before)
		duo := s.drive(clients, sliceDur, nil)
		runtime.ReadMemStats(&after)
		res.count("duo", duo.attempted, duo.failed, duo.firstErr)
		res.Slices["duo_rps"] = append(res.Slices["duo_rps"], duo.rps())
		if duo.ops > 0 {
			res.Slices["duo_cpu_us_per_op"] = append(res.Slices["duo_cpu_us_per_op"], duo.cpuPerOp())
		}
		res.Samples["throughput_rps"] += int(duo.ops)
		duoOps += float64(duo.attempted)
		mallocs += float64(after.Mallocs - before.Mallocs)
		allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
		pauseNs += float64(after.PauseTotalNs - before.PauseTotalNs)
	}
	res.Samples["p99_us"], res.Samples["cpu_us_per_op"] = res.Samples["p50_us"], res.Samples["throughput_rps"]
	res.Samples["setup_s"] = len(setupSeconds)
	p50 := quietQuartile(res.Slices["solo_p50_us"], false)

	if st := deliveryTotals(s.node, clients); st.Shed != 0 || st.DeadLettered != 0 {
		res.problem("untraced slices shed %d envelopes and dead-lettered %d", st.Shed, st.DeadLettered)
	}

	if mode != traceOnly {
		res.EndToEnd = map[string]metric{
			"throughput_rps": {quietQuartile(res.Slices["duo_rps"], true), "ops/s"},
			"p50_us":         {p50, "us"},
			"p99_us":         {quietQuartile(res.Slices["solo_p99_us"], false), "us"},
			"cpu_us_per_op":  {quietQuartile(res.Slices["duo_cpu_us_per_op"], false), "us"},
			"heap_mb":        {float64(live.HeapAlloc) / 1e6, "MB"},
			"setup_s":        {median(setupSeconds), "s"},
		}
	}

	if mode != traceOff {
		layers := zeroLayers()
		layers["process.allocs_per_op"] = ratio(mallocs, duoOps)
		layers["process.bytes_per_op"] = ratio(allocBytes, duoOps)
		layers["process.gc_pause_ms"] = pauseNs / 1e6
		rps := append([]float64(nil), res.Slices["duo_rps"]...)
		sort.Float64s(rps)
		layers["gen.slice_spread"] = ratio(rps[len(rps)-1]-rps[0], median(rps))
		if err := r.tracedPass(p50, layers, res); err != nil {
			return nil, err
		}
		res.PerLayer = map[string]metric{}
		for _, l := range perLayer {
			res.PerLayer[l.name] = metric{layers[l.name], l.unit}
		}
	}

	failShare := ratio(float64(res.Failed), float64(res.Attempted))
	if failShare > maxFailShare {
		res.problem("%d of %d operations failed", res.Failed, res.Attempted)
	}
	if res.EndToEnd != nil {
		res.EndToEnd["fail_share"] = metric{failShare, "share"}
	}
	return res, nil
}

// tracedPass builds a fresh node with the hooks installed, drives it with
// one client, then calls into each layer on its own.
func (r run) tracedPass(untracedP50 float64, layers map[string]float64, res *result) error {
	w := r.w
	tr := newTracer()
	s, err := newSession(w, r.seed, r.outDir, tr)
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer s.node.close()
	clients, err := s.connect(1)
	if err != nil {
		return fmt.Errorf("%s: traced connect: %w", w.name, err)
	}
	defer closeClients(clients)

	failed, firstErr := s.warmUp(clients[0], r.warmOps()) // hooks idle
	res.count("traced warm-up", int64(r.warmOps()), failed, firstErr)
	before := deliveryTotals(s.node, clients)
	walBefore := s.walState()
	// Sliced and read like the untraced solo slices, so that the two p50s
	// differ by the hooks alone.
	var ops float64
	var p50s []float64
	var wires []wire
	slices := max(minRounds, int(r.seconds*tracedShare))
	for i := 0; i < slices; i++ {
		sl := s.drive(clients, r.share(tracedShare)/time.Duration(slices), tr)
		res.count("traced", sl.attempted, sl.failed, sl.firstErr)
		ops += float64(sl.attempted)
		sort.Float64s(sl.latencies)
		p50s = append(p50s, percentile(sl.latencies, 50))
		if len(wires) < wireSamples {
			wires = append(wires, sl.wires...)
		}
	}
	walAfter := s.walState()
	after := deliveryTotals(s.node, clients)
	res.Samples["traced_ops"] = int(ops)
	layers["gen.trace_overhead_share"] = ratio(quietQuartile(p50s, false)-untracedP50, untracedP50)
	layers["agent.retries_per_op"] = ratio(float64(after.Retries-before.Retries), ops)
	layers["agent.shed"] = float64(after.Shed - before.Shed)
	layers["agent.dead_letters"] = float64(after.DeadLettered - before.DeadLettered)
	if after.Shed != before.Shed || after.DeadLettered != before.DeadLettered {
		res.problem("traced pass shed %d envelopes and dead-lettered %d",
			after.Shed-before.Shed, after.DeadLettered-before.DeadLettered)
	}

	spans := tr.durations()
	for name, key := range map[string]string{
		spanRequestPath: "agent.request_path_us",
		spanMailboxWait: "agent.mailbox_wait_us",
		spanReplyPath:   "agent.reply_path_us",
		spanHandler:     "core.handler_us",
	} {
		layers[key] = median(spans[name])
	}
	// Spans of one TCP request lie end to end, so they must add up to what
	// the client saw; a local conversation has stretches no hook can reach.
	if cover := tr.coverage(); !w.local && math.Abs(cover-1) > 0.1 {
		res.problem("child spans cover %.0f%% of the client-observed time", cover*100)
	}
	lookups, hits := 0, 0
	for _, wr := range wires {
		if reply, ok := wr.reply.(core.DiscoverReply); ok {
			lookups++
			if len(reply.Matches) > 0 {
				hits++
			}
		}
	}
	layers["discovery.hit_share"] = ratio(float64(hits), float64(lookups))
	layers["discovery.registry_size"] = float64(s.node.rt.Broker.Reg.Len())
	if s.node.store != nil {
		layers["durable.syncs"] = float64(walAfter.syncs - walBefore.syncs)
		layers["durable.wal_bytes_per_op"] = ratio(float64(walAfter.bytes-walBefore.bytes), ops)
	}
	if s.library != nil {
		layers["composition.run_us"] = median(spans["request"])
		layers["composition.lookups_per_conv"] = ratio(float64(len(spans[spanMatch])), ops)
		layers["composition.invokes_per_conv"] = ratio(float64(len(spans[spanHandler])), ops)
	}

	s.probeBudget = r.share(probeShare)
	if err := s.probeLayers(wires, layers); err != nil {
		return fmt.Errorf("%s: layer probes: %w", w.name, err)
	}
	res.TraceFile, err = tr.write(r.outDir, w.name)
	return err
}

// walState is the journal's sync count and size on disk.
type walState struct {
	syncs uint64
	bytes int64
}

func (s *session) walState() (st walState) {
	if s.node.store == nil {
		return st
	}
	st.syncs = s.node.store.Stats().WAL.Syncs
	segments, _ := filepath.Glob(filepath.Join(s.node.dir, "wal-*.log"))
	for _, seg := range segments {
		if info, err := os.Stat(seg); err == nil {
			st.bytes += info.Size()
		}
	}
	return st
}
