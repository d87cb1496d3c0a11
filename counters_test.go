package pervasivegrid_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/durable"
	"pervasivegrid/internal/faultinject"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// TestCountsAgreeWithSeries: a component that counts an event reports
// the same number from its own stats and from its metric series, counts
// taken before AttachMetrics included. Each case counts, attaches to reg,
// counts again, and returns the series its stats imply and the registry
// that should hold them; that registry's counters of the case's
// families must be exactly that set.
func TestCountsAgreeWithSeries(t *testing.T) {
	cases := []struct {
		name     string
		families []string
		run      func(t *testing.T, reg *obs.Registry) (want map[string]float64, series *obs.Registry)
	}{
		{"platform", []string{"agent_delivered_total", "agent_retries_total", "agent_shed_total", "agent_dead_letter_total"}, platformCounts},
		{"tracer", []string{"trace_sampled_total", "trace_dropped_total", "trace_evicted_total"}, tracerCounts},
		{"event-log", []string{"events_emitted_total", "events_evicted_total"}, eventLogCounts},
		{"wal", []string{"durable_wal_appends_total", "durable_wal_syncs_total", "durable_wal_rotations_total",
			"durable_wal_replayed_total", "durable_wal_truncated_total", "durable_wal_write_errors_total"}, walCounts},
		{"supervisor", []string{"supervise_panics_total", "supervise_restarts_total", "supervise_giveups_total"}, supervisorCounts},
		{"injector", []string{"faultinject_seen_total", "faultinject_passed_total", "faultinject_dropped_total",
			"faultinject_duplicated_total", "faultinject_delayed_total", "faultinject_panics_total"}, injectorCounts},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, series := c.run(t, obs.NewRegistry())
			got := map[string]float64{}
			for k, v := range series.Snapshot().Counters {
				for _, f := range c.families {
					if k == f || strings.HasPrefix(k, f+"{") {
						got[k] = v
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("series disagree with stats:\n got  %v\n want %v", got, want)
			}
		})
	}
}

// platformCounts restores two dead letters, then delivers, sheds,
// dead-letters and retries. A platform counts in its own registry, which
// has no attach.
func platformCounts(t *testing.T, _ *obs.Registry) (map[string]float64, *obs.Registry) {
	p := agent.NewPlatform("n")
	defer p.Close()
	p.Mailbox = agent.MailboxOptions{Capacity: 1, Policy: agent.DropOldest}
	p.RestoreDeadLetters([]agent.DeadLetter{
		{Env: agent.Envelope{To: "x"}, Reason: agent.DropLinkDown},
		{Env: agent.Envelope{To: "y"}, Reason: agent.DropTTLExpired},
	})
	release := make(chan struct{})
	if err := p.Register("slow", agent.HandlerFunc(func(agent.Envelope, *agent.Context) { <-release }),
		agent.Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		env, _ := agent.NewEnvelope("c", "slow", "inform", "o", i)
		if err := p.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	ghost, _ := agent.NewEnvelope("c", "ghost", "inform", "o", nil)
	if err := agent.SendRetry(p, ghost, time.Second, agent.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}); !errors.Is(err, agent.ErrUnknownAgent) {
		t.Fatalf("SendRetry to a ghost: %v", err)
	}

	st := p.DeliveryStats()
	if st.Delivered == 0 || st.Retries != 2 || st.Shed == 0 || st.Reasons[agent.DropLinkDown] != 1 {
		t.Fatalf("the scenario did not count what it meant to: %+v", st)
	}
	want := map[string]float64{
		"agent_delivered_total":                  float64(st.Delivered),
		"agent_retries_total":                    float64(st.Retries),
		`agent_shed_total{policy="drop-oldest"}`: float64(st.Shed),
	}
	var sum uint64
	for reason, n := range st.Reasons {
		want[fmt.Sprintf(`agent_dead_letter_total{reason="%s"}`, reason)] = float64(n)
		sum += n
	}
	if sum != st.DeadLettered {
		t.Fatalf("DeadLettered %d is not the sum of its reasons %d", st.DeadLettered, sum)
	}
	return want, p.Metrics()
}

// tracerCounts records into a small sampled ring on both sides of the
// attach, so some spans are dropped and some evicted.
func tracerCounts(t *testing.T, reg *obs.Registry) (map[string]float64, *obs.Registry) {
	tr := obs.NewTracer(8)
	tr.SetSampler(obs.NewSampler(0.5))
	records := 0
	record := func(n int) {
		for i := 0; i < n; i++ {
			tr.Record(obs.Span{Trace: obs.NewTraceID(), Kind: obs.SpanSend})
			records++
		}
	}
	record(40)
	tr.AttachMetrics(reg)
	record(40)
	_, sampled := tr.Since(0, 0) // no spans, and the kept total
	evicted := sampled - uint64(len(tr.Spans()))
	if sampled == 0 || evicted == 0 || sampled == uint64(records) {
		t.Fatalf("sampled %d of %d, evicted %d: the scenario missed a count", sampled, records, evicted)
	}
	return map[string]float64{
		"trace_sampled_total": float64(sampled),
		"trace_dropped_total": float64(uint64(records) - sampled),
		"trace_evicted_total": float64(evicted),
	}, reg
}

// eventLogCounts emits past the ring's capacity before and after the
// attach.
func eventLogCounts(t *testing.T, reg *obs.Registry) (map[string]float64, *obs.Registry) {
	l := obs.NewEventLog(4)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			l.Emit(obs.NewEvent("n", uint64(i+1), "a", "b", "o", time.Time{}))
		}
	}
	emit(6)
	l.AttachMetrics(reg)
	emit(3)
	if l.Total() != 9 || l.Evicted() != 5 {
		t.Fatalf("total %d evicted %d, want 9/5", l.Total(), l.Evicted())
	}
	return map[string]float64{
		"events_emitted_total": float64(l.Total()),
		"events_evicted_total": float64(l.Evicted()),
	}, reg
}

// walCounts writes a log, tears its tail, reopens it (replay and
// truncation at open), attaches, and appends across a rotation.
func walCounts(t *testing.T, reg *obs.Registry) (map[string]float64, *obs.Registry) {
	dir := t.TempDir()
	opts := durable.Options{SegmentBytes: 64}
	w, err := durable.OpenWAL(dir, 0, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	last := w.ActiveSegment()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("wal-%08d.log", last)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0}); err != nil { // a torn frame header
		t.Fatal(err)
	}
	f.Close()

	w, err = durable.OpenWAL(dir, 0, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.AttachMetrics(reg)
	for i := 0; i < 6; i++ {
		if err := w.Append([]byte(fmt.Sprintf("more-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Replayed != 3 || st.Truncated != 1 || st.Rotations == 0 {
		t.Fatalf("the scenario did not count what it meant to: %+v", st)
	}
	return map[string]float64{
		"durable_wal_appends_total":      float64(st.Appends),
		"durable_wal_syncs_total":        float64(st.Syncs),
		"durable_wal_rotations_total":    float64(st.Rotations),
		"durable_wal_replayed_total":     float64(st.Replayed),
		"durable_wal_truncated_total":    float64(st.Truncated),
		"durable_wal_write_errors_total": float64(st.WriteErrors),
	}, reg
}

// supervisorCounts crashes child "a" past its budget before the attach
// and child "b" once after it.
func supervisorCounts(t *testing.T, reg *obs.Registry) (map[string]float64, *obs.Registry) {
	s := supervise.NewSupervisor("s", supervise.Policy{Restart: true, MaxRestarts: 2, BaseDelay: time.Millisecond})
	crashing := func(n int) func(<-chan struct{}) {
		return func(<-chan struct{}) {
			if n > 0 {
				n--
				panic("boom")
			}
		}
	}
	<-s.Spawn("a", crashing(5)).Done()
	s.AttachMetrics(reg)
	<-s.Spawn("b", crashing(1)).Done()
	st := s.Stats()
	if st != (supervise.Stats{Panics: 4, Restarts: 3, GiveUps: 1}) {
		t.Fatalf("stats %+v, want 4 panics, 3 restarts, 1 give-up", st)
	}
	return map[string]float64{
		`supervise_panics_total{child="a"}`:   3,
		`supervise_restarts_total{child="a"}`: 2,
		`supervise_giveups_total{child="a"}`:  1,
		`supervise_panics_total{child="b"}`:   1,
		`supervise_restarts_total{child="b"}`: 1,
		`supervise_giveups_total{child="b"}`:  0,
	}, reg
}

// injectorCounts passes envelopes through a wrapped route and crashes a
// wrapped handler on both sides of the attach.
func injectorCounts(t *testing.T, reg *obs.Registry) (map[string]float64, *obs.Registry) {
	in := faultinject.New(faultinject.Config{Seed: 3, DropEveryN: 3, DupProb: 0.3, PanicEveryN: 2})
	route := in.WrapRoute(func(agent.Envelope) bool { return true })
	h := in.WrapHandler(agent.HandlerFunc(func(agent.Envelope, *agent.Context) {}))
	run := func(n int) {
		for i := 0; i < n; i++ {
			route(agent.Envelope{Seq: uint64(i + 1)})
			func() {
				defer func() { _ = recover() }()
				h.Handle(agent.Envelope{Seq: uint64(i + 1)}, nil)
			}()
		}
	}
	run(10)
	in.AttachMetrics(reg)
	run(10)
	st := in.Stats()
	if st.Seen != 20 || st.Dropped == 0 || st.Duplicated == 0 || st.Panicked != 10 || st.Passed != st.Seen-st.Dropped+st.Duplicated {
		t.Fatalf("the scenario did not count what it meant to: %+v", st)
	}
	return map[string]float64{
		"faultinject_seen_total":       float64(st.Seen),
		"faultinject_passed_total":     float64(st.Passed),
		"faultinject_dropped_total":    float64(st.Dropped),
		"faultinject_duplicated_total": float64(st.Duplicated),
		"faultinject_delayed_total":    float64(st.Delayed),
		"faultinject_panics_total":     float64(st.Panicked),
	}, reg
}
