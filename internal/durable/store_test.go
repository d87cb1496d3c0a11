package durable_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/durable"
	"pervasivegrid/internal/leak"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

// expectedState is the pure-Go model the store must agree with after
// recovering any prefix of a journaled op sequence.
type expectedState struct {
	ckpts map[string]string // agent id -> snapshot JSON
	dead  []uint64          // dead-letter envelope seqs, oldest first
	regs  map[string]time.Time
}

func newExpectedState() *expectedState {
	return &expectedState{ckpts: map[string]string{}, regs: map[string]time.Time{}}
}

// storeOp is one journaled operation plus its model effect.
type storeOp struct {
	journal func(s *durable.Store)
	model   func(e *expectedState)
}

var propBase = time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)

// randomOps builds a deterministic mixed op sequence.
func randomOps(rng *rand.Rand, n int) []storeOp {
	agents := []string{"solver-1", "solver-2", "query-agent"}
	services := []string{"printer", "sensor", "gateway"}
	var ops []storeOp
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // checkpoint
			id := agents[rng.Intn(len(agents))]
			snap := fmt.Sprintf(`{"count":%d}`, i)
			ops = append(ops, storeOp{
				journal: func(s *durable.Store) {
					s.JournalCheckpoint(agent.ID(id), json.RawMessage(snap))
				},
				model: func(e *expectedState) { e.ckpts[id] = snap },
			})
		case 1: // dead letter
			seq := uint64(1000 + i)
			ops = append(ops, storeOp{
				journal: func(s *durable.Store) {
					s.JournalDeadLetter(agent.DeadLetter{
						Env:    agent.Envelope{Seq: seq, To: "nobody"},
						Reason: agent.DropNoRoute,
					})
				},
				model: func(e *expectedState) {
					e.dead = append(e.dead, seq)
					if len(e.dead) > agent.DefaultDeadLetterCap {
						e.dead = e.dead[len(e.dead)-agent.DefaultDeadLetterCap:]
					}
				},
			})
		case 2: // register / renew
			name := services[rng.Intn(len(services))]
			expires := propBase.Add(time.Duration(i) * time.Minute)
			ops = append(ops, storeOp{
				journal: func(s *durable.Store) {
					s.JournalRegistration(&ontology.Profile{Name: name, Concept: "Service"}, expires)
				},
				model: func(e *expectedState) { e.regs[name] = expires },
			})
		default: // deregister
			name := services[rng.Intn(len(services))]
			ops = append(ops, storeOp{
				journal: func(s *durable.Store) { s.JournalDeregister(name) },
				model:   func(e *expectedState) { delete(e.regs, name) },
			})
		}
	}
	return ops
}

// checkState asserts a recovered store matches the model.
func checkState(t *testing.T, tag string, s *durable.Store, want *expectedState) {
	t.Helper()
	ckpts := s.Checkpoints()
	if len(ckpts) != len(want.ckpts) {
		t.Fatalf("%s: %d checkpoints, want %d", tag, len(ckpts), len(want.ckpts))
	}
	for id, snap := range want.ckpts {
		if got := string(ckpts[agent.ID(id)]); got != snap {
			t.Fatalf("%s: checkpoint %q = %s, want %s", tag, id, got, snap)
		}
	}
	var deadSeqs []uint64
	for _, dl := range s.DeadLetters() {
		deadSeqs = append(deadSeqs, dl.Env.Seq)
	}
	if !reflect.DeepEqual(deadSeqs, want.dead) {
		t.Fatalf("%s: dead letters %v, want %v", tag, deadSeqs, want.dead)
	}
	regs := s.Registrations()
	if len(regs) != len(want.regs) {
		t.Fatalf("%s: %d registrations, want %d", tag, len(regs), len(want.regs))
	}
	for name, expires := range want.regs {
		got, ok := regs[name]
		if !ok || !got.Expires.Equal(expires) {
			t.Fatalf("%s: registration %q = %+v, want expires %v", tag, name, got, expires)
		}
	}
}

// TestStoreCrashAtEveryByteOffset is the tentpole property test: a
// random mixed op sequence, the journal cut at EVERY byte offset (a
// crash mid-write), and recovery must yield exactly the model state of
// the longest surviving record prefix.
func TestStoreCrashAtEveryByteOffset(t *testing.T) {
	defer leak.Check(t)()
	rng := rand.New(rand.NewSource(20260809))
	ops := randomOps(rng, 25)

	base := t.TempDir()
	dir := filepath.Join(base, "node")
	opts := durable.Options{}
	s, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ends []int64 // journal size after each op (record boundaries)
	for _, op := range ops {
		op.journal(s)
		ends = append(ends, s.Stats().WAL.ActiveBytes)
	}
	if st := s.Stats(); st.AppendErrors != 0 || st.WAL.Rotations != 0 {
		t.Fatalf("expected one clean segment, stats=%+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}

	for cut := int64(0); cut <= int64(len(whole)); cut++ {
		// The model state after the ops whose records fully survived.
		want := newExpectedState()
		for i, end := range ends {
			if end <= cut {
				ops[i].model(want)
			}
		}
		cutDir := filepath.Join(base, "cut")
		if err := os.MkdirAll(cutDir, 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, "wal-00000001.log"), whole[:cut], 0o644); err != nil {
			t.Fatalf("write cut: %v", err)
		}
		s2, err := durable.Open(cutDir, opts)
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		checkState(t, fmt.Sprintf("cut at %d", cut), s2, want)
		if st := s2.Stats(); st.BadRecords != 0 {
			t.Fatalf("cut at %d: bad records %d (CRC should reject, not decode)", cut, st.BadRecords)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut at %d: Close: %v", cut, err)
		}
		os.RemoveAll(cutDir)
	}
}

// TestStoreCompaction proves snapshot + tail recovery: compact
// mid-sequence, journal more, recover — and the pre-compaction
// segments must be gone from disk.
func TestStoreCompaction(t *testing.T) {
	defer leak.Check(t)()
	rng := rand.New(rand.NewSource(99))
	ops := randomOps(rng, 40)
	dir := t.TempDir()
	opts := durable.Options{SegmentBytes: 256, Sync: durable.SyncOnRotate}

	want := newExpectedState()
	s, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, op := range ops {
		op.journal(s)
		op.model(want)
		if i == 19 {
			if err := s.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	s2, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	checkState(t, "after compaction", s2, want)
}

// TestStoreDeadLettersBounded: replay keeps only the newest
// agent.DefaultDeadLetterCap journaled dead letters, as the platform's
// ring does.
func TestStoreDeadLettersBounded(t *testing.T) {
	defer leak.Check(t)()
	dir := t.TempDir()
	opts := durable.Options{Sync: durable.SyncOnRotate}
	s, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := agent.DefaultDeadLetterCap + 10
	for i := 1; i <= n; i++ {
		s.JournalDeadLetter(agent.DeadLetter{Env: agent.Envelope{Seq: uint64(i), To: "nobody"}, Reason: agent.DropNoRoute})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	dead := s2.DeadLetters()
	if len(dead) != agent.DefaultDeadLetterCap {
		t.Fatalf("recovered %d dead letters, want %d", len(dead), agent.DefaultDeadLetterCap)
	}
	if dead[0].Env.Seq != 11 || dead[len(dead)-1].Env.Seq != uint64(n) {
		t.Fatalf("recovered seq %d..%d, want the newest 11..%d", dead[0].Env.Seq, dead[len(dead)-1].Env.Seq, n)
	}
}

// counterAgent is a Checkpointer whose state survives both in-process
// restarts (live snapshot) and process death (RecoveredSnapshot).
type counterAgent struct {
	mu    sync.Mutex
	count int
}

type counterState struct {
	Count int `json:"count"`
}

func (c *counterAgent) Handle(env agent.Envelope, ctx *agent.Context) {
	c.mu.Lock()
	c.count++
	c.mu.Unlock()
}

func (c *counterAgent) Checkpoint() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return counterState{Count: c.count}
}

func (c *counterAgent) Restore(snapshot any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch s := snapshot.(type) {
	case agent.RecoveredSnapshot:
		var st counterState
		if json.Unmarshal(s, &st) == nil {
			c.count = st.Count
		}
	case counterState:
		c.count = s.Count
	}
}

func (c *counterAgent) value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// TestStoreAttachPlatformRoundTrip runs a platform over a store, kills
// it (Close), and proves a second platform over a reopened store starts
// with the first one's checkpoints and dead letters.
func TestStoreAttachPlatformRoundTrip(t *testing.T) {
	defer leak.Check(t)()
	dir := t.TempDir()

	// Life 1: handle traffic, take dead letters, close.
	s, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p := agent.NewPlatform("life1")
	s.AttachPlatform(p)
	c := &counterAgent{}
	if err := p.Register("counter", c, agent.Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		env, err := agent.NewEnvelope("test", "counter", "inform", "x-data", i)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Send(env); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	env, _ := agent.NewEnvelope("test", "ghost", "inform", "x-data", nil)
	if err := p.Send(env); err == nil {
		t.Fatal("send to ghost should fail")
	}
	waitFor(t, func() bool { return c.value() == 5 }, "counter to reach 5")
	waitFor(t, func() bool { return s.Stats().Checkpoints == 1 }, "checkpoint journaled")
	p.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Life 2: recover; the counter must resume from 5, the ghost letter
	// must still be in the ring.
	s2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	p2 := agent.NewPlatform("life2")
	s2.AttachPlatform(p2)
	c2 := &counterAgent{}
	if err := p2.Register("counter", c2, agent.Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	env2, _ := agent.NewEnvelope("test", "counter", "inform", "x-data", 99)
	if err := p2.Send(env2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c2.value() == 6 }, "recovered counter to reach 5+1")
	dls := p2.DeadLetters()
	if len(dls) != 1 || dls[0].Env.To != "ghost" || dls[0].Reason != agent.DropNoRoute {
		t.Fatalf("recovered dead letters = %+v, want the ghost no_route letter", dls)
	}
	p2.Close()
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestStoreAttachRegistryRoundTrip proves registrations survive a
// restart with their remaining TTL, expired leases are skipped, and
// explicit deregistrations hold across lives.
func TestStoreAttachRegistryRoundTrip(t *testing.T) {
	defer leak.Check(t)()
	dir := t.TempDir()

	s, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r := discovery.NewRegistry()
	s.AttachRegistry(r)
	if _, err := r.Register(&ontology.Profile{Name: "svc-long", Concept: "Service"}, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(&ontology.Profile{Name: "svc-short", Concept: "Service"}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(&ontology.Profile{Name: "svc-gone", Concept: "Service"}, time.Hour); err != nil {
		t.Fatal(err)
	}
	r.Deregister("svc-gone")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	time.Sleep(5 * time.Millisecond) // let svc-short's lease die
	s2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	r2 := discovery.NewRegistry()
	s2.AttachRegistry(r2)
	profiles := r2.Profiles()
	if len(profiles) != 1 || profiles[0].Name != "svc-long" {
		names := make([]string, 0, len(profiles))
		for _, p := range profiles {
			names = append(names, p.Name)
		}
		t.Fatalf("recovered profiles = %v, want [svc-long]", names)
	}
}

// TestStoreLiveMirrorEqualsReplay: the mirror the live path keeps, from
// the records it journals, equals the one Open replays from disk. Times are
// compared with Equal (JSON drops the monotonic reading) and checkpoint
// payloads as compacted bytes (the journal compacts a raw one).
func TestStoreLiveMirrorEqualsReplay(t *testing.T) {
	defer leak.Check(t)()
	dir := t.TempDir()
	s, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r := discovery.NewRegistry()
	s.AttachRegistry(r)
	leases := map[string]discovery.Lease{}
	for i := range 12 {
		name := fmt.Sprintf("svc-%d", i%5)
		p := &ontology.Profile{Name: name, Concept: "Service", Outputs: []string{"Service"},
			Properties: map[string]ontology.Value{"cost": ontology.Num(float64(i)), "room": ontology.Str("r1")}}
		if i%3 == 2 {
			p.Inputs = []string{}
		}
		l, err := r.Register(p, time.Duration(i+1)*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		leases[name] = l
	}
	if _, err := r.Renew(leases["svc-1"], time.Hour); err != nil {
		t.Fatal(err)
	}
	r.Deregister("svc-3")
	s.JournalCheckpoint("solver-1", json.RawMessage(`{ "count" : 1 }`))
	s.JournalCheckpoint("solver-2", map[string]int{"count": 2})
	s.JournalCheckpoint("query-agent", agent.RecoveredSnapshot(`{"count":[3, 4]}`))
	s.JournalCheckpoint("solver-1", json.RawMessage(`{"count":5}`))
	for i := range 3 {
		s.JournalDeadLetter(agent.DeadLetter{Reason: agent.DropNoRoute,
			Env: agent.Envelope{Seq: uint64(i + 1), To: "nobody", Content: []byte(`{"n":1}`)}})
	}
	live := struct {
		ckpts map[agent.ID]json.RawMessage
		dead  []agent.DeadLetter
		regs  map[string]durable.Registration
	}{s.Checkpoints(), s.DeadLetters(), s.Registrations()}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()

	if st := s2.Stats(); st.BadRecords != 0 || st.Registrations != 4 || st.Checkpoints != 3 || st.DeadLetters != 3 {
		t.Fatalf("replayed %+v", st)
	}
	replayed := s2.Checkpoints()
	if len(replayed) != len(live.ckpts) {
		t.Fatalf("%d checkpoints live, %d replayed", len(live.ckpts), len(replayed))
	}
	for id, raw := range live.ckpts {
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		if got := string(replayed[id]); got != compact.String() {
			t.Fatalf("checkpoint %q: live %s, replayed %s", id, raw, got)
		}
	}
	if got := s2.DeadLetters(); !reflect.DeepEqual(got, live.dead) {
		t.Fatalf("dead letters: live %+v, replayed %+v", live.dead, got)
	}
	regs := s2.Registrations()
	if len(regs) != len(live.regs) {
		t.Fatalf("%d registrations live, %d replayed", len(live.regs), len(regs))
	}
	for name, want := range live.regs {
		got, ok := regs[name]
		if !ok || !got.Expires.Equal(want.Expires) || !reflect.DeepEqual(got.Profile, want.Profile) {
			t.Fatalf("registration %q: live %+v, replayed %+v", name, want, got)
		}
	}
}

// waitFor polls cond until true or a 5s deadline.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreMetricsAndSummary pins the operator-facing surface: the
// durable_wal_* counter series pgridd scrapes and the one-line boot /
// shutdown summary it prints.
func TestStoreMetricsAndSummary(t *testing.T) {
	defer leak.Check(t)()
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st.AttachMetrics(reg)

	st.JournalCheckpoint("node", map[string]int{"count": 3})
	st.JournalDeregister("ghost-service")
	if err := st.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}

	snap := reg.Snapshot()
	if snap.Counters["durable_wal_appends_total"] < 2 {
		t.Fatalf("appends counter = %v, want >= 2 (counters: %v)",
			snap.Counters["durable_wal_appends_total"], snap.Counters)
	}
	if snap.Counters["durable_wal_syncs_total"] < 1 {
		t.Fatalf("syncs counter = %v, want >= 1", snap.Counters["durable_wal_syncs_total"])
	}
	if snap.Counters["durable_wal_rotations_total"] < 1 {
		t.Fatalf("rotations counter = %v, want >= 1 (Compact rotates)",
			snap.Counters["durable_wal_rotations_total"])
	}

	sum := st.Summary()
	if !strings.Contains(sum, "durable: seg=") || !strings.Contains(sum, "ckpts=1") {
		t.Fatalf("summary = %q", sum)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The summary survives a reopen: the snapshot carries the checkpoint.
	st2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if sum2 := st2.Summary(); !strings.Contains(sum2, "ckpts=1") {
		t.Fatalf("reopened summary = %q", sum2)
	}
}

// TestSyncPolicyString pins the flag spellings pgridd documents.
func TestSyncPolicyString(t *testing.T) {
	if durable.SyncAlways.String() != "always" || durable.SyncOnRotate.String() != "rotate" {
		t.Fatalf("policy names drifted: %q %q", durable.SyncAlways, durable.SyncOnRotate)
	}
	if s := durable.SyncPolicy(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown policy string = %q", s)
	}
}
