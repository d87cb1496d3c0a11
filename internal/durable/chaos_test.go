package durable_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
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

// kill -9 chaos test: a real node process — platform, counter agent,
// discovery registry, TCP gateway, all journaling through a durable
// store — is SIGKILLed mid-conversation. A second process restarted
// from the same -data-dir must recover the counter's checkpoint, the
// dead-letter ring, and the service registrations, and the client's
// in-flight conversation must complete end-to-end through retry +
// reconnect. This is the acceptance scenario of ROADMAP open item 4,
// run for real: two OS processes, real TCP, a real uncatchable signal.
//
// The node also carries the observability pipeline's black box: a
// flight recorder journaling every wide event and span through its own
// WAL. The restarted process must recover the pre-crash records — the
// conversations the dead process was having are readable after the
// SIGKILL, which is the `pgridd -flight-dump` contract.

const (
	chaosOntology = "x-durable-chaos"
	nodeEnvFlag   = "PGRID_DURABLE_NODE"
	nodeEnvDir    = "PGRID_DURABLE_DIR"
	nodeEnvAddr   = "PGRID_DURABLE_ADDR"
)

// ackCounter is the node's conversation partner: each "inc" bumps the
// count and acks it back. It checkpoints through the platform hooks, so
// its count survives both panics and power loss.
type ackCounter struct {
	mu    sync.Mutex
	count int
}

// ackReplyPolicy ships the counter's acks through the retry layer — each
// ack is then a conversation the node's wide-event log records, which is
// what the flight recorder journals for post-SIGKILL forensics.
var ackReplyPolicy = agent.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}

func (a *ackCounter) Handle(env agent.Envelope, ctx *agent.Context) {
	a.mu.Lock()
	a.count++
	n := a.count
	a.mu.Unlock()
	if reply, err := env.Reply("ack", n); err == nil {
		_ = agent.SendRetry(ctx.Platform, reply, 2*time.Second, ackReplyPolicy)
	}
}

func (a *ackCounter) Checkpoint() any {
	a.mu.Lock()
	defer a.mu.Unlock()
	return counterState{Count: a.count}
}

func (a *ackCounter) Restore(snapshot any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch s := snapshot.(type) {
	case agent.RecoveredSnapshot:
		var st counterState
		if json.Unmarshal(s, &st) == nil {
			a.count = st.Count
		}
	case counterState:
		a.count = s.Count
	}
}

// TestDurableNodeProcess is not a test: it is the child-process body
// the chaos test re-executes this binary into (the standard subprocess
// idiom). It builds a full durable node and blocks until killed.
func TestDurableNodeProcess(t *testing.T) {
	if os.Getenv(nodeEnvFlag) != "1" {
		t.Skip("helper process for TestChaosKillDashNine")
	}
	dir := os.Getenv(nodeEnvDir)
	addr := os.Getenv(nodeEnvAddr)

	store, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		fmt.Printf("FAIL open store: %v\n", err)
		return
	}
	p := agent.NewPlatform("durable-node")
	store.AttachPlatform(p)

	// Black box: full-capture tracer + wide-event log, both journaled
	// through the flight recorder's WAL. Hooked after the store attaches
	// so the crash marks chain onto the same platform hooks.
	p.Tracer = obs.NewTracer(1024)
	p.Events = obs.NewEventLog(256)
	flight, err := durable.OpenFlight(filepath.Join(dir, "flight"))
	if err != nil {
		fmt.Printf("FAIL open flight: %v\n", err)
		return
	}
	flight.Hook(p.Tracer, p.Events)
	flight.AttachPlatform(p)

	counter := &ackCounter{}
	if err := p.Register("counter", counter, agent.Attributes{}, nil); err != nil {
		fmt.Printf("FAIL register counter: %v\n", err)
		return
	}

	reg := discovery.NewRegistry()
	store.AttachRegistry(reg)
	if len(reg.Profiles()) == 0 {
		// First life: advertise. Later lives must recover these from
		// the journal, not re-create them.
		for _, name := range []string{"svc-a", "svc-b"} {
			if _, err := reg.Register(&ontology.Profile{Name: name, Concept: "Service"}, time.Hour); err != nil {
				fmt.Printf("FAIL register %s: %v\n", name, err)
				return
			}
		}
	}
	if err := p.Register("registry-agent", agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		var names []string
		for _, prof := range reg.Profiles() {
			names = append(names, prof.Name)
		}
		if reply, err := env.Reply("inform", names); err == nil {
			_ = ctx.Send(reply)
		}
	}), agent.Attributes{}, nil); err != nil {
		fmt.Printf("FAIL register registry-agent: %v\n", err)
		return
	}

	if _, err := agent.ListenAndServe(p, addr); err != nil {
		fmt.Printf("FAIL listen %s: %v\n", addr, err)
		return
	}

	recovered := 0
	if raw, ok := store.Checkpoints()["counter"]; ok {
		var st counterState
		if json.Unmarshal(raw, &st) == nil {
			recovered = st.Count
		}
	}
	fmt.Printf("READY count=%d regs=%d deadletters=%d flightevents=%d flightspans=%d\n",
		recovered, len(reg.Profiles()), len(store.DeadLetters()),
		len(flight.RecoveredEvents()), len(flight.RecoveredSpans()))
	select {} // hold the node up until the parent kills it
}

// nodeProc is one spawned child-node process.
type nodeProc struct {
	cmd   *exec.Cmd
	ready chan string
	done  chan struct{}
}

// startNode re-execs the test binary as a durable node on dir/addr and
// scans its stdout for the READY line.
func startNode(t *testing.T, dir, addr string) *nodeProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestDurableNodeProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		nodeEnvFlag+"=1", nodeEnvDir+"="+dir, nodeEnvAddr+"="+addr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start node: %v", err)
	}
	np := &nodeProc{cmd: cmd, ready: make(chan string, 1), done: make(chan struct{})}
	go func() {
		defer close(np.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if len(line) >= 5 && line[:5] == "READY" {
				select {
				case np.ready <- line:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() { np.kill() })
	return np
}

// awaitReady blocks for the node's READY line and parses its fields.
func (np *nodeProc) awaitReady(t *testing.T) (count, regs, deadletters, flightEvents, flightSpans int) {
	t.Helper()
	select {
	case line := <-np.ready:
		if _, err := fmt.Sscanf(line, "READY count=%d regs=%d deadletters=%d flightevents=%d flightspans=%d",
			&count, &regs, &deadletters, &flightEvents, &flightSpans); err != nil {
			t.Fatalf("bad READY line %q: %v", line, err)
		}
		return count, regs, deadletters, flightEvents, flightSpans
	case <-time.After(30 * time.Second):
		t.Fatal("node never became READY")
		return 0, 0, 0, 0, 0
	}
}

// kill SIGKILLs the node — the one signal no deferred fsync can catch —
// and reaps it.
func (np *nodeProc) kill() {
	if np.cmd.Process != nil {
		_ = np.cmd.Process.Kill()
	}
	_ = np.cmd.Wait()
	<-np.done
}

func TestChaosKillDashNine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	defer leak.Check(t)()
	dir := t.TempDir()

	// Reserve an address the node can reuse across both lives.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// Life 1: fresh node — empty black box.
	node := startNode(t, dir, addr)
	count, regs, deadletters, fe, fs := node.awaitReady(t)
	if count != 0 || regs != 2 || deadletters != 0 {
		t.Fatalf("fresh node READY count=%d regs=%d deadletters=%d, want 0/2/0",
			count, regs, deadletters)
	}
	if fe != 0 || fs != 0 {
		t.Fatalf("fresh node recovered flightevents=%d flightspans=%d, want 0/0", fe, fs)
	}

	client := agent.NewPlatform("chaos-client")
	defer client.Close()
	link := agent.DialReconnect(client, addr, agent.ReconnectOptions{
		MaxBuffer: 64,
		BaseDelay: 5 * time.Millisecond,
	})
	defer link.Close()

	policy := agent.RetryPolicy{
		MaxAttempts:    30,
		BaseDelay:      20 * time.Millisecond,
		MaxDelay:       250 * time.Millisecond,
		Jitter:         0.2,
		AttemptTimeout: 300 * time.Millisecond,
		Seed:           7,
	}

	// Five acknowledged increments — each ack means the node handled it,
	// and with SyncAlways the checkpoint hits the journal right after.
	for i := 1; i <= 5; i++ {
		reply, err := agent.CallRetry(client, "counter", "inc", chaosOntology, i, 20*time.Second, policy)
		if err != nil {
			t.Fatalf("inc %d: %v", i, err)
		}
		var n int
		if err := reply.Decode(&n); err != nil || n < i {
			t.Fatalf("inc %d acked %d (%v)", i, n, err)
		}
	}

	// Provoke a dead letter on the node: an envelope for an agent that
	// does not exist, shipped over the real link.
	ghost, err := agent.NewEnvelope("chaos-client", "ghost", "inform", chaosOntology, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(ghost); err != nil {
		t.Fatalf("send to ghost (link should accept): %v", err)
	}

	// Let the last checkpoint and the ghost's dead letter reach the
	// journal (both are written synchronously once the node processes
	// them; the sleep covers the in-flight window).
	time.Sleep(200 * time.Millisecond)

	// Start an in-flight conversation, then kill -9 mid-flight. The
	// retry policy is long enough to span the node's death and rebirth.
	type result struct {
		n   int
		err error
	}
	inflight := make(chan result, 1)
	go func() {
		reply, err := agent.CallRetry(client, "counter", "inc", chaosOntology, 6, 60*time.Second, policy)
		var n int
		if err == nil {
			err = reply.Decode(&n)
		}
		inflight <- result{n: n, err: err}
	}()
	time.Sleep(10 * time.Millisecond)
	node.kill()

	// Life 2: same data dir, same address. The READY line proves the
	// journal: the counter's checkpoint, both service registrations, and
	// the ghost's dead letter all survived the SIGKILL. So did the black
	// box: the five acked conversations' wide events and the spans of
	// the traffic the dead process was carrying (including the in-flight
	// inc's delivery spans) are back, pre-crash, before any new traffic.
	node2 := startNode(t, dir, addr)
	count2, regs2, dead2, fe2, fs2 := node2.awaitReady(t)
	if count2 < 5 {
		t.Fatalf("recovered count = %d, want >= 5 acknowledged increments", count2)
	}
	if regs2 != 2 {
		t.Fatalf("recovered registrations = %d, want 2 (svc-a, svc-b)", regs2)
	}
	if dead2 < 1 {
		t.Fatalf("recovered dead letters = %d, want >= 1 (the ghost)", dead2)
	}
	if fe2 < 5 {
		t.Fatalf("recovered flight events = %d, want >= 5 (one per acked conversation)", fe2)
	}
	if fs2 < 5 {
		t.Fatalf("recovered flight spans = %d, want >= 5 (the dead process's span traffic)", fs2)
	}

	// The in-flight conversation must complete against the reborn node,
	// continuing the recovered count (>= 6; retries may double-handle).
	select {
	case r := <-inflight:
		if r.err != nil {
			t.Fatalf("in-flight conversation died with the node: %v", r.err)
		}
		if r.n < 6 {
			t.Fatalf("in-flight ack = %d, want >= 6 (recovered 5 + this inc)", r.n)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("in-flight conversation never completed after restart")
	}

	// And the recovered registry answers over the wire.
	reply, err := agent.CallRetry(client, "registry-agent", "list", chaosOntology, nil, 20*time.Second, policy)
	if err != nil {
		t.Fatalf("registry query after restart: %v", err)
	}
	var names []string
	if err := reply.Decode(&names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "svc-a" || names[1] != "svc-b" {
		t.Fatalf("recovered services = %v, want [svc-a svc-b]", names)
	}

	// Reap the second node before the leak gate runs (its stdout
	// scanner goroutine lives as long as the child does).
	node2.kill()

	// Finally, read the black box the way an operator would after the
	// outage: `pgridd -flight-dump` opens the flight WAL offline and
	// renders every recovered conversation. Both lives' traffic is in
	// there — at least the 5 pre-kill acks plus the in-flight inc that
	// completed against the reborn node.
	fr, err := durable.OpenFlight(filepath.Join(dir, "flight"))
	if err != nil {
		t.Fatalf("offline flight open: %v", err)
	}
	defer fr.Close()
	if got := len(fr.RecoveredEvents()); got < 6 {
		t.Fatalf("offline dump recovered %d wide events, want >= 6", got)
	}
	dump := fr.DumpText()
	if !strings.Contains(dump, "wide events") || !strings.Contains(dump, "span timelines") ||
		!strings.Contains(dump, "durable-node") {
		t.Fatalf("flight dump missing expected sections:\n%s", dump)
	}
}
