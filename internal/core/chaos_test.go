package core

import (
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/faultinject"
	"pervasivegrid/internal/obs"
)

// Chaos test for the acceptance scenario: a handheld's query conversation
// runs over a real TCP gateway/link with 10% injected envelope drop on the
// query agent's deputy, survives a forced gateway restart mid-conversation
// via retry + reconnect, and the platform's DeliveryStats expose the
// damage (retries, dead letters) instead of hiding it. All randomness is
// seeded, so the fault pattern is reproducible.

func chaosWaitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestChaosQuerySurvivesDropAndDisconnect(t *testing.T) {
	rt := fireRuntime(t)
	inj := faultinject.New(faultinject.Config{Seed: 7, DropProb: 0.10})
	rt.DeputyWrap = inj.WrapDeputy

	server := agent.NewPlatform("base-station")
	defer server.Close()
	if err := rt.RegisterQueryAgent(server); err != nil {
		t.Fatal(err)
	}
	gw, err := agent.ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := gw.Addr()

	client := agent.NewPlatform("handheld")
	defer client.Close()
	link := agent.DialReconnect(client, addr, agent.ReconnectOptions{
		MaxBuffer: 4,
		BaseDelay: 5 * time.Millisecond,
	})
	defer link.Close()
	chaosWaitFor(t, "initial connect", link.Connected)

	policy := agent.RetryPolicy{
		MaxAttempts:    10,
		BaseDelay:      10 * time.Millisecond,
		MaxDelay:       100 * time.Millisecond,
		Jitter:         0.2,
		AttemptTimeout: 250 * time.Millisecond,
		Seed:           99,
	}
	const src = "SELECT temp FROM sensors WHERE sensor = 44"

	// Phase 1 — lossy steady state: every query must complete despite the
	// 10% drop; run until the injector has provably eaten at least one
	// request (the index of the first drop is fixed by the seed).
	queries := 0
	for inj.Stats().Dropped == 0 {
		queries++
		if queries > 100 {
			t.Fatal("injector never dropped anything at 10%")
		}
		r, err := AskQuery(client, src, 10*time.Second, policy)
		if err != nil {
			t.Fatalf("query %d under loss: %v", queries, err)
		}
		if !r.OK {
			t.Fatalf("query %d failed: %s", queries, r.Error)
		}
	}
	t.Logf("first injected drop after %d queries", queries)

	// Phase 2 — forced disconnect mid-conversation: the gateway dies,
	// traffic buffers (and overflows, deterministically dead-lettering
	// the oldest), the gateway comes back on the same address, the link
	// replays, and the in-flight conversation completes.
	gw.Close()
	chaosWaitFor(t, "link to notice the disconnect", func() bool { return !link.Connected() })

	// A burst while down: 8 notifications into a 4-slot buffer must
	// dead-letter the overflow with reason link_down.
	if err := client.Register("notifier", agent.HandlerFunc(func(agent.Envelope, *agent.Context) {}),
		agent.Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		env, err := agent.NewEnvelope("notifier", QueryAgentID, "inform", QueryOntology, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Send(env); err != nil {
			t.Fatalf("send while down: %v", err)
		}
	}

	type outcome struct {
		r   QueryReply
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := AskQuery(client, src, 20*time.Second, policy)
		done <- outcome{r, err}
	}()
	// Let at least two attempt timeouts elapse while the link is down so
	// the conversation provably retries across the outage.
	time.Sleep(600 * time.Millisecond)

	gw2, err := agent.ListenAndServe(server, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()

	res := <-done
	if res.err != nil {
		t.Fatalf("conversation across the outage: %v", res.err)
	}
	if !res.r.OK {
		t.Fatalf("conversation across the outage failed: %s", res.r.Error)
	}

	// Phase 3 — the accounting must show what happened.
	if st := link.Stats(); st.Connects < 2 {
		t.Fatalf("link connects = %d, want a reconnection", st.Connects)
	}
	cst := client.DeliveryStats()
	if cst.Retries == 0 {
		t.Fatal("client DeliveryStats shows no retries after a lossy, partitioned conversation")
	}
	if cst.Reasons[agent.DropLinkDown] < 4 {
		t.Fatalf("link_down dead letters = %d, want >= 4 (8 sends into a 4-slot buffer)",
			cst.Reasons[agent.DropLinkDown])
	}
	if cst.DeadLettered == 0 || len(client.DeadLetters()) == 0 {
		t.Fatalf("dead-letter ring empty; stats = %+v", cst)
	}
	if dropped := inj.Stats().Dropped; dropped == 0 {
		t.Fatalf("injector stats lost their drops: %+v", inj.Stats())
	}
	t.Logf("client stats: %+v; injector: %+v; link: %+v",
		cst, inj.Stats(), link.Stats())
}

// TestChaosQueryAgentPanicsAndRestarts is the crash-side companion of the
// drop/disconnect chaos above: the base station's query agent itself
// panics on every 3rd envelope it handles. Supervision must recover each
// crash and restart the agent, the handheld's retry layer must re-send
// the conversations the panics ate, and every query must still complete
// — the process never notices beyond latency.
func TestChaosQueryAgentPanicsAndRestarts(t *testing.T) {
	rt := fireRuntime(t)
	inj := faultinject.New(faultinject.Config{Seed: 3, PanicEveryN: 3})
	rt.HandlerWrap = inj.WrapHandler

	// The base station's supervision backoff runs on a fake clock: each
	// restart sleep fires deterministically instead of stretching the
	// test by the real backoff schedule. The conversation itself rides
	// the real clock on the client side.
	fc := obs.NewFakeClock()
	defer fc.AutoAdvance()()
	server := agent.NewPlatform("base-station")
	server.Clock = fc
	defer server.Close()
	if err := rt.RegisterQueryAgent(server); err != nil {
		t.Fatal(err)
	}
	gw, err := agent.ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	client := agent.NewPlatform("handheld")
	defer client.Close()
	link := agent.DialReconnect(client, gw.Addr(), agent.ReconnectOptions{
		MaxBuffer: 4,
		BaseDelay: 5 * time.Millisecond,
	})
	defer link.Close()
	chaosWaitFor(t, "initial connect", link.Connected)

	policy := agent.RetryPolicy{
		MaxAttempts:    10,
		BaseDelay:      10 * time.Millisecond,
		MaxDelay:       100 * time.Millisecond,
		Jitter:         0.2,
		AttemptTimeout: 250 * time.Millisecond,
		Seed:           42,
	}
	const src = "SELECT temp FROM sensors WHERE sensor = 44"

	// Six conversations against an agent that dies on envelopes 3, 6, 9,
	// ... — with retried attempts landing on the restarted incarnation,
	// at least two crashes are guaranteed inside this run.
	for i := 0; i < 6; i++ {
		r, err := AskQuery(client, src, 10*time.Second, policy)
		if err != nil {
			t.Fatalf("query %d across agent crashes: %v", i+1, err)
		}
		if !r.OK {
			t.Fatalf("query %d failed: %s", i+1, r.Error)
		}
	}

	if got := inj.Stats().Panicked; got < 2 {
		t.Fatalf("injector panics = %d, want >= 2", got)
	}
	// The query agent is the only one the injector crashes.
	if got := server.SupervisionStats().Restarts; got < 2 {
		t.Fatalf("restarts = %d, want >= 2", got)
	}
	if !server.AgentAlive(QueryAgentID) {
		t.Fatal("query agent not alive after the crash loop")
	}
	st := server.SupervisionStats()
	if st.Panics < 2 || st.Restarts < 2 || st.GiveUps != 0 {
		t.Fatalf("supervision stats = %+v, want >= 2 panics/restarts and no give-ups", st)
	}
	// The handheld's accounting shows the re-sent conversations.
	if cst := client.DeliveryStats(); cst.Retries == 0 {
		t.Fatal("client shows no retries although the agent ate requests")
	}
	t.Logf("injector: %+v; supervision: %+v", inj.Stats(), st)
}
