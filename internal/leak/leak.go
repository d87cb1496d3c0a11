// Package leak is a from-scratch goroutine leak checker for the test
// suites (in the spirit of goleak, with no dependency). A platform whose
// agents, links, probers, and monitors all own background goroutines
// must prove that Close/Stop actually reaps them; leak.Check(t) snapshots
// the goroutines alive when it is called and fails the test from a
// t.Cleanup if new ones are still running once the test body finishes.
//
//	func TestSomething(t *testing.T) {
//		defer leak.Check(t)()
//		...
//	}
//
// or, cleanup-style for a whole test including its subtests:
//
//	leak.Check(t)
//
// The checker retries with backoff before declaring a leak, because a
// goroutine that has been signalled to stop may not have been scheduled
// off its final select yet — a real leak stays; a straggler drains.
package leak

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pervasivegrid/internal/obs"
)

// TB is the subset of testing.TB the checker needs; taking the interface
// keeps the package testable with a fake.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// Option adjusts a Check.
type Option func(*config)

type config struct {
	maxWait time.Duration
	ignores []string
}

// defaultIgnores hides runtime-owned and test-harness goroutines that are
// alive in any `go test` process and are not the suite's to reap.
var defaultIgnores = []string{
	"testing.RunTests",
	"testing.(*T).Run",
	"testing.runTests",
	"testing.tRunner",
	"runtime.goexit",
	"runtime.gc",
	"runtime.MHeap_Scavenger",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.timerproc",
	"os/signal.signal_recv",
	"os/signal.loop",
	"net/http.(*persistConn)",
	"internal/leak.snapshot", // the checker's own stack-capture frame
}

// goroutine is one parsed stack-dump entry.
type goroutine struct {
	id    string
	stack string // full text, header included
}

// snapshot parses runtime.Stack(all=true) into per-goroutine entries.
func snapshot() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []goroutine
	for _, chunk := range strings.Split(string(buf), "\n\n") {
		chunk = strings.TrimSpace(chunk)
		if !strings.HasPrefix(chunk, "goroutine ") {
			continue
		}
		header := chunk[len("goroutine "):]
		id, _, ok := strings.Cut(header, " ")
		if !ok {
			continue
		}
		out = append(out, goroutine{id: id, stack: chunk})
	}
	return out
}

// interesting filters a snapshot down to goroutines the suite owns.
func interesting(gs []goroutine, ignores []string) []goroutine {
	var out []goroutine
outer:
	for _, g := range gs {
		for _, frag := range ignores {
			if strings.Contains(g.stack, frag) {
				continue outer
			}
		}
		out = append(out, g)
	}
	return out
}

// Check snapshots the current goroutines and registers a cleanup that
// fails tb if goroutines created after the snapshot are still running
// when the test finishes. It also returns the verification function
// directly, so `defer leak.Check(t)()` runs it before the test's other
// deferred teardown when ordering matters.
//
//lint:ignore deadcode test seam used by the agent, durable, load and telemetry tests
func Check(tb TB, opts ...Option) func() {
	tb.Helper()
	cfg := config{maxWait: 4 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	ignores := append(append([]string{}, defaultIgnores...), cfg.ignores...)

	baseline := map[string]bool{}
	for _, g := range snapshot() {
		baseline[g.id] = true
	}

	done := false
	verify := func() {
		if done {
			return
		}
		done = true
		tb.Helper()
		leaked := wait(baseline, ignores, cfg)
		if len(leaked) == 0 {
			return
		}
		sort.Slice(leaked, func(i, j int) bool { return leaked[i].id < leaked[j].id })
		var b strings.Builder
		fmt.Fprintf(&b, "leak: %d goroutine(s) outlived the test:", len(leaked))
		for _, g := range leaked {
			fmt.Fprintf(&b, "\n\n%s", g.stack)
		}
		tb.Errorf("%s", b.String())
	}
	tb.Cleanup(verify)
	return verify
}

// testRunner is the subset of *testing.M VerifyTestMain needs.
type testRunner interface{ Run() int }

// VerifyTestMain gates a whole package's test binary on goroutine
// hygiene:
//
//	func TestMain(m *testing.M) { leak.VerifyTestMain(m) }
//
// It runs the tests, and if they passed but goroutines started during
// the run are still alive afterwards, prints their stacks and exits
// non-zero. Failing tests keep their own exit code — a leak report on
// top of a red suite would only bury the real failure.
//
//lint:ignore deadcode test seam used by the agent, durable and telemetry TestMain
func VerifyTestMain(m testRunner, opts ...Option) {
	cfg := config{maxWait: 4 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	ignores := append(append([]string{}, defaultIgnores...), cfg.ignores...)
	baseline := map[string]bool{}
	for _, g := range snapshot() {
		baseline[g.id] = true
	}
	code := m.Run()
	if code == 0 {
		if leaked := wait(baseline, ignores, cfg); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leak: %d goroutine(s) outlived the test run:\n", len(leaked))
			for _, g := range leaked {
				fmt.Fprintf(os.Stderr, "\n%s\n", g.stack)
			}
			code = 1
		}
	}
	os.Exit(code)
}

// wait polls for new goroutines to drain, with exponential backoff up to
// cfg.maxWait, and returns whatever is still alive at the deadline.
func wait(baseline map[string]bool, ignores []string, cfg config) []goroutine {
	delay := time.Millisecond
	waited := time.Duration(0)
	for {
		var leaked []goroutine
		for _, g := range interesting(snapshot(), ignores) {
			if !baseline[g.id] {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || waited >= cfg.maxWait {
			return leaked
		}
		if delay > cfg.maxWait-waited {
			delay = cfg.maxWait - waited
		}
		obs.Real.Sleep(delay)
		waited += delay
		delay *= 2
	}
}
