package leak

import (
	"strings"
	"testing"
	"time"
)

// MaxWait bounds how long the checker waits for stragglers to drain
// before reporting a leak (default 4s).
func MaxWait(d time.Duration) Option {
	return func(c *config) { c.maxWait = d }
}

// IgnoreFunc ignores goroutines whose stack mentions the given function
// name fragment.
func IgnoreFunc(fragment string) Option {
	return func(c *config) { c.ignores = append(c.ignores, fragment) }
}

// fakeTB records failures instead of failing the real test.
type fakeTB struct {
	errors   []string
	last     []any // args of the most recent Errorf, for report inspection
	cleanups []func()
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errors = append(f.errors, format)
	f.last = args
}
func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) runCleanups() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

func TestNoLeakPasses(t *testing.T) {
	tb := &fakeTB{}
	verify := Check(tb)
	verify()
	if len(tb.errors) != 0 {
		t.Fatalf("clean test reported a leak: %v", tb.errors)
	}
}

func TestLeakIsReported(t *testing.T) {
	tb := &fakeTB{}
	verify := Check(tb, MaxWait(50*time.Millisecond))
	block := make(chan struct{})
	started := make(chan struct{})
	go func() { // deliberate leak: blocked until we release it
		close(started)
		<-block
	}()
	<-started
	verify()
	close(block)
	if len(tb.errors) == 0 {
		t.Fatal("leaked goroutine not reported")
	}
	report, _ := tb.last[0].(string)
	if !strings.Contains(report, "TestLeakIsReported") {
		t.Fatalf("report does not name the leaking frame:\n%s", report)
	}
}

func TestStragglerDrains(t *testing.T) {
	// A goroutine that exits shortly after verification starts must not
	// be reported: the backoff loop re-snapshots until it drains.
	tb := &fakeTB{}
	verify := Check(tb, MaxWait(2*time.Second))
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-release
	}()
	<-started
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	verify()
	if len(tb.errors) != 0 {
		t.Fatalf("straggler reported as leak: %v", tb.errors)
	}
}

func TestIgnoreFunc(t *testing.T) {
	tb := &fakeTB{}
	verify := Check(tb, MaxWait(50*time.Millisecond), IgnoreFunc("leak.pinnedHelper"))
	block := make(chan struct{})
	started := make(chan struct{})
	go pinnedHelper(started, block)
	<-started
	verify()
	close(block)
	if len(tb.errors) != 0 {
		t.Fatalf("ignored goroutine still reported: %v", tb.errors)
	}
}

// pinnedHelper blocks with a recognisable frame name for TestIgnoreFunc.
func pinnedHelper(started, block chan struct{}) {
	close(started)
	<-block
}

func TestVerifyRunsOnce(t *testing.T) {
	tb := &fakeTB{}
	verify := Check(tb, MaxWait(50*time.Millisecond))
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-block
	}()
	<-started
	verify()
	tb.runCleanups() // cleanup must not double-report
	close(block)
	if len(tb.errors) != 1 {
		t.Fatalf("want exactly 1 report, got %d", len(tb.errors))
	}
}

func TestSnapshotParsesSelf(t *testing.T) {
	gs := snapshot()
	if len(gs) == 0 {
		t.Fatal("snapshot saw no goroutines")
	}
	for _, g := range gs {
		if g.id == "" || !strings.HasPrefix(g.stack, "goroutine ") {
			t.Fatalf("malformed parse: %+v", g)
		}
	}
}
