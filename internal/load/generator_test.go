package load

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{Rate: 0, Duration: time.Second}, func(int) error { return nil }); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(Options{Rate: 10, Duration: 0}, func(int) error { return nil }); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestRunCountsOfferedErrorsAndTimeline(t *testing.T) {
	res, err := Run(Options{Rate: 100, Duration: 500 * time.Millisecond, Workers: 8},
		func(i int) error {
			if i%10 == 3 {
				return errors.New("boom")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 50 {
		t.Fatalf("offered = %d, want 50", res.Offered)
	}
	if res.Completed+res.Errors != res.Offered {
		t.Fatalf("completed %d + errors %d != offered %d", res.Completed, res.Errors, res.Offered)
	}
	if res.Errors != 5 {
		t.Fatalf("errors = %d, want 5", res.Errors)
	}
	if got := res.ErrorRate(); got != 0.1 {
		t.Fatalf("error rate = %g, want 0.1", got)
	}
	var offered, ok, bad int
	for _, s := range res.Timeline {
		offered += s.Offered
		ok += s.OK
		bad += s.Errors
	}
	if offered != 50 || ok != 45 || bad != 5 {
		t.Fatalf("timeline sums offered=%d ok=%d errors=%d, want 50/45/5", offered, ok, bad)
	}
	// Errors are still excluded from the latency histograms.
	if res.Hist.Count() != 45 {
		t.Fatalf("hist count = %d, want 45 (errors excluded)", res.Hist.Count())
	}
}

func TestRunWarmupExcludedFromHistogram(t *testing.T) {
	res, err := Run(Options{Rate: 100, Duration: 500 * time.Millisecond, Warmup: 250 * time.Millisecond, Workers: 8},
		func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 50 {
		t.Fatalf("completed = %d, want 50 (warmup requests still run)", res.Completed)
	}
	// Requests scheduled in [0,250ms) — half the schedule — are unmeasured.
	if res.Hist.Count() != 25 {
		t.Fatalf("hist count = %d, want 25 (warmup half excluded)", res.Hist.Count())
	}
}

// TestCoordinatedOmissionCorrection is the property test for the whole
// point of this package: when the system under test stalls, a naive
// send-time measurement must under-report the tail, and the corrected
// scheduled-time measurement must not.
//
// The service here is an RWMutex read; a writer grabs the lock partway
// through the run and holds it ~400ms. Only Workers(=4) requests are
// physically blocked inside the service (those are the only ones the
// naive histogram sees stall), but every request *scheduled* during the
// outage queues behind them — the corrected histogram charges the
// queueing delay to all of them, exactly as a real user population would
// experience it.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	var lock sync.RWMutex
	const (
		rate  = 200.0
		dur   = 2 * time.Second
		stall = 400 * time.Millisecond
	)
	stallDone := make(chan struct{})
	go func() {
		time.Sleep(500 * time.Millisecond)
		lock.Lock()
		time.Sleep(stall)
		lock.Unlock()
		close(stallDone)
	}()
	res, err := Run(Options{Rate: rate, Duration: dur, Workers: 4}, func(int) error {
		lock.RLock()
		lock.RUnlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-stallDone
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %d", res.Errors)
	}

	corrected := res.Hist.Quantile(0.99)
	naive := res.NaiveHist.Quantile(0.99)
	t.Logf("p99 corrected=%gs naive=%gs (max corrected=%gs naive=%gs)",
		corrected, naive, res.Hist.Max(), res.NaiveHist.Max())

	// ~80 of 400 requests are scheduled inside the 400ms outage, so the
	// corrected p99 must land deep in the stall (threshold generous for a
	// loaded single-core machine).
	if corrected < 0.100 {
		t.Fatalf("corrected p99 = %gs, want >= 100ms: stall not charged to queued requests", corrected)
	}
	// Only 4 of 400 requests stall from the naive view — below the p99
	// rank — so naive p99 stays small. This is the under-reporting.
	if naive*4 > corrected {
		t.Fatalf("naive p99 %gs not meaningfully below corrected %gs: coordinated omission not demonstrated",
			naive, corrected)
	}
}

// TestRampFindsCeiling bounds a service at 4 concurrent requests x 10ms
// each (400/s capacity) and checks the geometric search brackets it.
func TestRampFindsCeiling(t *testing.T) {
	sem := make(chan struct{}, 4)
	do := func(int) error {
		sem <- struct{}{}
		time.Sleep(10 * time.Millisecond)
		<-sem
		return nil
	}
	ramp, err := Ramp(RampOptions{
		Start:        50,
		Factor:       4,
		MaxRate:      800,
		StepDuration: 400 * time.Millisecond,
		StepWarmup:   50 * time.Millisecond,
		Workers:      16,
	}, do)
	if err != nil {
		t.Fatal(err)
	}
	if !ramp.Saturated {
		t.Fatalf("ramp never saturated: %+v", ramp.Steps)
	}
	if ramp.Ceiling != 200 {
		t.Fatalf("ceiling = %g, want 200 (last sustained step)", ramp.Ceiling)
	}
	last := ramp.Steps[len(ramp.Steps)-1]
	if last.Sustained || last.FailReason == "" {
		t.Fatalf("final step should have failed with a reason: %+v", last)
	}
	if last.Rate != 800 {
		t.Fatalf("final step rate = %g, want 800", last.Rate)
	}
}

// TestReportRoundTrip writes a traced run's pgridload/v1 report and reads
// it back: the histogram's highNs bounds ascend, its counts add up to the
// measured requests, and exemplars are 16-digit hex TraceIDs.
func TestReportRoundTrip(t *testing.T) {
	res, err := RunTraced(Options{Rate: 200, Duration: 250 * time.Millisecond, Workers: 8},
		func(i int) (uint64, error) { return uint64(i + 1), nil })
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport("unit", "inproc", 200, res)
	path := t.TempDir() + "/report.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.Latency != rep.Latency || back.Offered != rep.Offered {
		t.Fatalf("round trip mutated report: %+v vs %+v", back, rep)
	}
	var sum int64
	for i, b := range back.Histogram {
		if i > 0 && b.High <= back.Histogram[i-1].High {
			t.Fatalf("bucket %d highNs %d not above %d", i, b.High, back.Histogram[i-1].High)
		}
		if b.Trace != "" && !hex16.MatchString(b.Trace) {
			t.Fatalf("bucket %d exemplar %q is not 16-digit hex", i, b.Trace)
		}
		sum += b.Count
	}
	if sum != int64(res.Completed) || sum != int64(res.Hist.Count()) {
		t.Fatalf("bucket counts sum to %d, measured %d", sum, res.Completed)
	}
	if last := back.Histogram[len(back.Histogram)-1].High; float64(last) < back.Latency.Max*1e6-1 {
		t.Fatalf("top bucket %d ns below the max %g ms", last, back.Latency.Max)
	}
	for _, k := range []string{"p99", "p999", "max"} {
		if !hex16.MatchString(back.Exemplars[k]) {
			t.Fatalf("%s exemplar %q is not 16-digit hex", k, back.Exemplars[k])
		}
	}
	// The wire names are the schema: pgridload/v1 readers key on them.
	for _, name := range []string{`"schema"`, `"latency"`, `"p99Ms"`, `"naiveP99Ms"`, `"histogram"`, `"highNs"`, `"count"`, `"trace"`, `"exemplars"`} {
		if !strings.Contains(string(data), name) {
			t.Fatalf("report JSON lacks %s", name)
		}
	}
}

var hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestFlakyProxyForwardsAndDrops(t *testing.T) {
	// Echo server as the upstream.
	up, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	go func() {
		for {
			c, err := up.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }() //nolint:errcheck
		}
	}()

	p, err := NewFlakyProxy(up.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping\n" {
		t.Fatalf("echo through proxy: %q err=%v", buf, err)
	}

	if n := p.DropAll(); n == 0 {
		t.Fatal("DropAll severed nothing")
	}
	c.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded after DropAll")
	}

	// The proxy accepts fresh connections after an outage.
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("back\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c2, buf); err != nil || string(buf) != "back\n" {
		t.Fatalf("echo after recovery: %q err=%v", buf, err)
	}
	if p.Drops() == 0 {
		t.Fatal("drop counter not advanced")
	}
}

// TestRunTracedExemplarsInReport drives RunTraced against a target where
// exactly one request is dramatically slow, and checks the report names
// that request's TraceID as the max exemplar — the "p999 is a concrete
// trace to dump" pipeline, end to end.
func TestRunTracedExemplarsInReport(t *testing.T) {
	const slowIdx = 17
	res, err := RunTraced(Options{Rate: 100, Duration: 500 * time.Millisecond, Workers: 8},
		func(i int) (uint64, error) {
			if i == slowIdx {
				time.Sleep(80 * time.Millisecond)
			}
			return uint64(i + 1), nil // trace 0 means untraced; offset past it
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Offered {
		t.Fatalf("completed %d != offered %d", res.Completed, res.Offered)
	}
	if got := res.Hist.MaxExemplar(); got != slowIdx+1 {
		t.Fatalf("max exemplar = %#x, want trace %#x", got, slowIdx+1)
	}
	rep := NewReport("unit", "loopback", 100, res)
	if rep.Exemplars["max"] != fmt.Sprintf("%016x", slowIdx+1) {
		t.Fatalf("report max exemplar = %q", rep.Exemplars["max"])
	}
	if rep.Exemplars["p999"] == "" {
		t.Fatal("report missing p999 exemplar")
	}
}
