package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemon is one pgridd process booted by startDaemon.
type daemon struct {
	cmd        *exec.Cmd
	lines      <-chan string
	out        *strings.Builder // stdout so far
	stderr     *bytes.Buffer
	metricsURL string
	listenAddr string
}

// startDaemon builds pgridd, boots it with args, and waits until both
// bound addresses are on stdout. The process is killed at cleanup.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := t.TempDir() + "/pgridd"
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	d := &daemon{cmd: exec.Command(bin, args...), out: &strings.Builder{}, stderr: &bytes.Buffer{}}
	d.cmd.Stderr = d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.cmd.Process.Kill() }) // a no-op once the daemon has exited
	lines := make(chan string)
	d.lines = lines
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	boot := time.After(30 * time.Second)
	for d.metricsURL == "" || d.listenAddr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("pgridd exited during boot:\n%s%s", d.out.String(), d.stderr.String())
			}
			d.out.WriteString(line + "\n")
			if f := strings.Fields(line); len(f) >= 4 && f[1] == "metrics" {
				d.metricsURL = f[3]
			} else if len(f) >= 4 && f[1] == "listening" {
				d.listenAddr = f[3]
			}
		case <-boot:
			t.Fatalf("pgridd did not report its addresses within 30s:\n%s%s", d.out.String(), d.stderr.String())
		}
	}
	return d
}

// get fetches path on the daemon's metrics listener.
func (d *daemon) get(t *testing.T, path string) (*http.Response, string) {
	t.Helper()
	url := strings.TrimSuffix(d.metricsURL, "/metrics") + path
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// TestDaemonBootsScrapesAndDrains builds pgridd, boots it on ephemeral
// ports with a data directory, scrapes /metrics, and stops it with
// SIGTERM: the drain summary must count no dead letters and the process
// must exit 0.
func TestDaemonBootsScrapesAndDrains(t *testing.T) {
	d := startDaemon(t, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-data-dir", t.TempDir())
	conn, err := net.Dial("tcp", d.listenAddr)
	if err != nil {
		t.Fatalf("envelope listener %s: %v", d.listenAddr, err)
	}
	conn.Close()
	resp, body := d.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("scrape %s: %s %q\n%s", d.metricsURL, resp.Status, resp.Header.Get("Content-Type"), body)
	}

	// Shutdown: SIGTERM drains and prints the delivery summary.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range d.lines {
		d.out.WriteString(line + "\n")
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("pgridd exit: %v\n%s%s", err, d.out.String(), d.stderr.String())
	}
	if !strings.Contains(d.out.String(), "dead-letters=0") {
		t.Fatalf("drain summary does not report dead-letters=0:\n%s", d.out.String())
	}
}

// TestMonitorRecordsItsOwnSpansOnce boots a -monitor daemon, which
// reports on itself, and lets several reports go by: every stitched
// trace on /traces holds at most the two spans one report conversation
// records (its send and its deliver). A monitor host whose platform
// records into the stitched ring and also reports ships the ring back
// into itself, and each report's spans gain a copy per later report.
func TestMonitorRecordsItsOwnSpansOnce(t *testing.T) {
	const interval = 50 * time.Millisecond
	d := startDaemon(t, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-monitor", "-telemetry-interval", interval.String())
	go func() {
		for range d.lines { // keep the daemon's stdout drained
		}
	}()

	var body string
	traces := 0
	deadline := time.Now().Add(10 * time.Second)
	for traces < 6 && time.Now().Before(deadline) {
		time.Sleep(interval)
		_, body = d.get(t, "/traces")
		traces = strings.Count(body, "\n")
	}
	if traces < 6 {
		t.Fatalf("only %d stitched traces after 10s:\n%s", traces, body)
	}
	time.Sleep(4 * interval) // later reports would re-ship the early ones
	_, body = d.get(t, "/traces")
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		// "<hex id> (<n> spans)"
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("unparsable /traces line %q", line)
		}
		n, err := strconv.Atoi(strings.TrimPrefix(f[1], "("))
		if err != nil {
			t.Fatalf("unparsable /traces line %q", line)
		}
		if n > 2 {
			t.Fatalf("trace %s holds %d spans, more than one report conversation records:\n%s", f[0], n, body)
		}
	}
}
