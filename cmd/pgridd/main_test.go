package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonBootsScrapesAndDrains builds pgridd, boots it on ephemeral
// ports with a data directory, scrapes /metrics, and stops it with
// SIGTERM: the drain summary must count no dead letters and the process
// must exit 0.
func TestDaemonBootsScrapesAndDrains(t *testing.T) {
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

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-data-dir", t.TempDir())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // a no-op once the daemon has exited
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	// Boot: both bound addresses come back on stdout.
	var out strings.Builder
	var metricsURL, listenAddr string
	boot := time.After(30 * time.Second)
	for metricsURL == "" || listenAddr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("pgridd exited during boot:\n%s%s", out.String(), stderr.String())
			}
			out.WriteString(line + "\n")
			if f := strings.Fields(line); len(f) >= 4 && f[1] == "metrics" {
				metricsURL = f[3]
			} else if len(f) >= 4 && f[1] == "listening" {
				listenAddr = f[3]
			}
		case <-boot:
			t.Fatalf("pgridd did not report its addresses within 30s:\n%s%s", out.String(), stderr.String())
		}
	}
	conn, err := net.Dial("tcp", listenAddr)
	if err != nil {
		t.Fatalf("envelope listener %s: %v", listenAddr, err)
	}
	conn.Close()
	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatalf("scrape %s: %v", metricsURL, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("scrape %s: %s %q\n%s", metricsURL, resp.Status, resp.Header.Get("Content-Type"), body)
	}

	// Shutdown: SIGTERM drains and prints the delivery summary.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range lines {
		out.WriteString(line + "\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pgridd exit: %v\n%s%s", err, out.String(), stderr.String())
	}
	if !strings.Contains(out.String(), "dead-letters=0") {
		t.Fatalf("drain summary does not report dead-letters=0:\n%s", out.String())
	}
}
