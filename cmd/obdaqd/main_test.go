//go:build unix

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
	"time"

	"npdbench/internal/npd"
)

// q2 on the seed-42, seed-scale-0.02 instance (371 rows) has one answer;
// bench/expected/mix_cold.json pins the same instance to the same count.
const (
	wantInstance = "371 rows"
	wantQ2Rows   = 1
)

// raceEnabled reports whether this test binary was built with -race, so
// the daemon under test can be built the same way.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// TestDaemonLifecycle drives the real binary through its whole life: it
// serves q2 over HTTP, survives a SIGHUP reload (invalidating the plan
// cache exactly once) and still answers, then drains on SIGTERM and exits
// 0.
func TestDaemonLifecycle(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "obdaqd")
	buildArgs := []string{"build", "-o", bin}
	if raceEnabled() {
		buildArgs = append(buildArgs, "-race")
	}
	if out, err := exec.Command("go", append(buildArgs, ".")...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-http", "127.0.0.1:0", "-seedscale", "0.02", "-timeout", "10s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { // no-ops once the daemon has exited and been waited for
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	// The daemon prints a handful of lines in its whole life, so the
	// buffer keeps the reader from ever blocking on an abandoned channel.
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	waitFor := func(substr string) string {
		t.Helper()
		timeout := time.After(60 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("daemon exited before printing %q; stderr:\n%s", substr, stderr.String())
				}
				if strings.Contains(line, substr) {
					return line
				}
			case <-timeout:
				t.Fatalf("timed out waiting for %q", substr)
			}
		}
	}

	waitFor(wantInstance)
	// "obdaqd: serving SPARQL on 127.0.0.1:PORT (maxinflight=…"
	fields := strings.Fields(waitFor("obdaqd: serving SPARQL on "))
	base := "http://" + fields[4]

	healthy := false
	for deadline := time.Now().Add(5 * time.Second); !healthy && time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		healthy = resp.StatusCode == http.StatusOK
	}
	if !healthy {
		t.Fatal("/healthz never answered 200")
	}

	answerQ2 := func(when string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(npd.QueryByID("q2").SPARQL))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/sparql-query")
		req.Header.Set("Accept", "application/sparql-results+json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("q2 %s: %v", when, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("q2 %s: status %d", when, resp.StatusCode)
		}
		var doc struct {
			Results struct {
				Bindings []json.RawMessage `json:"bindings"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("q2 %s: %v", when, err)
		}
		if got := len(doc.Results.Bindings); got != wantQ2Rows {
			t.Fatalf("q2 %s: %d rows, want %d", when, got, wantQ2Rows)
		}
	}
	answerQ2("after start")

	signal := func(sig syscall.Signal) {
		t.Helper()
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatalf("signal %v: %v", sig, err)
		}
	}
	signal(syscall.SIGHUP)
	waitFor("reload complete")
	// One reload re-derives the engine state once and drops the cached
	// plans once.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const wantInvalidations = "npdbench_compile_cache_invalidations_total 1\n"
	if !strings.Contains(string(metrics), wantInvalidations) {
		t.Fatalf("/metrics after one SIGHUP lacks %q:\n%s", wantInvalidations, metrics)
	}
	answerQ2("after reload")

	signal(syscall.SIGTERM)
	waitFor("shutdown complete")
	for range lines { // stdout must be read to EOF before Wait
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v; stderr:\n%s", err, stderr.String())
	}
}
