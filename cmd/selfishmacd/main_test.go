package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonSmoke boots the daemon in-process on an ephemeral port and
// walks the whole lifecycle: readiness, a tiny replicate job to Done with
// CI progress, queue overflow to 429, cancellation of a long job, and a
// SIGTERM graceful drain. This is the `make smoke-daemon` target.
func TestDaemonSmoke(t *testing.T) {
	sigs := make(chan os.Signal, 2)
	ready := make(chan string, 1)
	var stdout, stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(
			[]string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue-cap", "1", "-drain-timeout", "10s"},
			sigs, &stdout, &stderr,
			func(addr string) { ready <- addr },
		)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never became ready")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(body string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header
	}
	jobID := func(body string) string {
		t.Helper()
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil || v.ID == "" {
			t.Fatalf("no job id in %s", body)
		}
		return v.ID
	}
	waitState := func(id string, want string, timeout time.Duration) string {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			_, body := get("/api/v1/jobs/" + id)
			var v struct {
				State string `json:"state"`
			}
			_ = json.Unmarshal([]byte(body), &v)
			if v.State == want {
				return body
			}
			if v.State == "failed" || time.Now().After(deadline) {
				t.Fatalf("job %s state %q, want %q (%s)", id, v.State, want, body)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Liveness and readiness.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz = %d %s", code, body)
	}

	// A tiny replicate job runs to Done with CI progress and a result.
	code, body, _ := post(`{"kind":"replicate","params":{"nodes":10,"width":300,"height":300,` +
		`"range":120,"duration_us":20000,"min_reps":3,"max_reps":3,"batch_size":3,"rel_ci":-1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %s", code, body)
	}
	tiny := jobID(body)
	waitState(tiny, "done", 60*time.Second)
	if code, body := get("/api/v1/jobs/" + tiny + "/result"); code != http.StatusOK ||
		!strings.Contains(body, "global_payoff_rate") {
		t.Fatalf("result = %d %s", code, body)
	}
	if code, body := get("/api/v1/jobs/" + tiny + "/progress"); code != http.StatusOK ||
		!strings.Contains(body, "ci95") {
		t.Fatalf("progress = %d %s", code, body)
	}

	// Overflow the single-slot queue: a practically-unbounded job holds
	// the worker (it only ends via cancellation), a second fills the
	// queue, and the third submit must bounce with 429. Waiting for the
	// first to reach "running" makes the sequence deterministic — the
	// queue slot is provably free when the second is submitted.
	long := `{"kind":"replicate","params":{"nodes":12,"width":300,"height":300,"range":120,` +
		`"duration_us":2000000,"min_reps":1000000,"max_reps":1000000,"batch_size":2,"rel_ci":-1}}`
	code, body, _ = post(long)
	if code != http.StatusAccepted {
		t.Fatalf("long submit = %d %s", code, body)
	}
	running := jobID(body)
	waitState(running, "running", 30*time.Second)
	code, body, _ = post(long)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit = %d %s", code, body)
	}
	queued := jobID(body)
	code, body, hdr := post(long)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d %s, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cancel both long jobs; DELETE is 202 and they reach cancelled.
	for _, id := range []string{queued, running} {
		req, _ := http.NewRequest(http.MethodDelete, base+"/api/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusConflict {
			t.Fatalf("cancel %s = %d", id, resp.StatusCode)
		}
	}
	waitState(queued, "cancelled", 30*time.Second)
	waitState(running, "cancelled", 30*time.Second)

	// First SIGTERM: graceful drain; the daemon exits cleanly on its own.
	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(stdout.String(), "shut down cleanly") {
		t.Errorf("stdout missing clean-shutdown line:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("stderr missing drain notice:\n%s", stderr.String())
	}
}

// TestDaemonDetectSmoke boots the daemon and drives a "detect" job over
// HTTP: submit a 10-node population with one blatant cheater, wait for
// Done, and require at least one streamed event:"flag" JSON progress
// line plus a summary result naming the cheater.
func TestDaemonDetectSmoke(t *testing.T) {
	sigs := make(chan os.Signal, 2)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(
			[]string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue-cap", "4", "-drain-timeout", "10s"},
			sigs, io.Discard, io.Discard,
			func(addr string) { ready <- addr },
		)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		sigs <- syscall.SIGTERM
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Error("daemon did not drain after SIGTERM")
		}
	}()

	body := `{"kind":"detect","params":{"nodes":10,"expected_cw":166,"cheaters":1,` +
		`"cheater_cw":20,"beta":0.6,"window_slots":1500,"duration_us":10000000,"seed":7}}`
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	sub, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, sub)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sub, &v); err != nil || v.ID == "" {
		t.Fatalf("no job id in %s", sub)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, body := get("/api/v1/jobs/" + v.ID)
		var st struct {
			State string `json:"state"`
		}
		_ = json.Unmarshal([]byte(body), &st)
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" || time.Now().After(deadline) {
			t.Fatalf("detect job state %q (%s)", st.State, body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The progress stream holds newline-delimited JSON events; at least
	// one must be a flag event for the cheater node.
	code, prog := get("/api/v1/jobs/" + v.ID + "/progress")
	if code != http.StatusOK {
		t.Fatalf("progress = %d %s", code, prog)
	}
	var flagged bool
	for _, line := range strings.Split(strings.TrimSpace(prog), "\n") {
		var fl struct {
			Event string  `json:"event"`
			Node  int     `json:"node"`
			EstCW float64 `json:"est_cw"`
		}
		if err := json.Unmarshal([]byte(line), &fl); err != nil {
			continue
		}
		if fl.Event == "flag" {
			flagged = true
			if fl.Node != 0 {
				t.Errorf("flag line names node %d, want the cheater 0: %s", fl.Node, line)
			}
			if !(fl.EstCW > 0 && fl.EstCW < 0.6*166) {
				t.Errorf("flag est_cw %g not under the beta threshold: %s", fl.EstCW, line)
			}
		}
	}
	if !flagged {
		t.Fatalf("no event:\"flag\" line in progress stream:\n%s", prog)
	}
	code, body = get("/api/v1/jobs/" + v.ID + "/result")
	if code != http.StatusOK {
		t.Fatalf("result = %d %s", code, body)
	}
	var res struct {
		Result struct {
			TruePositives int   `json:"true_positives"`
			LatencySlots  int64 `json:"latency_slots"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("result body %s: %v", body, err)
	}
	if res.Result.TruePositives != 1 || res.Result.LatencySlots < 0 {
		t.Fatalf("result summary = %+v, want the cheater detected with a latency", res.Result)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	sigs := make(chan os.Signal)
	if err := run([]string{"-queue-cap", "abc"}, sigs, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("malformed -queue-cap accepted")
	}
}

func TestRunRejectsPositionalArgs(t *testing.T) {
	sigs := make(chan os.Signal)
	err := run([]string{"stray"}, sigs, io.Discard, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("err = %v, want unexpected-arguments", err)
	}
}

func TestRunInvertedTimeoutsFailFast(t *testing.T) {
	sigs := make(chan os.Signal)
	err := run([]string{"-job-timeout", "2h", "-max-job-timeout", "1m"}, sigs, io.Discard, io.Discard, nil)
	if err == nil {
		t.Fatal("inverted timeouts accepted")
	}
	if !strings.Contains(err.Error(), "exceeds the maximum") {
		t.Errorf("err = %v", err)
	}
}

func init() {
	// Guard against a stray second-signal path calling os.Exit mid-test.
	osExit = func(code int) { panic(fmt.Sprintf("osExit(%d) called in test", code)) }
}

// TestHTTPServerTimeouts pins the listener's connection timeouts: slow
// or idle clients are cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want > 0", name, d)
		}
	}
}
