package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"parconn/internal/obs"
	"parconn/internal/obs/metrics"
)

// syncBuffer lets the test read run's stdout while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond until it returns true or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServeLifecycle boots the server on a random port, waits for
// readiness, exercises the query and debug endpoints, then cancels the
// context (the SIGINT/SIGTERM path) and checks the drain: exit code 0 and
// the port closed afterwards.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	errb := &syncBuffer{}
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-gen", "random", "-n", "2000", "-top", "3"}, out, errb)
	}()

	var base string
	waitFor(t, 10*time.Second, "listen announcement", func() bool {
		s := out.String()
		i := strings.Index(s, "listening on http://")
		if i < 0 {
			return false
		}
		rest := s[i+len("listening on "):]
		base = strings.TrimSpace(strings.SplitN(rest, " ", 2)[0])
		return true
	})
	client := &http.Client{Timeout: 2 * time.Second}

	waitFor(t, 20*time.Second, "readiness", func() bool {
		resp, err := client.Get(base + "/v1/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusOK
	})

	// Point query.
	resp, err := client.Get(base + "/v1/component?v=0")
	if err != nil {
		t.Fatal(err)
	}
	var comp struct {
		V         int32 `json:"v"`
		Component int32 `json:"component"`
		Size      int   `json:"size"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || comp.Size <= 0 {
		t.Fatalf("component: status %d, %+v", resp.StatusCode, comp)
	}

	// Batch query.
	resp, err = client.Post(base+"/v1/batch", "application/json", strings.NewReader("[[0,1],[1,0]]"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}

	// Stats reflects the generated graph.
	resp, err = client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Vertices  int    `json:"vertices"`
		Algorithm string `json:"algorithm"`
		Source    string `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Vertices != 2000 || !strings.Contains(st.Source, "random") {
		t.Fatalf("stats: %+v", st)
	}

	// The debug mux is mounted alongside /v1.
	resp, err = client.Get(base + "/debug/parconn")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug parconn: status %d", resp.StatusCode)
	}

	// Graceful shutdown: cancel the context, run must drain and return 0,
	// and the port must stop answering.
	cancel()
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("run exit=%d stderr=%s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after context cancel")
	}
	if resp, err := client.Get(base + "/v1/healthz"); err == nil {
		resp.Body.Close()
		t.Fatalf("server still answering after shutdown: %s", base)
	}
	if !strings.Contains(out.String(), "draining in-flight requests") {
		t.Fatalf("no drain announcement:\n%s", out.String())
	}
}

// TestInsertLifecycle boots the server with the incremental layer (the
// default), races concurrent /v1/insert writers against /v1/same readers
// through the real HTTP stack, and checks the final state: the inserted
// spanning chain collapses the line graph's pieces into one component.
func TestInsertLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	errb := &syncBuffer{}
	codeCh := make(chan int, 1)
	const n = 400
	go func() {
		codeCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-gen", "random", "-n", fmt.Sprint(n), "-degree", "1"}, out, errb)
	}()

	var base string
	waitFor(t, 10*time.Second, "listen announcement", func() bool {
		s := out.String()
		i := strings.Index(s, "listening on http://")
		if i < 0 {
			return false
		}
		base = strings.TrimSpace(strings.SplitN(s[i+len("listening on "):], " ", 2)[0])
		return true
	})
	client := &http.Client{Timeout: 5 * time.Second}
	waitFor(t, 20*time.Second, "readiness", func() bool {
		resp, err := client.Get(base + "/v1/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	if !strings.Contains(out.String(), "incremental=true") {
		t.Fatalf("ready line does not announce the incremental layer:\n%s", out.String())
	}

	// Writers insert disjoint stripes of one spanning chain over [0, n);
	// readers poll /v1/same concurrently. Between them the graph becomes
	// connected, so afterwards every pair answers same=true.
	const writers = 4
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := w * (n / writers); v < (w+1)*(n/writers)+1 && v < n-1; v++ {
				body := fmt.Sprintf("[[%d,%d]]", v, v+1)
				resp, err := client.Post(base+"/v1/insert", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d at %d: status %d", w, v, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := client.Get(fmt.Sprintf("%s/v1/same?u=%d&v=%d", base, i%n, (i*7)%n))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d op %d: status %d", r, i, resp.StatusCode)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The chain connected everything: cross-graph pairs are now same, and
	// stats reports one component at a positive epoch.
	var same struct {
		Same bool `json:"same"`
	}
	resp, err := client.Get(fmt.Sprintf("%s/v1/same?u=0&v=%d", base, n-1))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&same); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !same.Same {
		t.Fatal("spanning chain inserted but endpoints still in different components")
	}
	var st struct {
		Components int    `json:"components"`
		Epoch      uint64 `json:"epoch"`
	}
	resp, err = client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Components != 1 || st.Epoch == 0 {
		t.Fatalf("stats after inserts: components=%d epoch=%d", st.Components, st.Epoch)
	}

	cancel()
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("run exit=%d stderr=%s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after context cancel")
	}
}

// TestInsertDisabled pins -incremental=false: /v1/insert answers 501 and
// the ready line says so.
func TestInsertDisabled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-gen", "line", "-n", "100", "-incremental=false"}, out, io.Discard)
	}()
	var base string
	waitFor(t, 10*time.Second, "listen announcement", func() bool {
		s := out.String()
		i := strings.Index(s, "listening on http://")
		if i < 0 {
			return false
		}
		base = strings.TrimSpace(strings.SplitN(s[i+len("listening on "):], " ", 2)[0])
		return true
	})
	client := &http.Client{Timeout: 5 * time.Second}
	waitFor(t, 20*time.Second, "readiness", func() bool {
		resp, err := client.Get(base + "/v1/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	resp, err := client.Post(base+"/v1/insert", "application/json", strings.NewReader("[[0,1]]"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("insert with -incremental=false: status %d want 501", resp.StatusCode)
	}
	if !strings.Contains(out.String(), "incremental=false") {
		t.Fatalf("ready line does not announce the disabled layer:\n%s", out.String())
	}
	cancel()
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("run exit=%d", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return")
	}
}

// TestRunErrors pins the fail-fast paths: all must exit non-zero without
// binding a long-lived server.
func TestRunErrors(t *testing.T) {
	runErr := func(args ...string) (int, string) {
		var out, errb bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		code := run(ctx, args, &out, &errb)
		return code, errb.String()
	}
	if code, _ := runErr("-badflag"); code != 2 {
		t.Fatalf("bad flag: exit=%d", code)
	}
	if code, errb := runErr(); code != 2 || !strings.Contains(errb, "need -in FILE or -gen NAME") {
		t.Fatalf("no input: exit=%d stderr=%s", code, errb)
	}
	if code, errb := runErr("-gen", "random", "-algorithm", "bogus"); code != 2 || !strings.Contains(errb, "available:") {
		t.Fatalf("bogus algorithm: exit=%d stderr=%s", code, errb)
	}
	if code, _ := runErr("-addr", "127.0.0.1:0", "-gen", "bogus"); code != 2 {
		t.Fatalf("bogus generator: exit=%d", code)
	}
	if code, _ := runErr("-addr", "127.0.0.1:0", "-in", "/nonexistent/file"); code != 2 {
		t.Fatalf("missing file: exit=%d", code)
	}
	if code, _ := runErr("-gen", "line", "-n", "10", "-addr", "256.256.256.256:1"); code != 2 {
		t.Fatalf("bad addr: exit=%d", code)
	}
}

// TestShutdownWhileDrainingInFlight starts a slow batch request and then
// cancels the server; the request must complete (drained), not be cut off.
func TestShutdownWhileDrainingInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-gen", "line", "-n", "1000"}, out, io.Discard)
	}()
	var base string
	waitFor(t, 10*time.Second, "listen announcement", func() bool {
		s := out.String()
		i := strings.Index(s, "listening on http://")
		if i < 0 {
			return false
		}
		base = strings.TrimSpace(strings.SplitN(s[i+len("listening on "):], " ", 2)[0])
		return true
	})
	client := &http.Client{Timeout: 5 * time.Second}
	waitFor(t, 20*time.Second, "readiness", func() bool {
		resp, err := client.Get(base + "/v1/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// Post a batch whose body arrives through a pipe, with Expect:
	// 100-continue so the transport only reads the pipe after the server's
	// handler started reading the body. Once the first write unblocks, the
	// request is provably active server-side; only then cancel the server.
	// Shutdown must drain the request to a 200, not abort it.
	pr, pw := io.Pipe()
	postClient := &http.Client{
		Transport: &http.Transport{ExpectContinueTimeout: 10 * time.Second},
		Timeout:   10 * time.Second,
	}
	defer postClient.CloseIdleConnections()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Expect", "100-continue")
	done := make(chan error, 1)
	go func() {
		resp, err := postClient.Do(req)
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		done <- nil
	}()
	if _, err := pw.Write([]byte("[[0,1]")); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Give Shutdown a moment to close the listener while the request is
	// still open, then finish the body.
	time.Sleep(100 * time.Millisecond)
	if _, err := pw.Write([]byte(",[1,2]]")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("run exit=%d", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return")
	}
}

// TestMetricsEndpoint is the metrics-smoke check: boot the full server,
// drive a little traffic, scrape /metrics, and validate both the exposition
// format and the presence of every required series family — request
// counters, error taxonomy, cumulative duration histograms, the startup labeling run's engine series, and runtime
// metrics. It also pins the trace-ID header and the -request-trace JSONL
// span file end to end.
func TestMetricsEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	traceFile := filepath.Join(t.TempDir(), "spans.jsonl")
	out := &syncBuffer{}
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-gen", "line", "-n", "1000",
			"-span-sample", "1", "-request-trace", traceFile,
		}, out, io.Discard)
	}()
	var base string
	waitFor(t, 10*time.Second, "listen announcement", func() bool {
		s := out.String()
		i := strings.Index(s, "listening on http://")
		if i < 0 {
			return false
		}
		base = strings.TrimSpace(strings.SplitN(s[i+len("listening on "):], " ", 2)[0])
		return true
	})
	client := &http.Client{Timeout: 5 * time.Second}
	waitFor(t, 20*time.Second, "readiness", func() bool {
		resp, err := client.Get(base + "/v1/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// Traffic: point queries, a batch, one taxonomy error (bad param), and
	// an insert (epoch-carrying span).
	for i := 0; i < 5; i++ {
		resp, err := client.Get(fmt.Sprintf("%s/v1/component?v=%d", base, i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("Parconn-Trace-Id"); got == "" {
			t.Fatal("no trace ID on /v1/component response")
		}
	}
	resp, err := client.Post(base+"/v1/batch", "application/json", strings.NewReader("[[0,1],[2,3]]"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = client.Get(base + "/v1/component?v=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad param: status %d", resp.StatusCode)
	}
	resp, err = client.Post(base+"/v1/insert", "application/json", strings.NewReader("[[0,500]]"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}

	// Scrape and validate.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("/metrics content-type %q, want %q", ct, metrics.ContentType)
	}
	parsed, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics body does not parse: %v", err)
	}
	expect := map[string]float64{
		`parconn_http_requests_total{endpoint="component"}`:                 6,
		`parconn_http_requests_total{endpoint="batch"}`:                     1,
		`parconn_http_requests_total{endpoint="insert"}`:                    1,
		`parconn_http_errors_total{endpoint="component",class="4xx"}`:       1,
		`parconn_http_request_duration_seconds_count{endpoint="component"}`: 6,
		`parconn_http_spans_sampled_total`:                                  8,
		`parconn_ready`:                                                     1,
		`parconn_published_epoch`:                                           1,
		`parconn_runs_total`:                                                1,
	}
	for key, want := range expect {
		got, ok := parsed[key]
		if !ok {
			t.Errorf("/metrics missing %s", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	for _, key := range []string{
		`parconn_http_errors_total{endpoint="insert",class="read_only"}`,
		`parconn_http_inflight_requests`,
		"parconn_goroutines",
		"parconn_heap_inuse_bytes",
		"parconn_gc_pause_seconds_total",
	} {
		if _, ok := parsed[key]; !ok {
			t.Errorf("/metrics missing %s", key)
		}
	}
	// The counted component requests sit in finite latency buckets, the
	// series a scrape-to-scrape difference reads recent quantiles from.
	filled := false
	for key, v := range parsed {
		if strings.HasPrefix(key, `parconn_http_request_duration_seconds_bucket{endpoint="component",le="`) &&
			!strings.HasSuffix(key, `le="+Inf"}`) && v > 0 {
			filled = true
		}
	}
	if !filled {
		t.Error("no finite component latency bucket holds a sample right after traffic")
	}
	if got := parsed[`parconn_http_request_duration_seconds_sum{endpoint="component"}`]; got <= 0 {
		t.Errorf("component latency sum = %v right after traffic, want > 0", got)
	}
	for _, key := range []string{"parconn_levels_total", `parconn_phase_seconds_total{phase="contract"}`} {
		if parsed[key] <= 0 {
			t.Errorf("%s = %v after the startup labeling, want > 0", key, parsed[key])
		}
	}

	// Shutdown flushes the span trace; every request above was sampled.
	cancel()
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("run exit=%d", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return")
	}
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := obs.ValidateJSONL(f)
	if err != nil {
		t.Fatalf("span trace invalid: %v", err)
	}
	if sum.Spans != 8 {
		t.Fatalf("span trace holds %d spans, want 8", sum.Spans)
	}
}
