package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parconn"
	"parconn/internal/obs"
	"parconn/internal/obs/metrics"
)

// newObservedServer builds a ready server with full observability attached:
// every request sampled into the flight recorder, metrics in a fresh
// registry.
func newObservedServer(t *testing.T, sampleEvery int) (*Server, *Observer, *metrics.Registry, *obs.FlightRecorder, *httptest.Server) {
	t.Helper()
	reg := metrics.New()
	fr := obs.NewFlightRecorder(256)
	o := NewObserver(ObserverConfig{Metrics: reg, Spans: fr, SampleEvery: sampleEvery})
	s := New(Config{MaxBatch: 8, TopK: 2, Observer: o})
	s.Publish(testLabeling())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, o, reg, fr, ts
}

func scrape(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := metrics.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	return parsed
}

// finiteBucketFilled reports whether some finite-le _bucket series of the
// histogram family name, restricted to the rendered label set labels,
// counts at least one sample.
func finiteBucketFilled(parsed map[string]float64, name, labels string) bool {
	prefix := name + "_bucket{" + labels + `,le="`
	for key, v := range parsed {
		if strings.HasPrefix(key, prefix) && !strings.HasSuffix(key, `le="+Inf"}`) && v > 0 {
			return true
		}
	}
	return false
}

func spansOf(t *testing.T, fr *obs.FlightRecorder) []obs.Span {
	t.Helper()
	evs, _ := fr.Snapshot()
	var spans []obs.Span
	for _, ev := range evs {
		if sp, ok := ev.V.(obs.Span); ok {
			spans = append(spans, sp)
		}
	}
	return spans
}

func TestObserverCountsRequests(t *testing.T) {
	_, _, reg, _, ts := newObservedServer(t, 1)

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/component?v=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/same?u=0&v=9")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	parsed := scrape(t, reg)
	if got := parsed[metrics.Series("parconn_http_requests_total", metrics.L("endpoint", "component"))]; got != 3 {
		t.Errorf("component requests = %v, want 3", got)
	}
	if got := parsed[metrics.Series("parconn_http_requests_total", metrics.L("endpoint", "same"))]; got != 1 {
		t.Errorf("same requests = %v, want 1", got)
	}
	// Cumulative duration histogram counted the same requests.
	if got := parsed[`parconn_http_request_duration_seconds_count{endpoint="component"}`]; got != 3 {
		t.Errorf("duration count = %v, want 3", got)
	}
	// The same samples landed in a finite latency bucket with a positive
	// total: the series a scrape-to-scrape difference reads recent
	// quantiles from.
	if !finiteBucketFilled(parsed, `parconn_http_request_duration_seconds`, `endpoint="component"`) {
		t.Error("no finite component latency bucket holds a sample")
	}
	if got := parsed[`parconn_http_request_duration_seconds_sum{endpoint="component"}`]; got <= 0 {
		t.Errorf("component latency sum = %v, want > 0", got)
	}
	if got := parsed["parconn_ready"]; got != 1 {
		t.Errorf("parconn_ready = %v, want 1", got)
	}
	if got := parsed["parconn_http_inflight_requests"]; got != 0 {
		t.Errorf("inflight after quiesce = %v, want 0", got)
	}
}

func TestObserverErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name     string
		do       func(ts *httptest.Server) error
		endpoint string
		class    string
	}{
		{"bad vertex param", func(ts *httptest.Server) error {
			resp, err := http.Get(ts.URL + "/v1/component?v=notanumber")
			if err == nil {
				resp.Body.Close()
			}
			return err
		}, EndpointComponent, "4xx"},
		{"insert without incremental", func(ts *httptest.Server) error {
			resp, err := http.Post(ts.URL+"/v1/insert", "application/json", strings.NewReader("[[0,1]]"))
			if err == nil {
				resp.Body.Close()
			}
			return err
		}, EndpointInsert, "read_only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, reg, _, ts := newObservedServer(t, 0)
			if err := tc.do(ts); err != nil {
				t.Fatal(err)
			}
			parsed := scrape(t, reg)
			key := metrics.Series("parconn_http_errors_total", metrics.L("endpoint", tc.endpoint, "class", tc.class))
			if got := parsed[key]; got != 1 {
				t.Errorf("%s = %v, want 1", key, got)
			}
		})
	}
}

func TestObserverNotReadyClass(t *testing.T) {
	reg := metrics.New()
	o := NewObserver(ObserverConfig{Metrics: reg})
	s := New(Config{Observer: o}) // never published
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/component?v=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	parsed := scrape(t, reg)
	key := metrics.Series("parconn_http_errors_total", metrics.L("endpoint", "component", "class", "not_ready"))
	if got := parsed[key]; got != 1 {
		t.Errorf("%s = %v, want 1", key, got)
	}
	if got := parsed["parconn_ready"]; got != 0 {
		t.Errorf("parconn_ready before publish = %v, want 0", got)
	}
}

func TestTraceIDGeneratedAndEchoed(t *testing.T) {
	_, _, _, _, ts := newObservedServer(t, 1)

	// No client ID: the server generates a 16-hex-digit one.
	resp, err := http.Get(ts.URL + "/v1/component?v=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get(TraceHeader)
	if len(id) != 16 {
		t.Fatalf("generated trace ID %q, want 16 hex chars", id)
	}
	for _, c := range id {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("generated trace ID %q has non-hex char %q", id, c)
		}
	}

	// Client-supplied ID is echoed verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/component?v=1", nil)
	req.Header.Set(TraceHeader, "client-chose-this")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get(TraceHeader); got != "client-chose-this" {
		t.Fatalf("echoed trace ID %q, want client's", got)
	}

	// Oversized client IDs are truncated, not rejected.
	req3, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/component?v=1", nil)
	long := strings.Repeat("x", 500)
	req3.Header.Set(TraceHeader, long)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if got := resp3.Header.Get(TraceHeader); len(got) != maxTraceIDLen || !strings.HasPrefix(long, got) {
		t.Fatalf("oversized trace ID echoed as %d chars, want truncation to %d", len(got), maxTraceIDLen)
	}
}

func TestSampledSpansCarryRequestDetail(t *testing.T) {
	s, _, reg, fr, ts := newObservedServer(t, 1) // sample everything

	// A batch query span records the batch size.
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("[[0,1],[0,9],[3,4]]"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	batchID := resp.Header.Get(TraceHeader)

	// An insert span records batch size and published epoch.
	inc, err := parconn.NewIncrementalFromLabels(testLabeling().Labels)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIncremental(inc)
	resp2, err := http.Post(ts.URL+"/v1/insert", "application/json", strings.NewReader("[[0,9],[1,8]]"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()

	spans := spansOf(t, fr)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	batch, insert := spans[0], spans[1]
	if batch.Endpoint != EndpointBatch || batch.Status != 200 || batch.Batch != 3 {
		t.Errorf("batch span %+v, want endpoint=batch status=200 batch=3", batch)
	}
	if batch.TraceID != batchID {
		t.Errorf("batch span trace ID %q, header said %q", batch.TraceID, batchID)
	}
	if batch.Duration <= 0 {
		t.Errorf("batch span duration %v, want > 0", batch.Duration)
	}
	if insert.Endpoint != EndpointInsert || insert.Batch != 2 || insert.Epoch == 0 {
		t.Errorf("insert span %+v, want endpoint=insert batch=2 epoch>0", insert)
	}

	parsed := scrape(t, reg)
	if got := parsed["parconn_http_spans_sampled_total"]; got != 2 {
		t.Errorf("spans sampled counter = %v, want 2", got)
	}
	if got := parsed["parconn_published_epoch"]; got != float64(insert.Epoch) {
		t.Errorf("parconn_published_epoch = %v, want %d", got, insert.Epoch)
	}
}

func TestHeadSamplingRate(t *testing.T) {
	_, _, _, fr, ts := newObservedServer(t, 4) // 1-in-4

	for i := 0; i < 20; i++ {
		resp, err := http.Get(ts.URL + "/v1/component?v=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := len(spansOf(t, fr)); got != 5 {
		t.Fatalf("sampled %d of 20 requests at 1-in-4, want 5", got)
	}
}

func TestSpansSurviveJSONLRoundTrip(t *testing.T) {
	_, _, _, fr, ts := newObservedServer(t, 1)
	resp, err := http.Get(ts.URL + "/v1/component?v=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	for _, sp := range spansOf(t, fr) {
		jw.Span(sp)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := obs.Validate(evs)
	if err != nil {
		t.Fatalf("span stream failed validation: %v", err)
	}
	if sum.Spans != 1 {
		t.Fatalf("validated %d spans, want 1", sum.Spans)
	}
}

func TestUnobservedServerUnchanged(t *testing.T) {
	// No Observer: no trace header, handlers still work.
	_, ts := newReadyServer(t)
	resp, err := http.Get(ts.URL + "/v1/component?v=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != "" {
		t.Fatalf("uninstrumented server set trace header %q", got)
	}
}

func TestHealthzStaysUnobserved(t *testing.T) {
	_, _, reg, fr, ts := newObservedServer(t, 1)
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	parsed := scrape(t, reg)
	for key := range parsed {
		if strings.Contains(key, `endpoint="healthz"`) {
			t.Errorf("healthz leaked into metrics: %s", key)
		}
	}
	if got := len(spansOf(t, fr)); got != 0 {
		t.Errorf("healthz produced %d spans, want 0", got)
	}
}

func TestObserverConcurrentRequests(t *testing.T) {
	_, _, reg, _, ts := newObservedServer(t, 2)
	const workers, per = 8, 25
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				resp, err := http.Get(ts.URL + "/v1/same?u=1&v=2")
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	parsed := scrape(t, reg)
	if got := parsed[metrics.Series("parconn_http_requests_total", metrics.L("endpoint", "same"))]; got != workers*per {
		t.Fatalf("same requests = %v, want %d", got, workers*per)
	}
}

func TestObserverRequiresMetrics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewObserver without ObserverConfig.Metrics did not panic")
		}
	}()
	NewObserver(ObserverConfig{})
}

func TestGeneratedTraceIDsUnique(t *testing.T) {
	_, o, _, _, _ := newObservedServer(t, 0)
	req, _ := http.NewRequest(http.MethodGet, "http://x/v1/component", nil)
	seen := make(map[string]bool)
	for i := uint64(1); i <= 1000; i++ {
		id := o.traceID(req, i)
		if seen[id] {
			t.Fatalf("duplicate generated trace ID %s at seq %d", id, i)
		}
		seen[id] = true
	}
}
