package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parconn"
	"parconn/internal/obs/metrics"
)

// testLabeling is two components: evens (label 0) and odds (label 1) over
// 10 vertices... actually a simple split: vertices 0..5 -> label 0,
// vertices 6..9 -> label 6.
func testLabeling() Labeling {
	return Labeling{
		Labels:    []int32{0, 0, 0, 0, 0, 0, 6, 6, 6, 6},
		Edges:     12,
		Algorithm: "decomp-arb-hybrid-CC",
		Source:    "test",
		LoadTime:  3 * time.Millisecond,
		LabelTime: 7 * time.Millisecond,
	}
}

func newReadyServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{MaxBatch: 8, TopK: 2})
	s.Publish(testLabeling())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: content-type %q", url, ct)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestReadinessGate(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Every query endpoint answers 503 before Publish; healthz reports
	// loading with a Retry-After hint.
	for _, path := range []string{"/v1/component?v=0", "/v1/same?u=0&v=1", "/v1/stats", "/v1/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s before publish: status %d want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s before publish: no Retry-After", path)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("[[0,1]]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch before publish: status %d want 503", resp.StatusCode)
	}

	s.Publish(testLabeling())
	var hz healthzResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz after publish: %d %+v", code, hz)
	}
}

func TestComponentAndSame(t *testing.T) {
	_, ts := newReadyServer(t)

	var comp componentResponse
	if code := getJSON(t, ts.URL+"/v1/component?v=7", &comp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if comp.V != 7 || comp.Component != 6 || comp.Size != 4 {
		t.Fatalf("component response %+v", comp)
	}

	var same sameResponse
	if code := getJSON(t, ts.URL+"/v1/same?u=1&v=5", &same); code != http.StatusOK || !same.Same {
		t.Fatalf("same(1,5): %d %+v", code, same)
	}
	if code := getJSON(t, ts.URL+"/v1/same?u=1&v=9", &same); code != http.StatusOK || same.Same {
		t.Fatalf("same(1,9): %d %+v", code, same)
	}
}

func TestMalformedInputs(t *testing.T) {
	_, ts := newReadyServer(t)

	cases := []struct {
		path string
		want int
	}{
		{"/v1/component", http.StatusBadRequest},               // missing v
		{"/v1/component?v=abc", http.StatusBadRequest},         // non-numeric
		{"/v1/component?v=1e3", http.StatusBadRequest},         // float-ish
		{"/v1/component?v=99999999999", http.StatusBadRequest}, // out of int32
		{"/v1/component?v=-1", http.StatusNotFound},            // negative
		{"/v1/component?v=10", http.StatusNotFound},            // == n
		{"/v1/same?u=0", http.StatusBadRequest},                // missing v
		{"/v1/same?u=0&v=xyz", http.StatusBadRequest},
		{"/v1/same?u=0&v=10", http.StatusNotFound},
	}
	for _, tc := range cases {
		var eb errorBody
		if code := getJSON(t, ts.URL+tc.path, &eb); code != tc.want {
			t.Errorf("%s: status %d want %d (%+v)", tc.path, code, tc.want, eb)
		} else if eb.Error == "" {
			t.Errorf("%s: empty error body", tc.path)
		}
	}

	// Method confusion is 405 with an Allow header.
	resp, err := http.Post(ts.URL+"/v1/component?v=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet {
		t.Errorf("POST component: status %d allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	resp, err = http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status %d", resp.StatusCode)
	}
}

func TestBatch(t *testing.T) {
	_, ts := newReadyServer(t)

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp, body := post("[[0,1],[0,9],[6,7]]")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 3 || !br.Same[0] || br.Same[1] || !br.Same[2] {
		t.Fatalf("batch response %+v", br)
	}

	// Empty batch is fine.
	if resp, body := post("[]"); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch: %d %s", resp.StatusCode, body)
	}
	// Garbage body is 400.
	if resp, _ := post("{nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", resp.StatusCode)
	}
	// Out-of-range vertex is 404.
	if resp, _ := post("[[0,10]]"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range pair: %d", resp.StatusCode)
	}
	// Oversized batch (server configured MaxBatch=8) is 413.
	var sb bytes.Buffer
	sb.WriteString("[")
	for i := 0; i < 9; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "[%d,%d]", i%10, (i+1)%10)
	}
	sb.WriteString("]")
	if resp, _ := post(sb.String()); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	_, ts := newReadyServer(t)

	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.Vertices != 10 || st.Edges != 12 || st.Components != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Algorithm != "decomp-arb-hybrid-CC" || st.LoadMS != 3 || st.LabelMS != 7 {
		t.Fatalf("stats meta %+v", st)
	}
	// TopK=2: component 0 (6 vertices) then component 6 (4 vertices).
	if len(st.TopComponents) != 2 || st.TopComponents[0].Label != 0 || st.TopComponents[0].Size != 6 ||
		st.TopComponents[1].Label != 6 || st.TopComponents[1].Size != 4 {
		t.Fatalf("top components %+v", st.TopComponents)
	}
	if st.SizeHistogram.Count != 2 || st.SizeHistogram.Min != 4 || st.SizeHistogram.Max != 6 {
		t.Fatalf("size histogram %+v", st.SizeHistogram)
	}
}

// TestConcurrentMixedQueries hammers every endpoint from many goroutines;
// under -race this checks that the published labeling and the Observer's
// wait-free latency histograms are safe to read and record concurrently.
func TestConcurrentMixedQueries(t *testing.T) {
	_, _, reg, _, ts := newObservedServer(t, 0)

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perWorker; i++ {
				u, v := (w+i)%10, (w*i+3)%10
				var resp *http.Response
				var err error
				switch i % 4 {
				case 0:
					resp, err = client.Get(fmt.Sprintf("%s/v1/component?v=%d", ts.URL, u))
				case 1:
					resp, err = client.Get(fmt.Sprintf("%s/v1/same?u=%d&v=%d", ts.URL, u, v))
				case 2:
					resp, err = client.Post(ts.URL+"/v1/batch", "application/json",
						strings.NewReader(fmt.Sprintf("[[%d,%d],[%d,%d]]", u, v, v, u)))
				case 3:
					resp, err = client.Get(ts.URL + "/v1/stats")
				}
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d op %d: status %d", w, i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	parsed := scrape(t, reg)
	var total float64
	for _, ep := range observedEndpoints {
		total += parsed[metrics.Series("parconn_http_request_duration_seconds_count", metrics.L("endpoint", ep))]
	}
	if total != workers*perWorker {
		t.Fatalf("latency histograms recorded %v requests, want %d", total, workers*perWorker)
	}
}

// newIncrementalServer is newReadyServer with the incremental layer
// attached, so /v1/insert is live.
func newIncrementalServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newReadyServer(t)
	inc, err := parconn.NewIncrementalFromLabels(testLabeling().Labels)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIncremental(inc)
	return s, ts
}

func postInsert(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/insert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// TestInsert covers the /v1/insert contract: disabled servers answer 501,
// merges republish the labeling so /v1/same flips without a restart, and
// input errors map to the same status codes as /v1/batch.
func TestInsert(t *testing.T) {
	// Without EnableIncremental the endpoint is declared-but-disabled.
	_, ro := newReadyServer(t)
	if resp, _ := postInsert(t, ro, "[[0,6]]"); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("read-only server: status %d want 501", resp.StatusCode)
	}

	_, ts := newIncrementalServer(t)

	// The two components of testLabeling are disjoint until this insert.
	var same sameResponse
	if code := getJSON(t, ts.URL+"/v1/same?u=0&v=6", &same); code != http.StatusOK || same.Same {
		t.Fatalf("before insert: %d %+v", code, same)
	}
	resp, body := postInsert(t, ts, "[[2,7],[3,3]]")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, body)
	}
	var ir insertResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Inserted != 2 || ir.Merged != 1 || ir.Epoch != 1 || ir.Components != 1 {
		t.Fatalf("insert response %+v", ir)
	}
	// The merge is immediately visible to readers through the republished
	// labeling, and /v1/stats reports the new epoch and component count.
	if code := getJSON(t, ts.URL+"/v1/same?u=0&v=6", &same); code != http.StatusOK || !same.Same {
		t.Fatalf("after insert: %d %+v", code, same)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Components != 1 || st.Epoch != 1 {
		t.Fatalf("stats after insert: components=%d epoch=%d", st.Components, st.Epoch)
	}
	if st.Edges != testLabeling().Edges+2 {
		t.Fatalf("stats edges after insert: %d", st.Edges)
	}

	// Input errors mirror /v1/batch.
	if resp, _ := postInsert(t, ts, "{nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", resp.StatusCode)
	}
	if resp, _ := postInsert(t, ts, "[[0,10]]"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range edge: %d", resp.StatusCode)
	}
	if resp, _ := postInsert(t, ts, "[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9]]"); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d", resp.StatusCode)
	}
	// Method confusion is 405.
	respGet, err := http.Get(ts.URL + "/v1/insert")
	if err != nil {
		t.Fatal(err)
	}
	respGet.Body.Close()
	if respGet.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET insert: %d", respGet.StatusCode)
	}
}

// TestConcurrentInsertAndQuery races writers on /v1/insert against readers
// on /v1/same and /v1/stats; under -race this exercises the whole
// insert -> snapshot -> republish path against lock-free readers. Inserted
// edges stay within the even component, so reader answers are stable.
func TestConcurrentInsertAndQuery(t *testing.T) {
	_, ts := newIncrementalServer(t)

	const writers, readers, ops = 4, 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < ops; i++ {
				u, v := (2*i+2*w)%6, (2*i+2*w+2)%6 // even vertices: label-0 component
				body := fmt.Sprintf("[[%d,%d]]", u, v)
				resp, err := client.Post(ts.URL+"/v1/insert", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d op %d: status %d", w, i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := ts.Client()
			lastEpoch := uint64(0)
			for i := 0; i < ops; i++ {
				// Same-component answers never change: the inserts only
				// re-link vertices already labeled 0.
				var same sameResponse
				resp, err := client.Get(fmt.Sprintf("%s/v1/same?u=%d&v=%d", ts.URL, 2*(i%3), 9))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d op %d: status %d", r, i, resp.StatusCode)
					return
				}
				if err := json.Unmarshal(body, &same); err != nil {
					errs <- err
					return
				}
				if same.Same {
					errs <- fmt.Errorf("reader %d op %d: cross-component pair reported same", r, i)
					return
				}
				// Epochs visible through /v1/stats never regress.
				var st statsResponse
				resp, err = client.Get(ts.URL + "/v1/stats")
				if err != nil {
					errs <- err
					return
				}
				body, _ = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err := json.Unmarshal(body, &st); err != nil {
					errs <- err
					return
				}
				if st.Epoch < lastEpoch {
					errs <- fmt.Errorf("reader %d: epoch regressed %d -> %d", r, lastEpoch, st.Epoch)
					return
				}
				lastEpoch = st.Epoch
				if st.Components != 2 {
					errs <- fmt.Errorf("reader %d: components = %d, want 2", r, st.Components)
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
}

// TestRepublish checks that Publish can swap the labeling atomically while
// queries are running.
func TestRepublish(t *testing.T) {
	s, ts := newReadyServer(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/component?v=3")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for i := 0; i < 20; i++ {
		s.Publish(testLabeling())
	}
	close(stop)
	wg.Wait()
	if !s.Ready() {
		t.Fatal("server not ready after republish")
	}
}
