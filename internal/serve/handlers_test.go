package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"parconn/internal/prand"
)

// discardWriter is a ResponseWriter that keeps its header map and counts
// the bytes written, so replaying a request allocates nothing outside the
// handler.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// handlerCase is one hot endpoint with a request built once: run rewinds
// the body and calls the handler, so what it allocates is the handler's.
type handlerCase struct {
	name string
	h    http.HandlerFunc
	req  *http.Request
	body *bytes.Reader
	raw  []byte
}

func (c *handlerCase) run(w *discardWriter) {
	if c.body != nil {
		c.body.Reset(c.raw)
	}
	w.status = 0
	c.h(w, c.req)
}

// handlerCases serves a one-component labeling of n = 100,000 vertices,
// serve-churn's size, so every insert merges nothing: a point component
// and same query, a 64-pair batch and a 32-edge insert, with the bodies
// perfbench's client sends (compact json.Marshal of the pairs).
func handlerCases(tb testing.TB) []*handlerCase {
	const n = 100_000
	s, _ := newInsertServer(tb, Config{}, make([]int32, n))
	rng := prand.New(1)
	pairs := func(k int) []byte {
		ps := make([][2]int32, k)
		for i := range ps {
			ps[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
		}
		b, err := json.Marshal(ps)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	get := func(name string, h http.HandlerFunc, target string) *handlerCase {
		return &handlerCase{name: name, h: h, req: httptest.NewRequest(http.MethodGet, target, nil)}
	}
	post := func(name string, h http.HandlerFunc, target string, raw []byte) *handlerCase {
		c := &handlerCase{name: name, h: h, raw: raw, body: bytes.NewReader(raw)}
		c.req = httptest.NewRequest(http.MethodPost, target, nil)
		c.req.Body = io.NopCloser(c.body)
		return c
	}
	return []*handlerCase{
		get(EndpointComponent, s.serveComponent, fmt.Sprintf("/v1/component?v=%d", rng.Int31n(n))),
		get(EndpointSame, s.serveSame, fmt.Sprintf("/v1/same?u=%d&v=%d", rng.Int31n(n), rng.Int31n(n))),
		post(EndpointBatch, s.serveBatch, "/v1/batch", pairs(64)),
		post(EndpointInsert, s.serveInsert, "/v1/insert", pairs(32)),
	}
}

// BenchmarkHandlers times the four hot handlers below the HTTP stack:
// ns/op and allocs/op are the handler's own, request construction
// excluded.
func BenchmarkHandlers(b *testing.B) {
	for _, c := range handlerCases(b) {
		b.Run(c.name, func(b *testing.B) {
			w := &discardWriter{header: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run(w)
			}
			b.StopTimer()
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		})
	}
}

// TestHandlerAllocs pins the allocations of each hot handler, request
// construction excluded: the Content-Type header on every endpoint, the
// url.Values of the two GETs, the MaxBytesReader of the two POSTs, and
// the new published header an insert stores.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	ceiling := map[string]float64{EndpointComponent: 4, EndpointSame: 5, EndpointBatch: 2, EndpointInsert: 3}
	for _, c := range handlerCases(t) {
		w := &discardWriter{header: http.Header{}}
		got := testing.AllocsPerRun(200, func() { c.run(w) })
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, w.status)
		}
		if got > ceiling[c.name] {
			t.Errorf("%s: %v allocs per request, want <= %v", c.name, got, ceiling[c.name])
		}
	}
}
