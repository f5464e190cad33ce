package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"parconn"
	"parconn/internal/graph"
	"parconn/internal/obs"
	"parconn/internal/prand"
)

// identity returns the labeling of n isolated vertices.
func identity(n int) []int32 {
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	return labels
}

// newInsertServer publishes labels and attaches an incremental layer seeded
// from them.
func newInsertServer(t testing.TB, cfg Config, labels []int32) (*Server, *parconn.Incremental) {
	t.Helper()
	s := New(cfg)
	s.Publish(Labeling{Labels: labels, Algorithm: "test"})
	inc, err := parconn.NewIncrementalFromLabels(labels)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableIncremental(inc)
	return s, inc
}

// call sends one request to ts and decodes a 200 answer into out.
func call(t *testing.T, ts *httptest.Server, method, path string, body, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
}

// mapStats is /v1/stats's summary derived with map-based sizes over the
// full labeling, as graph.ComponentSummary does.
func mapStats(labels []int32, k int) (int, []graph.ComponentSize, obs.HistogramSnapshot) {
	count, top := graph.ComponentSummary(labels, k)
	var hist obs.Histogram
	for _, size := range graph.ComponentSizesOf(labels) {
		hist.Record(int64(size))
	}
	return count, top, hist.Snapshot()
}

// TestInsertDifferential applies random merging and merge-free insert
// batches, and after every batch compares the server's answers with a
// server that Publishes the Incremental's full snapshot, and its stats
// with the map-based summary. Concurrent readers check, on every epoch
// they load, that labels are canonical and that merges are never seen to
// undo.
func TestInsertDifferential(t *testing.T) {
	const k = 4
	n := 20000
	if testing.Short() {
		n = 12000
	}
	cfg := Config{MaxBatch: DefaultMaxBatch, TopK: k}
	s, inc := newInsertServer(t, cfg, identity(n))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := prand.New(uint64(100 + r))
			var pairs [][2]int32
			for i := 0; i < 64; i++ {
				pairs = append(pairs, [2]int32{rng.Int31n(int32(n)), rng.Int31n(int32(n))})
			}
			joined := make([]bool, len(pairs))
			var lastEpoch uint64
			lastComponents := n + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := s.pub.Load()
				for i := 0; i < 256; i++ {
					v := rng.Int31n(int32(n))
					l, size := p.view.component(v)
					if ll, lsize := p.view.component(l); ll != l || lsize != size {
						t.Errorf("reader %d epoch %d: vertex %d has label %d size %d, label's own is %d size %d",
							r, p.epoch, v, l, size, ll, lsize)
						return
					}
				}
				var ba batchResponse
				resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(mustJSON(pairs)))
				if err != nil {
					t.Error(err)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&ba)
				resp.Body.Close()
				if err != nil || len(ba.Same) != len(pairs) {
					t.Errorf("reader %d: batch answer %+v: %v", r, ba, err)
					return
				}
				for i, same := range ba.Same {
					if joined[i] && !same {
						t.Errorf("reader %d: pair %v joined, then answered apart", r, pairs[i])
						return
					}
					joined[i] = same
				}
				var st statsResponse
				resp, err = ts.Client().Get(ts.URL + "/v1/stats")
				if err != nil {
					t.Error(err)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil || st.Epoch < lastEpoch || st.Components > lastComponents {
					t.Errorf("reader %d: stats went from epoch %d, %d components to %+v (%v)",
						r, lastEpoch, lastComponents, st, err)
					return
				}
				lastEpoch, lastComponents = st.Epoch, st.Components
			}
		}(r)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	rng := prand.New(7)
	merging := 0
	for batch := 0; batch < 60; batch++ {
		snap := inc.Snapshot()
		var edges [][2]int32
		mergeFree := batch%3 == 2
		if mergeFree {
			// Edges inside components, and a self-loop.
			for i := 0; i < 32; i++ {
				v := rng.Int31n(int32(n))
				edges = append(edges, [2]int32{v, snap.Labels[v]})
			}
			edges = append(edges, [2]int32{5, 5})
		} else {
			for i := 0; i < 64; i++ {
				edges = append(edges, [2]int32{rng.Int31n(int32(n)), rng.Int31n(int32(n))})
			}
		}
		var ir insertResponse
		call(t, ts, http.MethodPost, "/v1/insert", edges, &ir)
		if mergeFree && ir.Merged != 0 {
			t.Fatalf("batch %d: merge-free batch merged %d", batch, ir.Merged)
		}
		if ir.Merged > 0 {
			merging++
		}
		p := s.pub.Load()

		// The old derivation: the full snapshot, published.
		snap = inc.Snapshot()
		if ir.Epoch != snap.Epoch || ir.Components != snap.Components || p.epoch != snap.Epoch {
			t.Fatalf("batch %d: insert answered %+v, published epoch %d; snapshot has epoch %d, %d components",
				batch, ir, p.epoch, snap.Epoch, snap.Components)
		}
		ref := New(cfg)
		ref.Publish(Labeling{Labels: snap.Labels, Algorithm: "test"})
		rv := ref.pub.Load().view
		for v := int32(0); v < int32(n); v++ {
			l, size := p.view.component(v)
			wl, wsize := rv.component(v)
			if l != wl || size != wsize {
				t.Fatalf("batch %d: vertex %d has label %d size %d, want %d size %d", batch, v, l, size, wl, wsize)
			}
			if p.view.labels[l] != l {
				t.Fatalf("batch %d: label %d of vertex %d is not canonical", batch, l, v)
			}
		}

		rts := httptest.NewServer(ref.Handler())
		for i := 0; i < 8; i++ {
			u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
			var got, want componentResponse
			call(t, ts, http.MethodGet, fmt.Sprintf("/v1/component?v=%d", v), nil, &got)
			call(t, rts, http.MethodGet, fmt.Sprintf("/v1/component?v=%d", v), nil, &want)
			if got != want {
				t.Fatalf("batch %d: component answered %+v, want %+v", batch, got, want)
			}
			var gs, ws sameResponse
			q := fmt.Sprintf("/v1/same?u=%d&v=%d", u, v)
			call(t, ts, http.MethodGet, q, nil, &gs)
			call(t, rts, http.MethodGet, q, nil, &ws)
			if gs != ws {
				t.Fatalf("batch %d: same answered %+v, want %+v", batch, gs, ws)
			}
		}
		// Pairs along the batch's edges and across random vertices.
		pairs := append([][2]int32(nil), edges...)
		for i := 0; i < 64; i++ {
			pairs = append(pairs, [2]int32{rng.Int31n(int32(n)), rng.Int31n(int32(n))})
		}
		var gb, wb batchResponse
		call(t, ts, http.MethodPost, "/v1/batch", pairs, &gb)
		call(t, rts, http.MethodPost, "/v1/batch", pairs, &wb)
		if !reflect.DeepEqual(gb, wb) {
			t.Fatalf("batch %d: /v1/batch answered %+v, want %+v", batch, gb, wb)
		}
		var gst statsResponse
		call(t, ts, http.MethodGet, "/v1/stats", nil, &gst)
		rts.Close()
		count, top, hist := mapStats(snap.Labels, k)
		if gst.Components != count || !reflect.DeepEqual(gst.TopComponents, top) || !reflect.DeepEqual(gst.SizeHistogram, hist) {
			t.Fatalf("batch %d: stats %d components, top %v, histogram %+v; want %d, %v, %+v",
				batch, gst.Components, gst.TopComponents, gst.SizeHistogram, count, top, hist)
		}
		if gst.Epoch != snap.Epoch || gst.Vertices != n {
			t.Fatalf("batch %d: stats epoch %d vertices %d, want %d and %d", batch, gst.Epoch, gst.Vertices, snap.Epoch, n)
		}
	}
	if merging == 0 {
		t.Fatal("no batch merged")
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// bytesPerRun is testing.AllocsPerRun for bytes, without its warm-up
// call: the mean heap bytes one call of f allocates, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestInsertAllocs pins the insert path's allocations, not its time: a
// merge-free batch allocates the same at n = 10^4 and 10^6, and a merging
// batch no more than the labeling and size array of its new view.
func TestInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const batch = 32
	edges := make([]parconn.Edge, batch)

	type cost struct{ allocs, bytes float64 }
	mergeFree := map[int]cost{}
	for _, n := range []int{10_000, 1_000_000} {
		// One component: every batch merges nothing.
		s, inc := newInsertServer(t, Config{}, make([]int32, n))
		rng := prand.New(1)
		for i := range edges {
			edges[i] = parconn.Edge{U: rng.Int31n(int32(n)), V: rng.Int31n(int32(n))}
		}
		insert := func() {
			if merged, _, err := s.insert(inc, edges); err != nil || merged != 0 {
				t.Fatalf("merge-free batch: merged %d, %v", merged, err)
			}
		}
		mergeFree[n] = cost{testing.AllocsPerRun(100, insert), float64(bytesPerRun(100, insert))}

		// Isolated vertices: each batch joins 32 fresh pairs. A merging
		// batch indexes a new snapshot: two int32 arrays of n, and no maps.
		s, inc = newInsertServer(t, Config{}, identity(n))
		for b := 0; b < 4; b++ {
			for i := range edges {
				u := int32((b*batch + i) * 2)
				edges[i] = parconn.Edge{U: u, V: u + 1}
			}
			var merged int
			bytes := bytesPerRun(1, func() { merged, _, _ = s.insert(inc, edges) })
			if merged != batch {
				t.Fatalf("n=%d batch %d: merged %d, want %d", n, b, merged, batch)
			}
			// The slack covers the headers and the page rounding of the
			// two arrays.
			if limit := uint64(8*n + 64<<10); bytes > limit {
				t.Fatalf("n=%d: a merging batch allocated %d bytes, want <= %d", n, bytes, limit)
			}
		}
	}
	small, large := mergeFree[10_000], mergeFree[1_000_000]
	if small != large {
		t.Fatalf("merge-free batch: %v allocs, %v bytes at n=10^4; %v allocs, %v bytes at n=10^6",
			small.allocs, small.bytes, large.allocs, large.bytes)
	}
	if large.bytes > 1024 {
		t.Fatalf("merge-free batch allocated %v bytes, want a header copy", large.bytes)
	}
}

// BenchmarkServeInsert times the insert path below HTTP: one 32-edge batch
// through Server.insert, merge-free (one component) or merging (isolated
// vertices, re-seeded before half of them are joined), at three sizes.
// The merge-free ns/op and B/op should not grow with n; a merging batch
// indexes a new snapshot, so its cost is linear in n.
func BenchmarkServeInsert(b *testing.B) {
	const batch = 32
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d/merge-free", n), func(b *testing.B) {
			s, inc := newInsertServer(b, Config{}, make([]int32, n))
			edges := randomEdges(prand.New(1), n, 1024*batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % 1024 * batch
				if _, _, err := s.insert(inc, edges[j:j+batch]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/merging", n), func(b *testing.B) {
			rng := prand.New(1)
			s, inc := newInsertServer(b, Config{}, identity(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if inc.Components() < n/2 {
					b.StopTimer()
					s, inc = newInsertServer(b, Config{}, identity(n))
					b.StartTimer()
				}
				if _, _, err := s.insert(inc, randomEdges(rng, n, batch)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func randomEdges(rng *prand.Source, n, m int) []parconn.Edge {
	edges := make([]parconn.Edge, m)
	for i := range edges {
		edges[i] = parconn.Edge{U: rng.Int31n(int32(n)), V: rng.Int31n(int32(n))}
	}
	return edges
}
