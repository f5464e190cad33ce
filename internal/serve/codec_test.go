package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parconn/internal/prand"
)

// malformedBodies leave the [[u,v],...] grammar; each is a 400 on
// /v1/batch and /v1/insert.
var malformedBodies = []string{
	`[[5]]`,                      // short pair
	`[[1,2,3]]`,                  // long pair
	`[null]`,                     // null pair
	`null`,                       // null list
	`[[1,2]] xyz`,                // trailing bytes
	`[[1,2]]{}`,                  // trailing value
	`[[1,2],]`,                   // trailing comma
	`[[01,2]]`,                   // leading zero
	`[[1.0,2]]`,                  // fraction
	`[[1e0,2]]`,                  // exponent
	`[["1",2]]`,                  // string id
	`[[-,2]]`,                    // sign without digits
	`[[9223372036854775808,1]]`,  // MaxInt64+1
	`[[-9223372036854775809,1]]`, // MinInt64-1
	`[[1,2]`,                     // unclosed list
	`[,]`,
	``,
	`{nope`,
}

// wellFormedBodies are inside the grammar, with JSON whitespace between
// tokens; each answers 200 on the ten-vertex test server.
var wellFormedBodies = []string{
	`[]`,
	" \t\r\n[ \n] \n",
	" [ [ 0 , 1 ] ,\n\t[\r2,\t3 ]\n,[-0,9]] \r\n",
}

func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestStrictPairBodies pins the body grammar of /v1/batch and /v1/insert:
// every malformed body is a 400 that applies nothing, and whitespace
// between tokens is accepted.
func TestStrictPairBodies(t *testing.T) {
	_, ts := newIncrementalServer(t)
	stats := func() statsResponse {
		var st statsResponse
		if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
			t.Fatalf("stats: %d", code)
		}
		return st
	}
	for _, path := range []string{"/v1/batch", "/v1/insert"} {
		for _, body := range malformedBodies {
			before := stats()
			code, b := postBody(t, ts.URL+path, body)
			if code != http.StatusBadRequest {
				t.Errorf("%s %q: status %d want 400 (%s)", path, body, code, b)
			}
			var eb errorBody
			if err := json.Unmarshal(b, &eb); err != nil || eb.Error == "" {
				t.Errorf("%s %q: error body %q", path, body, b)
			}
			if after := stats(); after.Epoch != before.Epoch || after.Edges != before.Edges || after.Components != before.Components {
				t.Errorf("%s %q: rejected body moved stats from %+v to %+v", path, body, before, after)
			}
		}
		for _, body := range wellFormedBodies {
			if code, b := postBody(t, ts.URL+path, body); code != http.StatusOK {
				t.Errorf("%s %q: status %d want 200 (%s)", path, body, code, b)
			}
		}
	}
}

// TestPairBodyStatusOrder pins 400 before 413 before 404: a body is
// parsed whole before its length is checked, and its length before its
// ids. The test server's MaxBatch is 8 and its ids are [0, 10).
func TestPairBodyStatusOrder(t *testing.T) {
	_, ts := newIncrementalServer(t)
	pairs := func(k int, last string) string {
		var b strings.Builder
		b.WriteString("[")
		for i := 0; i < k-1; i++ {
			fmt.Fprintf(&b, "[%d,%d],", i, i+1)
		}
		return b.String() + last + "]"
	}
	cases := []struct {
		body string
		want int
	}{
		{pairs(9, "[1]"), http.StatusBadRequest},               // too long and malformed
		{pairs(9, "[1,10]"), http.StatusRequestEntityTooLarge}, // too long and out of range
		{pairs(8, "[1,10]"), http.StatusNotFound},
		{pairs(8, "[-9223372036854775808,1]"), http.StatusNotFound},
		{pairs(8, "[1,9]"), http.StatusOK},
	}
	for _, path := range []string{"/v1/batch", "/v1/insert"} {
		for _, tc := range cases {
			if code, b := postBody(t, ts.URL+path, tc.body); code != tc.want {
				t.Errorf("%s %s: status %d want %d (%s)", path, tc.body, code, tc.want, b)
			}
		}
	}
}

// checkAgainstJSON fails t unless encoding/json also accepts a body
// parsePairs accepted, with the same pairs.
func checkAgainstJSON(t *testing.T, body []byte, got [][2]int64) {
	t.Helper()
	var want [][2]int64
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("parsePairs accepted %q, encoding/json rejects it: %v", body, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: parsePairs read %d pairs, encoding/json %d", body, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%q: pair %d is %v, encoding/json reads %v", body, i, got[i], want[i])
		}
	}
}

// FuzzDecodePairs checks parsePairs against encoding/json: whatever the
// strict parser accepts, the reflection decoder accepts too, with the same
// pairs. (The converse does not hold: json reads [[5]] as (5, 0).)
func FuzzDecodePairs(f *testing.F) {
	for _, body := range append(malformedBodies, wellFormedBodies...) {
		f.Add([]byte(body))
	}
	f.Add([]byte(`[[-9223372036854775808,9223372036854775807]]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := parsePairs(nil, body)
		if err == nil {
			checkAgainstJSON(t, body, got)
		}
	})
}

// TestParsePairsGenerated prints random pair lists with random JSON
// whitespace between every two tokens and parses them back.
func TestParsePairsGenerated(t *testing.T) {
	rng := prand.New(7)
	spaces := []string{"", "", " ", "\t", "\n", "\r\n", "  \t "}
	ids := func() int64 {
		switch rng.Intn(5) {
		case 0:
			return math.MaxInt64 - int64(rng.Intn(3))
		case 1:
			return math.MinInt64 + int64(rng.Intn(3))
		case 2:
			return -int64(rng.Intn(1000))
		default:
			return int64(rng.Uint64() >> (1 + rng.Intn(63)))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		want := make([][2]int64, rng.Intn(12))
		var b bytes.Buffer
		ws := func() { b.WriteString(spaces[rng.Intn(len(spaces))]) }
		ws()
		b.WriteString("[")
		for i := range want {
			want[i] = [2]int64{ids(), ids()}
			if i > 0 {
				ws()
				b.WriteString(",")
			}
			ws()
			b.WriteString("[")
			ws()
			fmt.Fprintf(&b, "%d", want[i][0])
			ws()
			b.WriteString(",")
			ws()
			fmt.Fprintf(&b, "%d", want[i][1])
			ws()
			b.WriteString("]")
		}
		ws()
		b.WriteString("]")
		ws()
		got, err := parsePairs(nil, b.Bytes())
		if err != nil {
			t.Fatalf("%q: %v", b.Bytes(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d pairs, want %d", b.Bytes(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: pair %d is %v, want %v", b.Bytes(), i, got[i], want[i])
			}
		}
		checkAgainstJSON(t, b.Bytes(), got)
	}
}

// marshalLine is what writeJSON sends for v: json.Marshal plus '\n'.
func marshalLine(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestEncodersMatchJSON pins the append encoders to the bytes
// encoding/json writes for each response type.
func TestEncodersMatchJSON(t *testing.T) {
	ids := []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32}
	for _, u := range ids {
		for _, v := range ids {
			c := componentResponse{V: u, Component: v, Size: int(u) * 3}
			if got, want := string(appendComponent(nil, c)), marshalLine(t, c); got != want {
				t.Errorf("component %+v: %q want %q", c, got, want)
			}
			for _, same := range []bool{false, true} {
				s := sameResponse{U: u, V: v, Same: same}
				if got, want := string(appendSame(nil, s)), marshalLine(t, s); got != want {
					t.Errorf("same %+v: %q want %q", s, got, want)
				}
			}
		}
	}
	for _, epoch := range []uint64{0, 1, math.MaxUint32, math.MaxUint64} {
		for _, k := range []int{0, 1, -1, math.MaxInt32, math.MaxInt64, math.MinInt64} {
			r := insertResponse{Inserted: k, Merged: -k, Epoch: epoch, Components: k / 2}
			if got, want := string(appendInsert(nil, r)), marshalLine(t, r); got != want {
				t.Errorf("insert %+v: %q want %q", r, got, want)
			}
		}
	}
	labels := []int32{0, 0, 2, 2, 0}
	for k := 0; k <= 6; k++ {
		pairs := make([][2]int64, k)
		same := make([]bool, k)
		for i := range pairs {
			pairs[i] = [2]int64{int64(i % 5), int64(i * 3 % 5)}
			same[i] = labels[pairs[i][0]] == labels[pairs[i][1]]
		}
		r := batchResponse{Count: k, Same: same}
		if got, want := string(appendBatch(nil, pairs, labels)), marshalLine(t, r); got != want {
			t.Errorf("batch of %d: %q want %q", k, got, want)
		}
	}
}

// TestHotEndpointsBytes checks whole responses through the handlers: the
// status, the content type and the body writeJSON would have sent.
func TestHotEndpointsBytes(t *testing.T) {
	s, _ := newIncrementalServer(t)
	cases := []struct {
		h      http.HandlerFunc
		method string
		target string
		body   string
		want   any
	}{
		{s.serveComponent, http.MethodGet, "/v1/component?v=7", "", componentResponse{V: 7, Component: 6, Size: 4}},
		{s.serveSame, http.MethodGet, "/v1/same?u=1&v=9", "", sameResponse{U: 1, V: 9}},
		{s.serveBatch, http.MethodPost, "/v1/batch", "[]", batchResponse{Same: []bool{}}},
		{s.serveBatch, http.MethodPost, "/v1/batch", "[[0,5],[5,6]]", batchResponse{Count: 2, Same: []bool{true, false}}},
		{s.serveInsert, http.MethodPost, "/v1/insert", "[[1,1]]", insertResponse{Inserted: 1, Epoch: 1, Components: 2}},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		tc.h(w, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: status %d, content type %q", tc.target, tc.body, w.Code, w.Header().Get("Content-Type"))
		}
		if got, want := w.Body.String(), marshalLine(t, tc.want); got != want {
			t.Errorf("%s %s: %q want %q", tc.target, tc.body, got, want)
		}
	}
}
