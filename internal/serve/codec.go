package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"parconn"
)

// scratch holds one hot request's buffers: body the request body, pairs
// its parse, edges an insert's batch (Incremental.Insert copies what it
// keeps), and buf the response. Each user truncates what it appends to.
type scratch struct {
	body  bytes.Buffer
	pairs [][2]int64
	edges []parconn.Edge
	buf   []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// put returns sc to the pool unless a large batch grew one of its buffers
// past 64 KiB, so that one 4 MiB body does not stay pinned.
func (sc *scratch) put() {
	if max(sc.body.Cap(), cap(sc.pairs)*16, cap(sc.edges)*8, cap(sc.buf)) <= 64<<10 {
		scratchPool.Put(sc)
	}
}

// readPairs reads the body of r, capped at 4 MiB, into sc.pairs and checks
// it in order: 400 for a read error or a body outside the pair grammar,
// 413 for more than MaxBatch pairs, 404 for the first pair with an id
// outside [0, n). item names a pair in the error bodies.
func (s *Server) readPairs(w http.ResponseWriter, r *http.Request, sc *scratch, n int64, item string) bool {
	sc.body.Reset()
	_, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, 1<<22))
	if err == nil {
		sc.pairs, err = parsePairs(sc.pairs[:0], sc.body.Bytes())
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "body: want JSON [[u,v],...]: %v", err)
		return false
	}
	if len(sc.pairs) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d %ss exceeds limit %d", len(sc.pairs), item, s.cfg.MaxBatch)
		return false
	}
	annotateBatch(r.Context(), len(sc.pairs))
	for i, p := range sc.pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			writeError(w, http.StatusNotFound, "%s %d: vertex outside [0, %d)", item, i, n)
			return false
		}
	}
	return true
}

// parsePairs appends the pairs of the body b to pairs. b must match
//
//	ws '[' ws ( pair ( ws ',' ws pair )* )? ws ']' ws EOF
//	pair = '[' ws int ws ',' ws int ws ']'
//
// with ws JSON whitespace and int a JSON integer, -?(0|[1-9][0-9]*), that
// fits in an int64. Anything else is an error naming the offset where b
// leaves the grammar.
func parsePairs(pairs [][2]int64, b []byte) ([][2]int64, error) {
	s := pairScanner{b: b}
	ok := s.skip('[')
	for first := true; ok && !s.skip(']'); first = false {
		var u, v int64
		ok = (first || s.skip(',')) && s.skip('[') && s.int(&u) && s.skip(',') && s.int(&v) && s.skip(']')
		if ok {
			pairs = append(pairs, [2]int64{u, v})
		}
	}
	if s.ws(); !ok || s.i != len(b) {
		return pairs, fmt.Errorf("syntax error at offset %d", s.i)
	}
	return pairs, nil
}

// pairScanner walks a body left to right; i is the next unread byte.
type pairScanner struct {
	b []byte
	i int
}

func (s *pairScanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// skip consumes whitespace and then c, reporting whether c was next.
func (s *pairScanner) skip(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// int consumes whitespace and a JSON integer that fits in an int64.
func (s *pairScanner) int(v *int64) bool {
	neg := s.skip('-')
	start, m := s.i, uint64(0)
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		m = m*10 + uint64(s.b[s.i]-'0') // exact up to 19 digits
	}
	n, limit := s.i-start, uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if n == 0 || n > 19 || n > 1 && s.b[start] == '0' || m > limit {
		return false // no digits, a leading zero, or outside int64
	}
	if *v = int64(m); neg {
		*v = -*v // MinInt64 negates to itself
	}
	return true
}

// writeBody answers 200 with the JSON body b in one Write.
func writeBody(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// The encoders write json.Marshal(r) plus writeJSON's '\n': the fields in
// declaration order, integers in decimal, no spaces.

func appendComponent(b []byte, r componentResponse) []byte {
	b = strconv.AppendInt(append(b, `{"v":`...), int64(r.V), 10)
	b = strconv.AppendInt(append(b, `,"component":`...), int64(r.Component), 10)
	return append(strconv.AppendInt(append(b, `,"size":`...), int64(r.Size), 10), "}\n"...)
}

func appendSame(b []byte, r sameResponse) []byte {
	b = strconv.AppendInt(append(b, `{"u":`...), int64(r.U), 10)
	b = strconv.AppendInt(append(b, `,"v":`...), int64(r.V), 10)
	return append(strconv.AppendBool(append(b, `,"same":`...), r.Same), "}\n"...)
}

// appendBatch writes the batchResponse of pairs, whose ids index labels.
func appendBatch(b []byte, pairs [][2]int64, labels []int32) []byte {
	b = strconv.AppendInt(append(b, `{"count":`...), int64(len(pairs)), 10)
	b = append(b, `,"same":[`...)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, labels[p[0]] == labels[p[1]])
	}
	return append(b, "]}\n"...)
}

func appendInsert(b []byte, r insertResponse) []byte {
	b = strconv.AppendInt(append(b, `{"inserted":`...), int64(r.Inserted), 10)
	b = strconv.AppendInt(append(b, `,"merged":`...), int64(r.Merged), 10)
	b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	return append(strconv.AppendInt(append(b, `,"components":`...), int64(r.Components), 10), "}\n"...)
}
