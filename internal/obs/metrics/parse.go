package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseText reads a Prometheus text exposition back into a flat
// series-to-value map, keyed exactly as written ("name" or
// `name{label="value",...}`). Comment and blank lines are skipped; a
// malformed sample line is an error. It is the inverse this package's
// WriteText needs for self-checks and the metrics-smoke CI lane — not a
// full openmetrics parser (no timestamps, no exemplars).
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The series key may contain spaces inside quoted label values, so
		// split at the last space instead of the first.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return out, fmt.Errorf("metrics: line %d: no value on sample line %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:sp])
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return out, fmt.Errorf("metrics: line %d: bad value in %q: %v", lineNo, line, err)
		}
		if key == "" {
			return out, fmt.Errorf("metrics: line %d: empty series key", lineNo)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("metrics: line %d: %w", lineNo+1, err)
	}
	return out, nil
}

// Series renders the lookup key of (name, labels) as ParseText produces it,
// so scrapers can query the map without string-formatting by hand:
// Series("parconn_http_requests_total", L("endpoint", "same")).
func Series(name string, ls Labels) string {
	rendered := ls.render()
	if rendered == "" {
		return name
	}
	return name + "{" + rendered + "}"
}
