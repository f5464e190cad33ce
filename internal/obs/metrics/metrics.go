// Package metrics is the request-plane metrics layer of the observability
// stack: a zero-dependency registry of counters, gauges, and histogram
// views with Prometheus text exposition, built for the serving path
// (internal/serve, cmd/connserve) and inherited by anything else that wants
// a /metrics endpoint (cmd/connect, cmd/bench via obshttp).
//
// Design constraints, in order:
//
//   - Recording must be wait-free. Counters and gauges are single atomics;
//     histograms reuse obs.Histogram's wait-free record path. A request
//     goroutine never blocks on another request's measurement.
//   - Registration is locked and therefore forbidden on hot paths: register
//     once at wiring time, hold the *Counter/*Gauge, record forever. The
//     parconnvet obsrecorder check enforces that no Registry method is
//     called from inside a parallel section.
//   - Exposition is a point-in-time read of the atomics — scrapes never
//     pause recording.
//
// The exposition format is the Prometheus text format (version 0.0.4):
// `# HELP`/`# TYPE` headers per family, one `name{labels} value` line per
// series, histogram families expanded into cumulative `_bucket{le=...}`
// plus `_sum`/`_count`. ParseText reads the same format back, which is what
// the metrics-smoke CI lane builds on.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"parconn/internal/obs"
)

// Family types, as printed by `# TYPE`.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// A Counter is a monotonically non-decreasing count. The zero value is
// ready; Add and Inc are wait-free and safe from any goroutine.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a value that can go up and down. The zero value is ready;
// Set is wait-free, Add is a CAS loop.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Label is one name="value" pair attached to a series.
type Label struct {
	Key, Value string
}

// Labels is an ordered label set. Order is preserved in exposition; two
// registrations with the same pairs in a different order are different
// series (keep call sites consistent).
type Labels []Label

// L builds a label set from alternating key, value strings:
// L("endpoint", "same", "class", "4xx").
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("metrics: L with odd argument count")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// render writes the label set in exposition syntax (no braces), with the
// extra pairs appended (used for histogram le and quantile labels).
func (ls Labels) render(extra ...Label) string {
	all := append(append(make(Labels, 0, len(ls)+len(extra)), ls...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the text-format escapes for label values.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// validName reports whether s is a legal metric name ([a-zA-Z_:][a-zA-Z0-9_:]*).
func validName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

// validLabelKey reports whether s is a legal label name ([a-zA-Z_][a-zA-Z0-9_]*).
func validLabelKey(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}

// series is one exposable time series inside a family. Exactly one of the
// value sources is set.
type series struct {
	labels  string // rendered label pairs, "" for the bare series
	counter *Counter
	gauge   *Gauge
	fn      func() float64               // counter/gauge function source
	hist    func() obs.HistogramSnapshot // histogram source
	scale   float64                      // histogram sample unit -> exposed unit
}

// family is every series sharing one metric name, help string, and type.
type family struct {
	name, help, typ string
	series          map[string]*series // keyed by rendered labels
}

// Registry holds the metric families one process exposes. Registration
// locks; use the returned handles on hot paths. The zero value is not
// usable — construct with New.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register resolves (name, labels) inside the family of the given type,
// creating family and series as needed. A name reused with a different type
// or a series registered twice with conflicting sources panics: both are
// wiring bugs, not runtime conditions.
func (r *Registry) register(name, help, typ string, ls Labels) *series {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range ls {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q on %s", l.Key, name))
		}
	}
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, fam.typ, typ))
	}
	key := ls.render()
	s := fam.series[key]
	if s == nil {
		s = &series{labels: key}
		fam.series[key] = s
	}
	return s
}

// Counter returns the counter series (name, labels), creating it on first
// registration. Re-registering the same series returns the same *Counter.
func (r *Registry) Counter(name, help string, ls Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, TypeCounter, ls)
	if s.counter == nil {
		if s.fn != nil {
			panic(fmt.Sprintf("metrics: %s{%s} already registered as a function", name, s.labels))
		}
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge series (name, labels), creating it on first
// registration. Re-registering the same series returns the same *Gauge.
func (r *Registry) Gauge(name, help string, ls Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, TypeGauge, ls)
	if s.gauge == nil {
		if s.fn != nil {
			panic(fmt.Sprintf("metrics: %s{%s} already registered as a function", name, s.labels))
		}
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read by calling fn at scrape
// time (runtime stats, derived quantiles). fn must be safe for concurrent
// calls and must not block.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, TypeGauge, ls)
	if s.gauge != nil || s.fn != nil {
		panic(fmt.Sprintf("metrics: %s{%s} registered twice", name, s.labels))
	}
	s.fn = fn
}

// CounterFunc registers a counter whose value is read by calling fn at
// scrape time (process-lifetime totals owned by the runtime). fn must be
// monotonically non-decreasing, concurrency-safe, and non-blocking.
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, TypeCounter, ls)
	if s.counter != nil || s.fn != nil {
		panic(fmt.Sprintf("metrics: %s{%s} registered twice", name, s.labels))
	}
	s.fn = fn
}

// HistogramNS exposes an existing wait-free obs.Histogram of nanosecond
// samples as a Prometheus histogram in seconds. The histogram stays owned
// by the caller — recording into it is unaffected by registration.
func (r *Registry) HistogramNS(name, help string, ls Labels, h *obs.Histogram) {
	r.HistogramFunc(name, help, ls, 1e-9, h.Snapshot)
}

// HistogramFunc exposes a histogram whose snapshot is produced by fn at
// scrape time; scale converts sample units to the exposed unit (1e-9 for
// nanoseconds to seconds, 1 for dimensionless counts).
func (r *Registry) HistogramFunc(name, help string, ls Labels, scale float64, fn func() obs.HistogramSnapshot) {
	if scale <= 0 {
		panic("metrics: HistogramFunc with non-positive scale")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, TypeHistogram, ls)
	if s.hist != nil {
		panic(fmt.Sprintf("metrics: %s{%s} registered twice", name, s.labels))
	}
	s.hist = fn
	s.scale = scale
}

// exposedFamily is the lock-free view exposition iterates: family metadata
// plus its series sorted by label signature. The *series values are stable
// pointers whose atomics are read outside the lock.
type exposedFamily struct {
	name, help, typ string
	series          []*series
}

// snapshotFamilies copies the family/series structure under the lock so
// exposition can read values outside it. The handles inside series are
// stable pointers; only the maps need the lock.
func (r *Registry) snapshotFamilies() []exposedFamily {
	r.mu.Lock()
	fams := make([]exposedFamily, 0, len(r.families))
	for _, f := range r.families {
		ef := exposedFamily{name: f.name, help: f.help, typ: f.typ,
			series: make([]*series, 0, len(f.series))}
		for _, s := range f.series {
			ef.series = append(ef.series, s)
		}
		sort.Slice(ef.series, func(i, j int) bool { return ef.series[i].labels < ef.series[j].labels })
		fams = append(fams, ef)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
