// Request-plane observability for the serve package: per-request trace IDs,
// an error taxonomy as labeled counters, latency histograms, and
// head-sampled request spans. All of it hangs off an Observer so the plain
// Server keeps working with zero observability dependencies — attach one via
// Config.Observer to light it up.

package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"parconn/internal/obs"
	"parconn/internal/obs/metrics"
	"parconn/internal/prand"
)

// TraceHeader is the request/response header carrying the request trace ID.
// Clients may supply their own (any non-empty value up to maxTraceIDLen
// bytes is accepted verbatim); the server generates one otherwise, and
// always echoes the effective ID on the response so either side can grep
// sampled span logs for it.
const TraceHeader = "Parconn-Trace-Id"

// maxTraceIDLen caps accepted client trace IDs so a hostile header cannot
// bloat span logs.
const maxTraceIDLen = 128

// Error-taxonomy classes of parconn_http_errors_total. Specific service
// states get their own class (a load balancer retrying a not_ready 503 is
// routine; a burst of plain 5xx is a bug), the rest roll up by status
// family.
const (
	errClass4xx      = "4xx"
	errClass5xx      = "5xx"
	errClassNotReady = "not_ready" // 503: labeling not yet published
	errClassReadOnly = "read_only" // 501: insert without an incremental layer
)

var errClasses = []string{errClass4xx, errClass5xx, errClassNotReady, errClassReadOnly}

// observedEndpoints are the latency-timed endpoints the Observer
// pre-registers series for; healthz is deliberately absent (load balancers
// poll it, and it carries no request-plane signal).
var observedEndpoints = []string{
	EndpointComponent, EndpointSame, EndpointBatch, EndpointInsert, EndpointStats,
}

// ObserverConfig parameterizes NewObserver.
type ObserverConfig struct {
	// Metrics receives the request-plane series. Required.
	Metrics *metrics.Registry
	// Spans receives head-sampled request spans; nil disables sampling.
	Spans obs.SpanRecorder
	// SampleEvery emits one span per N requests per endpoint (head
	// sampling: the decision is made before the handler runs, so sampled
	// requests form an unbiased 1-in-N slice of arrivals). 0 disables
	// sampling even when Spans is set.
	SampleEvery int
}

// Observer instruments Server request handling. One Observer belongs to one
// Server (attach via Config.Observer); all its paths are wait-free after
// construction, so instrumented handlers never serialize on it.
type Observer struct {
	spans       obs.SpanRecorder
	sampleEvery uint64
	seq         atomic.Uint64 // request arrivals; drives sampling + trace IDs
	traceSeed   uint64

	reg      *metrics.Registry
	requests map[string]*metrics.Counter            // endpoint -> arrivals
	errors   map[string]map[string]*metrics.Counter // endpoint -> class -> count
	latency  map[string]*obs.Histogram              // endpoint -> latency since start, ns
	sampled  *metrics.Counter
	inflight *metrics.Gauge
}

// NewObserver builds an Observer and pre-registers every request-plane
// series (all endpoints and error classes appear in /metrics at zero from
// the first scrape, so dashboards never key-miss):
//
//	parconn_http_requests_total{endpoint}            arrivals
//	parconn_http_errors_total{endpoint,class}        non-2xx answers by taxonomy
//	parconn_http_request_duration_seconds{endpoint}  latency histogram since
//	                                                 process start
//	parconn_http_inflight_requests                   currently executing
//	parconn_http_spans_sampled_total                 spans emitted
//
// The latency histogram is cumulative; latency over a recent interval
// ("P99 over the last minute") is the difference of two scrapes of its
// _bucket and _count series, which is how a Prometheus rate() reads it.
func NewObserver(cfg ObserverConfig) *Observer {
	if cfg.Metrics == nil {
		panic("serve: ObserverConfig.Metrics is required")
	}
	o := &Observer{
		spans:    cfg.Spans,
		reg:      cfg.Metrics,
		requests: make(map[string]*metrics.Counter, len(observedEndpoints)),
		errors:   make(map[string]map[string]*metrics.Counter, len(observedEndpoints)),
		latency:  make(map[string]*obs.Histogram, len(observedEndpoints)),
	}
	if cfg.Spans != nil && cfg.SampleEvery > 0 {
		o.sampleEvery = uint64(cfg.SampleEvery)
	}
	o.traceSeed = prand.Hash64(uint64(time.Now().UnixNano())) //parconn:allow norand trace-ID uniqueness seed; not algorithmic randomness
	for _, ep := range observedEndpoints {
		o.requests[ep] = cfg.Metrics.Counter("parconn_http_requests_total",
			"HTTP requests received, by endpoint.", metrics.L("endpoint", ep))
		byClass := make(map[string]*metrics.Counter, len(errClasses))
		for _, class := range errClasses {
			byClass[class] = cfg.Metrics.Counter("parconn_http_errors_total",
				"Non-2xx HTTP answers, by endpoint and error class.",
				metrics.L("endpoint", ep, "class", class))
		}
		o.errors[ep] = byClass
		h := &obs.Histogram{}
		o.latency[ep] = h
		cfg.Metrics.HistogramNS("parconn_http_request_duration_seconds",
			"Request latency since process start.", metrics.L("endpoint", ep), h)
	}
	o.inflight = cfg.Metrics.Gauge("parconn_http_inflight_requests",
		"Requests currently executing.", nil)
	o.sampled = cfg.Metrics.Counter("parconn_http_spans_sampled_total",
		"Request spans emitted by head sampling.", nil)
	return o
}

// bind registers the server-state series that need the Server itself, the
// readiness and epoch gauges, in the Observer's registry. Called once from
// New.
func (o *Observer) bind(s *Server) {
	o.reg.GaugeFunc("parconn_ready", "1 once a labeling is published.", nil, func() float64 {
		if s.Ready() {
			return 1
		}
		return 0
	})
	o.reg.GaugeFunc("parconn_published_epoch",
		"Incremental generation of the published labeling (0 = initial).", nil, func() float64 {
			p := s.pub.Load()
			if p == nil {
				return 0
			}
			return float64(p.epoch)
		})
}

// spanInfo rides the request context so handlers can annotate the span the
// middleware will emit. Only sampled requests carry one; annotation helpers
// no-op otherwise, keeping the unsampled fast path allocation-free.
type spanInfo struct {
	batch int
	epoch uint64
}

type spanInfoKey struct{}

// annotateBatch records the decoded batch size on the request's span, if
// this request is being sampled.
func annotateBatch(ctx context.Context, n int) {
	if si, ok := ctx.Value(spanInfoKey{}).(*spanInfo); ok {
		si.batch = n
	}
}

// annotateEpoch records the epoch an insert published on the request's
// span, if this request is being sampled.
func annotateEpoch(ctx context.Context, epoch uint64) {
	if si, ok := ctx.Value(spanInfoKey{}).(*spanInfo); ok {
		si.epoch = epoch
	}
}

// statusWriter captures the response status for taxonomy counting and span
// emission. WriteHeader-less success paths count as 200, matching net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// classify maps a response status to its error-taxonomy class ("" for
// non-errors).
func classify(status int) string {
	switch {
	case status == http.StatusServiceUnavailable:
		return errClassNotReady
	case status == http.StatusNotImplemented:
		return errClassReadOnly
	case status >= 500:
		return errClass5xx
	case status >= 400:
		return errClass4xx
	default:
		return ""
	}
}

// traceID returns the effective trace ID of a request: the client's header
// when present (truncated to maxTraceIDLen), a generated 16-hex-digit ID
// otherwise. seq keeps generated IDs unique within the process; the
// hashed start-time seed keeps them distinct across restarts.
func (o *Observer) traceID(r *http.Request, seq uint64) string {
	if id := r.Header.Get(TraceHeader); id != "" {
		if len(id) > maxTraceIDLen {
			id = id[:maxTraceIDLen]
		}
		return id
	}
	return fmt.Sprintf("%016x", prand.Hash64(o.traceSeed^seq))
}

// observe is the request middleware: counts the arrival, stamps the trace
// ID, runs the handler with a status-capturing writer, then records
// latency, taxonomy errors, and — for head-sampled
// requests — a span through the obs sink.
func (o *Observer) observe(endpoint string, h http.HandlerFunc, w http.ResponseWriter, r *http.Request) {
	seq := o.seq.Add(1)
	o.requests[endpoint].Inc()
	o.inflight.Add(1)
	defer o.inflight.Add(-1)

	id := o.traceID(r, seq)
	w.Header().Set(TraceHeader, id)

	var si *spanInfo
	if o.sampleEvery > 0 && seq%o.sampleEvery == 0 {
		si = &spanInfo{}
		r = r.WithContext(context.WithValue(r.Context(), spanInfoKey{}, si))
	}

	sw := &statusWriter{ResponseWriter: w}
	start := time.Now() //parconn:allow norand request-latency stopwatch; no algorithmic randomness
	h(sw, r)
	dur := time.Since(start)

	o.latency[endpoint].Record(dur.Nanoseconds())
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	if class := classify(status); class != "" {
		o.errors[endpoint][class].Inc()
	}
	if si != nil {
		o.sampled.Inc()
		o.spans.Span(obs.Span{
			TraceID:  id,
			Endpoint: endpoint,
			Status:   status,
			Duration: dur,
			Batch:    si.batch,
			Epoch:    si.epoch,
		})
	}
}
