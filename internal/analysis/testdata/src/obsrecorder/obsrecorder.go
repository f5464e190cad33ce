// Package obsrecorder is a parconnvet test fixture: every line carrying a
// `want` comment must be flagged by the obsrecorder check, every other line
// must stay clean.
package obsrecorder

import (
	"parconn/internal/obs"
	"parconn/internal/obs/metrics"
	"parconn/internal/parallel"
)

// pool stands for the run's worker pool: the fixture is type-checked and
// analyzed, never run.
var pool *parallel.Pool

func racyInterfaceEmit(rec obs.Recorder, xs []int) {
	pool.For(0, len(xs), func(i int) {
		rec.Counter(obs.Counter{Name: "cas", Value: 1}) // want "Counter"
	})
}

func racyConcreteSink(tr *obs.Trace, xs []int) {
	pool.Blocks(0, len(xs), 0, func(lo, hi int) {
		tr.Round(obs.Round{Round: lo}) // want "Round"
	})
}

func racyNestedClosure(rec obs.Recorder, xs []int) {
	pool.For(0, len(xs), func(i int) {
		emit := func() {
			rec.Phase(obs.Phase{Name: "init"}) // want "Phase"
		}
		emit()
	})
}

func okCoordinatorEmit(rec obs.Recorder, xs []int) {
	retries := obs.NewShardedInt64(8)
	pool.Blocks(0, len(xs), 0, func(lo, hi int) {
		casFail := int64(0)
		for i := lo; i < hi; i++ {
			casFail++
		}
		retries.Add(lo, casFail) // ok: buffered per-worker path
	})
	rec.Counter(obs.Counter{Name: "cas", Value: retries.Sum()}) // ok: coordinator, between sections
}

func racyFlightRecorder(fr *obs.FlightRecorder, xs []int) {
	pool.For(0, len(xs), func(i int) {
		fr.Round(obs.Round{Round: i}) // want "Round"
	})
}

func racyJSONLWriterPhase(w *obs.JSONLWriter, xs []int) {
	pool.Blocks(0, len(xs), 0, func(lo, hi int) {
		w.Phase(obs.Phase{Name: "init"}) // want "Phase"
	})
}

func racyEngineRecorder(er *metrics.EngineRecorder, xs []int) {
	pool.For(0, len(xs), func(i int) {
		er.Phase(obs.Phase{Name: "init"}) // want "Phase"
	})
}

func okHistogramFromWorkers(xs []int) {
	// A bare Histogram is not a Recorder: its Record path is atomic and
	// explicitly safe to call from inside parallel sections.
	var h obs.Histogram
	pool.For(0, len(xs), func(i int) {
		h.Record(int64(xs[i])) // ok: wait-free atomic sink
	})
	_ = h.Count()
}

func okUnrelatedMethod(xs []int) {
	var c counterish
	pool.For(0, len(xs), func(i int) {
		c.Round(i) // ok: not an obs.Recorder
	})
	_ = c
}

type counterish struct{ n int }

func (c *counterish) Round(int) {}

func racySpanEmit(sr obs.SpanRecorder, xs []int) {
	pool.For(0, len(xs), func(i int) {
		sr.Span(obs.Span{Endpoint: "component"}) // want "Span"
	})
}

func racySpanConcreteSink(w *obs.JSONLWriter, xs []int) {
	pool.Blocks(0, len(xs), 0, func(lo, hi int) {
		w.Span(obs.Span{Endpoint: "batch", Batch: hi - lo}) // want "Span"
	})
}

func okSpanFromCoordinator(sr obs.SpanRecorder, xs []int) {
	pool.For(0, len(xs), func(i int) {
		_ = xs[i]
	})
	sr.Span(obs.Span{Endpoint: "component"}) // ok: coordinator, between sections
}

func racyRegistryRegister(reg *metrics.Registry, xs []int) {
	pool.For(0, len(xs), func(i int) {
		reg.Counter("parconn_worker_ops_total", "per-worker ops", nil).Inc() // want "Counter"
	})
}

func racyRegistryHistogramRegister(reg *metrics.Registry, h *obs.Histogram, xs []int) {
	pool.Blocks(0, len(xs), 0, func(lo, hi int) {
		reg.HistogramNS("parconn_worker_latency_seconds", "latency", nil, h) // want "HistogramNS"
	})
}

func okMetricHandlesFromWorkers(reg *metrics.Registry, xs []int) {
	ops := reg.Counter("parconn_worker_ops_total", "per-worker ops", nil)
	depth := reg.Gauge("parconn_worker_depth", "queue depth", nil)
	latency := &obs.Histogram{}
	reg.HistogramNS("parconn_worker_latency_seconds", "latency", nil, latency)
	pool.For(0, len(xs), func(i int) {
		ops.Inc()                    // ok: handle update is wait-free
		depth.Set(float64(xs[i]))    // ok: handle update is wait-free
		latency.Record(int64(xs[i])) // ok: histogram records are wait-free
	})
}
