package analysis

import (
	"go/ast"
	"go/types"
)

// obsRecorder flags observability emission from inside a parallel section,
// in three forms:
//
//   - a call to one of the obs.Recorder methods in a closure passed to the
//     parallel package's fork-join entry points. The Recorder contract is
//     coordinator-only delivery — sinks (Trace, JSONLWriter) serialize on
//     one mutex, so per-element calls from workers would both race on event
//     order and turn the instrumented hot loop into a lock convoy.
//   - a call to obs.SpanRecorder's Span method. Spans are request-plane
//     events emitted once per sampled HTTP request by the serve middleware;
//     a span from inside a worker would interleave with the request's own
//     span and serialize workers on the sink mutex.
//   - a metrics.Registry registration call (Counter, Gauge, *Func,
//     HistogramNS). Registration takes the registry mutex and is meant for
//     setup; workers update the returned or registered handles
//     (Counter.Add, Gauge.Set, obs.Histogram.Record), which are wait-free.
//
// Parallel code buffers measurements in block-local scalars, flushes them
// into an obs.ShardedInt64 or a pre-registered handle, and lets the
// coordinating goroutine emit events between sections.
type obsRecorder struct{}

func (obsRecorder) Name() string { return "obsrecorder" }

// obsPkgPath is the import path of the observability package;
// metricsPkgPath its metrics-registry subpackage.
const (
	obsPkgPath     = "parconn/internal/obs"
	metricsPkgPath = "parconn/internal/obs/metrics"
)

// recorderMethods is the method set of obs.Recorder.
var recorderMethods = map[string]bool{
	"RunStart": true, "RunEnd": true, "LevelStart": true, "LevelEnd": true,
	"Round": true, "Phase": true, "Counter": true,
}

// registryMutators is the registration method set of metrics.Registry —
// the calls that mutate the registry under its mutex. Handle updates
// (Counter.Add, Gauge.Set) and the read side (WriteText, Handler) are
// deliberately absent: they are safe from any goroutine.
var registryMutators = map[string]bool{
	"Counter": true, "Gauge": true, "GaugeFunc": true, "CounterFunc": true,
	"HistogramNS": true, "HistogramFunc": true,
}

func (obsRecorder) Run(pass *Pass) []Finding {
	rec := obsInterface(pass.Pkg, "Recorder")
	spanRec := obsInterface(pass.Pkg, "SpanRecorder")
	if rec == nil && spanRec == nil && !importsMetrics(pass.Pkg) {
		return nil // package never touches the observability layer
	}
	var out []Finding
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParallelEntry(pass.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := unparen(arg).(*ast.FuncLit); ok {
					out = append(out, checkObsCalls(pass, rec, spanRec, lit)...)
				}
			}
			return true
		})
	}
	return out
}

// obsInterface resolves the named obs interface type (Recorder,
// SpanRecorder) as seen by pkg, or nil when pkg neither is nor imports the
// obs package.
func obsInterface(pkg *types.Package, name string) *types.Interface {
	lookup := func(p *types.Package) *types.Interface {
		obj := p.Scope().Lookup(name)
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	if pkg.Path() == obsPkgPath {
		return lookup(pkg)
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == obsPkgPath {
			return lookup(imp)
		}
	}
	return nil
}

// importsMetrics reports whether pkg is or directly imports the metrics
// registry package.
func importsMetrics(pkg *types.Package) bool {
	if pkg.Path() == metricsPkgPath {
		return true
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == metricsPkgPath {
			return true
		}
	}
	return false
}

// isMetricsRegistry reports whether t (possibly behind a pointer) is the
// metrics.Registry named type.
func isMetricsRegistry(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == metricsPkgPath && named.Obj().Name() == "Registry"
}

// checkObsCalls walks one parallel closure body for calls to Recorder
// methods on any value whose static type satisfies obs.Recorder (the
// interface itself or a concrete sink), Span calls on obs.SpanRecorder
// implementors, and metrics.Registry registration calls.
func checkObsCalls(pass *Pass, rec, spanRec *types.Interface, lit *ast.FuncLit) []Finding {
	var out []Finding
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if !recorderMethods[name] && !registryMutators[name] && name != "Span" {
			return true
		}
		if _, isMethod := pass.Info.Selections[sel]; !isMethod {
			return true // package-qualified function, not a method call
		}
		t := pass.Info.Types[sel.X].Type
		if t == nil {
			return true
		}
		switch {
		// Registry first: "Counter"/"Gauge" collide with recorderMethods
		// names, and the receiver type is what disambiguates them.
		case registryMutators[name] && isMetricsRegistry(t):
			out = append(out, pass.finding(call.Pos(), "obsrecorder",
				"metrics.Registry.%s called from inside a parallel closure; registration mutates the registry under its mutex — register series during setup and have workers update the returned handle (Counter.Add, Gauge.Set are wait-free)", name))
		case name == "Span" && spanRec != nil &&
			(types.Implements(t, spanRec) || types.Implements(types.NewPointer(t), spanRec)):
			out = append(out, pass.finding(call.Pos(), "obsrecorder",
				"obs.SpanRecorder Span called from inside a parallel closure; spans are per-request events emitted by the serve middleware on the coordinator — never from workers"))
		case recorderMethods[name] && rec != nil &&
			(types.Implements(t, rec) || types.Implements(types.NewPointer(t), rec)):
			out = append(out, pass.finding(call.Pos(), "obsrecorder",
				"obs.Recorder method %s called from inside a parallel closure; accumulate into a block-local counter, flush through obs.ShardedInt64, and emit the event from the coordinator between sections", name))
		}
		return true
	})
	return out
}
