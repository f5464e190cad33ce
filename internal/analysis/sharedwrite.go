package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// sharedWrite flags the canonical fork-join data race: a closure passed to
// one of the parallel package's entry points (For, ForGrain, Blocks,
// WorkerBlocks) writing to a variable captured from the enclosing
// scope. A write is allowed when its destination is indexed by a value
// derived inside the closure (each worker then owns disjoint slots: out[i],
// partial[worker], nxt[v]) or when the index is reserved atomically
// (nxt[cursor.Add(1)-1]). Everything else — accumulating into a captured
// scalar, writing a fixed index, storing through a captured pointer — races
// with the sibling workers.
//
// A builtin copy into a captured slice writes a whole range, so it is held
// to a stricter rule: the lower bound of the destination must come from the
// closure's own parameters (the block range copy(dst[lo:hi], ...) or a
// worker-indexed offset) or from an atomic Add in the closure — the staged
// batch flush end := cursor.Add(k); copy(nxt[end-k:end], buf[:k]). A bound
// computed from any other closure-local, such as the batch length itself,
// is the same offset in every worker.
type sharedWrite struct{}

func (sharedWrite) Name() string { return "sharedwrite" }

// parallelEntryPoints are the fork-join entry points whose function-typed
// arguments run concurrently.
var parallelEntryPoints = map[string]bool{
	"For": true, "ForGrain": true, "Blocks": true, "WorkerBlocks": true,
}

// parallelPkgPath is the import path of the fork-join package.
const parallelPkgPath = "parconn/internal/parallel"

func (sharedWrite) Run(pass *Pass) []Finding {
	var out []Finding
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParallelEntry(pass.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := unparen(arg).(*ast.FuncLit); ok {
					out = append(out, checkClosure(pass, lit)...)
				}
			}
			return true
		})
	}
	return out
}

// isParallelEntry reports whether call invokes one of the fork-join entry
// points: a Pool method (pool.For), the default-pool Blocks through the
// package qualifier, or either unqualified from inside the package itself.
func isParallelEntry(info *types.Info, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == parallelPkgPath &&
		parallelEntryPoints[fn.Name()]
}

// checkClosure walks one parallel closure body for writes to captured
// state. "Inside" is judged by declaration position: parameters, locals,
// and nested-closure locals all count as closure-owned.
func checkClosure(pass *Pass, lit *ast.FuncLit) []Finding {
	inside := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}
	// derivedInside reports whether e mentions a closure-local object or an
	// atomic call — either makes an index expression worker-private.
	derivedInside := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if inside(pass.Info.Uses[x]) {
					found = true
				}
			case *ast.CallExpr:
				if atomicCall(pass.Info, x) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	reserved := reservedOffset(pass.Info, lit)
	var out []Finding
	checkTarget := func(pos token.Pos, target ast.Expr, what string) {
		target = unparen(target)
		if idx, ok := target.(*ast.IndexExpr); ok {
			if obj := rootObject(pass.Info, idx.X); inside(obj) {
				return
			}
			if derivedInside(idx.Index) {
				return
			}
			obj := rootObject(pass.Info, idx.X)
			name := "captured variable"
			if obj != nil {
				name = obj.Name()
			}
			out = append(out, pass.finding(pos, "sharedwrite",
				"%s to captured %s at an index not derived inside the parallel closure; concurrent workers race on the same slot", what, name))
			return
		}
		if slice, ok := target.(*ast.SliceExpr); ok {
			// copy(dst[lo:hi], ...) style: worker-private iff the range
			// starts at a per-worker offset (see the type comment).
			obj := rootObject(pass.Info, slice.X)
			if inside(obj) || (slice.Low != nil && reserved(slice.Low)) {
				return
			}
			name := "captured variable"
			if obj != nil {
				name = obj.Name()
			}
			out = append(out, pass.finding(pos, "sharedwrite",
				"%s to captured %s at an offset that neither the closure's parameters nor an atomic Add reserve; concurrent workers overwrite the same range", what, name))
			return
		}
		obj := rootObject(pass.Info, target)
		if inside(obj) {
			return
		}
		name := "captured variable"
		if obj != nil {
			name = obj.Name()
		}
		out = append(out, pass.finding(pos, "sharedwrite",
			"%s to captured %s inside a parallel closure; use an atomic, a worker-indexed slot, or a reduction", what, name))
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true // := declares closure-locals
			}
			for _, lhs := range x.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				checkTarget(lhs.Pos(), lhs, "write")
			}
		case *ast.IncDecStmt:
			checkTarget(x.Pos(), x.X, "write")
		case *ast.CallExpr:
			// The copy builtin writes through its first argument.
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "copy" && len(x.Args) == 2 {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					checkTarget(x.Args[0].Pos(), x.Args[0], "copy")
				}
			}
		}
		return true
	})
	return out
}

// reservedOffset returns a predicate reporting whether an offset expression
// inside lit is private to one worker: it is computed, through arithmetic,
// indexing, conversions and closure-local variables, from one of lit's
// parameters or from the result of an atomic Add. Other calls (len, copy,
// atomic loads) and captured variables end the derivation.
func reservedOffset(info *types.Info, lit *ast.FuncLit) func(ast.Expr) bool {
	params := make(map[types.Object]bool)
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			params[info.Defs[name]] = true
		}
	}
	// defs collects the expressions assigned to each closure-local.
	defs := make(map[types.Object][]ast.Expr)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					if obj := rootObject(info, id); obj != nil {
						defs[obj] = append(defs[obj], x.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) {
					defs[info.Defs[name]] = append(defs[info.Defs[name]], x.Values[i])
				}
			}
		}
		return true
	})
	visiting := make(map[types.Object]bool)
	var reserved func(ast.Expr) bool
	reserved = func(e ast.Expr) bool {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if params[obj] {
				return true
			}
			if visiting[obj] {
				return false
			}
			visiting[obj] = true
			defer delete(visiting, obj)
			for _, d := range defs[obj] {
				if reserved(d) {
					return true
				}
			}
		case *ast.BinaryExpr:
			return reserved(x.X) || reserved(x.Y)
		case *ast.UnaryExpr:
			return reserved(x.X)
		case *ast.IndexExpr:
			return reserved(x.Index)
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				return reserved(x.Args[0]) // conversion
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && atomicCall(info, x) {
				return strings.HasPrefix(sel.Sel.Name, "Add")
			}
		}
		return false
	}
	return reserved
}
