package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds the module-wide conservative call graph the
// interprocedural checks (hotalloc, blockingcall) consume. The graph is
// deliberately reference-based rather than call-based: any mention of a
// function value — a direct call, a method value, an argument position, a
// field read — creates an edge, because a referenced function may be
// invoked by whoever receives the value. That over-approximation is what
// lets the analysis follow this codebase's bound-closure machines: a
// literal assigned to a struct field in a constructor is linked to every
// site that reads the field, without any flow analysis.
//
// Three constructs are resolved specially:
//
//   - Function literals are their own nodes (keyed by *ast.FuncLit), so a
//     closure passed to the scheduler is analyzed in the context it runs
//     in, not the context it was written in.
//   - References to function-typed variables and struct fields resolve to
//     every literal ever assigned to that object anywhere in the module
//     (litAssigns), which covers the fnPre/fnMain/fnShortcut machine fields.
//   - Interface method calls resolve to nothing. The only interface on the
//     measured hot path is obs.Recorder, whose enabled path is explicitly
//     outside the alloc-free invariant (BenchmarkCCAllocs runs with a nil
//     Recorder) and whose closure discipline the obsrecorder check enforces
//     separately.

// funcNode identifies one function-like body: a declared function or
// method (*types.Func) or a function literal (*ast.FuncLit).
type funcNode any

// funcInfo is the per-node bookkeeping of the call graph.
type funcInfo struct {
	pass    *Pass
	name    string         // qualified name, or func@file:line for literals
	body    *ast.BlockStmt // nil for bodyless declarations
	pos     token.Pos
	lits    []*ast.FuncLit // literals nested immediately inside body
	hotRoot bool           // carries a //parconn:hotpath directive
}

// hotPathMarker marks a declared function as a root of the hot-path set:
// every function it (transitively) references is held to the
// allocation-free steady-state contract by the hotalloc check.
const hotPathMarker = "//parconn:hotpath"

// Module is the interprocedural view over one load: every function node,
// the literal-assignment map, and the inferred parallel-context and
// hot-path sets. LoadModule and LoadFixture attach one to each Pass.
type Module struct {
	nodes      map[funcNode]*funcInfo
	litAssigns map[*types.Var][]*ast.FuncLit

	// hot maps every hot-path node to a short provenance string; par does
	// the same for the parallel-context set. See context.go.
	hot map[funcNode]string
	par map[funcNode]string
}

// nodeOf resolves a declaration or literal to its node key, or nil.
func (m *Module) nodeOf(pass *Pass, n ast.Node) funcNode {
	switch x := n.(type) {
	case *ast.FuncDecl:
		if fn, ok := pass.Info.Defs[x.Name].(*types.Func); ok {
			return fn
		}
	case *ast.FuncLit:
		return x
	}
	return nil
}

// collectModule builds the node set and literal-assignment map over every
// pass. The context sets are inferred afterwards (buildModule).
func collectModule(passes []*Pass) *Module {
	m := &Module{
		nodes:      make(map[funcNode]*funcInfo),
		litAssigns: make(map[*types.Var][]*ast.FuncLit),
	}
	for _, pass := range passes {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pass.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					info := &funcInfo{
						pass:    pass,
						name:    fn.FullName(),
						body:    d.Body,
						pos:     d.Pos(),
						hotRoot: hasHotPathMarker(d),
					}
					m.nodes[fn] = info
					if d.Body != nil {
						m.collectLits(pass, info, d.Body)
					}
				case *ast.GenDecl:
					// Package-level literals (var fn = func() {...}) become
					// nodes too; they are reached through litAssigns.
					ast.Inspect(d, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							m.addLit(pass, lit)
							return false
						}
						return true
					})
				}
			}
			m.collectAssigns(pass, file)
		}
	}
	return m
}

// collectLits registers every literal immediately nested in body as a node
// and a lexical child of parent, recursing for deeper literals.
func (m *Module) collectLits(pass *Pass, parent *funcInfo, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			parent.lits = append(parent.lits, lit)
			m.addLit(pass, lit)
			return false // the recursive addLit walk owns the subtree
		}
		return true
	})
}

// addLit registers one literal node (idempotent) and its nested literals.
func (m *Module) addLit(pass *Pass, lit *ast.FuncLit) {
	if _, ok := m.nodes[lit]; ok {
		return
	}
	pos := pass.Fset.Position(lit.Pos())
	info := &funcInfo{
		pass: pass,
		name: fmt.Sprintf("func@%s:%d", trimModulePath(pos.Filename), pos.Line),
		body: lit.Body,
		pos:  lit.Pos(),
	}
	m.nodes[lit] = info
	m.collectLits(pass, info, lit.Body)
}

// trimModulePath shortens an absolute filename to its last three path
// segments for stable, readable node names.
func trimModulePath(filename string) string {
	parts := strings.Split(filename, "/")
	if len(parts) > 3 {
		parts = parts[len(parts)-3:]
	}
	return strings.Join(parts, "/")
}

// collectAssigns records every assignment of a function literal to a named
// object — variable assignments and definitions, var declarations, and
// struct composite-literal fields — so references to the object can be
// resolved back to the literals it may hold.
func (m *Module) collectAssigns(pass *Pass, file *ast.File) {
	record := func(obj types.Object, rhs ast.Expr) {
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		if lit, isLit := unparen(rhs).(*ast.FuncLit); isLit {
			m.litAssigns[v] = append(m.litAssigns[v], lit)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				record(assignTarget(pass.Info, lhs), x.Rhs[i])
			}
		case *ast.ValueSpec:
			if len(x.Names) != len(x.Values) {
				return true
			}
			for i, name := range x.Names {
				record(pass.Info.Defs[name], x.Values[i])
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					record(pass.Info.Uses[key], kv.Value)
				}
			}
		}
		return true
	})
}

// assignTarget resolves the object an assignment's left-hand side denotes:
// a plain identifier (local, global) or a struct field selector.
func assignTarget(info *types.Info, lhs ast.Expr) types.Object {
	switch x := unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Defs[x]; obj != nil {
			return obj
		}
		return info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	}
	return nil
}

// hasHotPathMarker reports whether decl's doc comment (or a comment ending
// directly above it) carries the //parconn:hotpath directive.
func hasHotPathMarker(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, hotPathMarker)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// refs invokes visit for every node referenced from n's body: direct
// calls, function values in any position, and (via litAssigns) literals
// bound to referenced function-typed variables or fields. Nested literal
// bodies are skipped — they are their own nodes, reached lexically. When
// skipGo is set, references inside go statements are ignored: a spawned
// goroutine is not part of the referencing goroutine's synchronous
// (wait-free-relevant) call chain, though it is part of its work.
func (m *Module) refs(n funcNode, skipGo bool, visit func(funcNode)) {
	info := m.nodes[n]
	if info == nil || info.body == nil {
		return
	}
	pass := info.pass
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch y := x.(type) {
			case *ast.FuncLit:
				if root == y {
					return true
				}
				return false
			case *ast.GoStmt:
				if skipGo {
					return false
				}
			case *ast.Ident:
				switch obj := pass.Info.Uses[y].(type) {
				case *types.Func:
					if _, ok := m.nodes[obj]; ok {
						visit(obj)
					}
				case *types.Var:
					if _, ok := obj.Type().Underlying().(*types.Signature); ok {
						for _, lit := range m.litAssigns[obj] {
							visit(lit)
						}
					}
				}
			}
			return true
		})
	}
	walk(info.body)
}
