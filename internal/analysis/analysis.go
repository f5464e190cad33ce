// Package analysis implements parconnvet, the repo's concurrency-safety
// static analyzer: a set of parconn-specific checks over the type-checked
// module, built only on the standard library's go/ast, go/parser, go/types,
// and go/importer.
//
// Checks:
//
//	mixedatomic     an object accessed through sync/atomic anywhere must be
//	                accessed atomically everywhere in the package
//	sharedwrite     closures passed to the Pool methods For/ForGrain/Blocks/
//	                WorkerBlocks must not write captured variables unless
//	                the write is atomic or indexed by a closure-local value;
//	                a copy into a captured slice must start at an offset from
//	                the closure's parameters or an atomic Add reservation
//	norand          library packages may not import math/rand or call
//	                time.Now; randomness comes from internal/prand and
//	                injected seeds
//	conversioncheck count-like int/int64 expressions must not be narrowed to
//	                int32 without an explicit bounds check
//	obsrecorder     obs.Recorder methods, obs.SpanRecorder span emission,
//	                and metrics.Registry registration must not happen inside
//	                closures passed to the parallel entry points; parallel
//	                code buffers per-worker measurements (obs.ShardedInt64,
//	                pre-registered metric handles) and the coordinator emits
//	                events between sections
//	hotalloc        functions reachable from a //parconn:hotpath root must
//	                not contain allocating constructs (make, append, ...)
//	blockingcall    functions reachable from a parallel entry-point closure
//	                must not block (channels, mutexes, IO, time.Sleep)
//	scratchlifetime workspace.Arena buffers must not escape their acquiring
//	                function (field stores, pointer stores, returns)
//
// The first five checks are per-file AST checks; the last three are
// interprocedural, consuming the module-wide call graph and the inferred
// parallel-context and hot-path sets (callgraph.go, context.go) attached
// to each Pass by LoadModule and LoadFixture.
//
// Findings print as "file:line:col: [check] message". Intentional idioms
// (e.g. Decomp-Arb's phase-separated plain reads) are suppressed with
//
//	//parconn:allow <check>[,<check>...] <reason>
//
// placed on the flagged line or the line directly above it; a comment
// directly above a function declaration covers the whole declaration. The
// reason is mandatory; a missing reason or unknown check name is itself
// reported, and a suppression that matches no finding is reported stale
// (UnusedAllows).
//
// The per-file checks are intraprocedural: an object that escapes to
// another function under a different name (slice aliasing,
// address-taking) is tracked per declaration, not per memory region.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Finding is one diagnostic produced by a check.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// An Analyzer inspects one type-checked package.
type Analyzer interface {
	Name() string
	Run(pass *Pass) []Finding
}

// Pass bundles one type-checked package for the analyzers.
type Pass struct {
	Path    string // import path
	Library bool   // subject to the library-only checks (norand)
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info

	// Mod is the module-wide interprocedural view (call graph and context
	// sets) shared by every pass of one load; nil when a package was
	// type-checked in isolation, in which case the interprocedural checks
	// are silently skipped.
	Mod *Module
}

func (p *Pass) finding(pos token.Pos, check, format string, args ...any) Finding {
	return Finding{Pos: p.Fset.Position(pos), Check: check, Message: fmt.Sprintf(format, args...)}
}

// All returns the analyzers in the order they run.
func All() []Analyzer {
	return []Analyzer{
		mixedAtomic{}, sharedWrite{}, noRand{}, conversionCheck{}, obsRecorder{},
		hotAllocAnalyzer{}, blockingCallAnalyzer{}, scratchLifetimeAnalyzer{},
	}
}

// checkNames is the set of valid check names for //parconn:allow comments.
var checkNames = func() map[string]bool {
	m := make(map[string]bool)
	for _, a := range All() {
		m[a.Name()] = true
	}
	return m
}()

// allowMarker introduces a suppression comment.
const allowMarker = "//parconn:allow"

type allowComment struct {
	file   string
	pos    token.Pos
	checks []string
	reason string
	lines  map[int]bool // lines in file the comment covers
}

// allowsIn parses every //parconn:allow comment of the pass. A comment
// covers its own line and the line following its comment group, so it can
// sit at the end of the flagged line or directly above it. When the
// covered line opens a function declaration, coverage extends to the
// whole declaration: one annotated reason covers a scheduler or packing
// primitive without per-line noise.
func allowsIn(pass *Pass) []allowComment {
	var out []allowComment
	for _, file := range pass.Files {
		fname := pass.Fset.Position(file.Pos()).Filename
		start := len(out)
		for _, group := range file.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, allowMarker)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				a := allowComment{
					file: fname,
					pos:  c.Pos(),
					lines: map[int]bool{
						pass.Fset.Position(c.Pos()).Line:         true,
						pass.Fset.Position(group.End()).Line + 1: true,
					},
				}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					a.checks = strings.Split(fields[0], ",")
					a.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, a)
			}
		}
		for i := start; i < len(out); i++ {
			a := &out[i]
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				first := pass.Fset.Position(fd.Pos()).Line
				if !a.lines[first] {
					continue
				}
				last := pass.Fset.Position(fd.End()).Line
				for l := first; l <= last; l++ {
					a.lines[l] = true
				}
			}
		}
	}
	return out
}

// CheckAllows validates the //parconn:allow comments themselves: every
// comment must name known checks and give a reason, so suppressions stay
// auditable.
func CheckAllows(pass *Pass) []Finding {
	var out []Finding
	for _, a := range allowsIn(pass) {
		if len(a.checks) == 0 {
			out = append(out, pass.finding(a.pos, "allow", "suppression comment names no check; want %s <check> <reason>", allowMarker))
			continue
		}
		for _, c := range a.checks {
			if !checkNames[c] {
				out = append(out, pass.finding(a.pos, "allow", "suppression names unknown check %q", c))
			}
		}
		if a.reason == "" {
			out = append(out, pass.finding(a.pos, "allow", "suppression of %s is missing its mandatory reason", strings.Join(a.checks, ",")))
		}
	}
	return out
}

// UnusedAllows reports well-formed //parconn:allow comments that
// suppressed nothing in the given suppressed set (as returned by Apply
// for the same pass): stale suppressions hide nothing but rot into
// misleading documentation, so parconnvet fails on them. Malformed
// comments are CheckAllows's findings, not repeated here.
func UnusedAllows(pass *Pass, suppressed []Finding) []Finding {
	var out []Finding
	for _, a := range allowsIn(pass) {
		if len(a.checks) == 0 || a.reason == "" {
			continue
		}
		known := true
		for _, c := range a.checks {
			if !checkNames[c] {
				known = false
			}
		}
		if !known {
			continue
		}
		used := false
		for _, f := range suppressed {
			if f.Pos.Filename != a.file || !a.lines[f.Pos.Line] {
				continue
			}
			for _, c := range a.checks {
				if c == f.Check {
					used = true
				}
			}
		}
		if !used {
			out = append(out, pass.finding(a.pos, "allow",
				"suppression of %s matches no finding; remove the stale allow",
				strings.Join(a.checks, ",")))
		}
	}
	return out
}

// Apply splits findings into active and suppressed according to the pass's
// //parconn:allow comments, deduplicates, and sorts both sets by position.
func Apply(pass *Pass, findings []Finding) (active, suppressed []Finding) {
	allows := allowsIn(pass)
	seen := make(map[Finding]bool)
	for _, f := range findings {
		if seen[f] {
			continue
		}
		seen[f] = true
		ok := false
		for _, a := range allows {
			if a.file != f.Pos.Filename || !a.lines[f.Pos.Line] || a.reason == "" {
				continue
			}
			for _, c := range a.checks {
				if c == f.Check {
					ok = true
				}
			}
		}
		if ok {
			suppressed = append(suppressed, f)
		} else {
			active = append(active, f)
		}
	}
	SortFindings(active)
	SortFindings(suppressed)
	return active, suppressed
}

// SortFindings orders findings by file, line, column, and check name.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

// rootObject resolves the variable or struct field that an lvalue-ish
// expression ultimately denotes: c -> c, c[i] -> c, s.f[i] -> field f,
// (*p)[i] -> p. It returns nil for expressions with no stable root (calls,
// composite literals, ...).
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return sel.Obj()
			}
			return info.Uses[x.Sel] // qualified identifier
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// atomicCall reports whether call invokes sync/atomic functionality: a
// package function (atomic.LoadInt32, ...) or a method of one of the atomic
// wrapper types (atomic.Int64.Add, ...).
func atomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
