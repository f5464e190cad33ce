package parconn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// defaultPoolSymbols are the functions that run on parallel.Default()
// instead of the caller's pool: Default itself and four of the five
// wrappers kept for the benchmark program's layer probes
// (hashtable.(*Set).Reset, the fifth, is a method and cannot be told from
// other Resets without type information).
var defaultPoolSymbols = map[string]map[string]bool{
	"parconn/internal/parallel": {"Default": true, "Blocks": true, "ExScanInto": true, "PackInto": true},
	"parconn/internal/intsort":  {"SortUint64In": true},
}

// defaultPoolAllowed lists, per package, the functions that may resolve
// parallel.Default(): graph constructors that take no pool, the nil-Pool
// fallbacks of the two engines, and the kept wrappers themselves. Each may
// call only Default. The root package and package main are entry points and
// may call any of the symbols.
var defaultPoolAllowed = map[string]map[string]bool{
	"parconn/internal/graph": {
		"Random": true, "RMat": true, "Grid3D": true, "Grid2D": true, "Line": true,
		"Components": true, "FromEdges": true, "VerifyLabeling": true,
	},
	"parconn/internal/core":      {"CC": true},
	"parconn/internal/decomp":    {"Options.resolve": true},
	"parconn/internal/parallel":  {"Blocks": true, "ExScanInto": true, "PackInto": true},
	"parconn/internal/intsort":   {"SortUint64In": true},
	"parconn/internal/hashtable": {"(*Set).Reset": true},
}

// TestDefaultPoolOnlyAtEntryPoints keeps library code on the run's pool:
// every primitive takes the pool to fork on, so a call to
// parallel.Default() or to a default-pool wrapper below the entry points
// would bypass a caller's pool (and any flag the pool carries).
func TestDefaultPoolOnlyAtEntryPoints(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			hidden := p != "." && strings.HasPrefix(d.Name(), ".")
			if hidden || p == "perfbench" || p == filepath.Join("internal", "analysis", "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "." || f.Name.Name == "main" {
			return nil
		}
		pkg := path.Join("parconn", dir)
		for _, call := range defaultPoolCalls(f, pkg) {
			if call.name == "Default" && defaultPoolAllowed[pkg][call.fn] {
				continue
			}
			t.Errorf("%s: %s calls %s; pass the caller's *parallel.Pool instead", fset.Position(call.pos), call.fn, call.expr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed only %d files; the walk did not start at the module root", files)
	}
}

type defaultPoolCall struct {
	pos  token.Pos
	fn   string // enclosing declaration, e.g. "CC" or "(*Set).Reset"
	name string // the called symbol, e.g. "Default"
	expr string // as written, e.g. "parallel.Default"
}

// defaultPoolCalls returns f's calls to defaultPoolSymbols: qualified
// through an import of the defining package, or unqualified inside it.
func defaultPoolCalls(f *ast.File, pkg string) []defaultPoolCall {
	imported := map[string]map[string]bool{} // local package name -> symbols
	for _, imp := range f.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		syms, ok := defaultPoolSymbols[ipath]
		if !ok {
			continue
		}
		name := path.Base(ipath)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imported[name] = syms
	}
	own := defaultPoolSymbols[pkg]
	var out []defaultPoolCall
	for _, decl := range f.Decls {
		fn := "package-level declaration"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = declName(fd)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok && imported[x.Name][fun.Sel.Name] {
					out = append(out, defaultPoolCall{call.Pos(), fn, fun.Sel.Name, x.Name + "." + fun.Sel.Name})
				}
			case *ast.Ident:
				if own[fun.Name] {
					out = append(out, defaultPoolCall{call.Pos(), fn, fun.Name, fun.Name})
				}
			}
			return true
		})
	}
	return out
}

// declName names a function declaration as "Name", "T.Name" or "(*T).Name".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	switch t := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return t.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
