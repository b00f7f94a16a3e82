package oracle

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const oraclePath = "crosse/internal/oracle"

// oracleMayImport lists the module packages the oracle may build on: the
// parsers, the value and storage layers and the RDF terms. The executors'
// own packages (sqlexec, sparql's evaluation code, exec, core) stay out,
// so the oracle cannot reuse the rules it checks; it reads sparql only for
// the parsed query AST and the result type.
var oracleMayImport = map[string]bool{
	"crosse/internal/sqlparser": true,
	"crosse/internal/sqlval":    true,
	"crosse/internal/sqldb":     true,
	"crosse/internal/rdf":       true,
	"crosse/internal/sparql":    true,
}

// sparqlNames are the identifiers the oracle may use from package sparql:
// the query AST it evaluates and the result type it returns, never an
// evaluator or a helper.
var sparqlNames = map[string]bool{
	"Query": true, "Ask": true, "Group": true, "Element": true,
	"TriplePattern": true, "Filter": true, "Optional": true, "Union": true,
	"NodePattern": true, "Path": true, "PathIRI": true, "PathSeq": true,
	"PathAlt": true, "PathInverse": true, "PathClosure": true, "PathVar": true,
	"Expr": true, "Binary": true, "Not": true, "VarRef": true, "Lit": true,
	"Call": true, "OpEq": true, "OpNe": true, "OpLt": true, "OpLe": true,
	"OpGt": true, "OpGe": true, "OpAnd": true, "OpOr": true,
	"Result": true, "Binding": true,
}

// TestOnlyTestsImportOracle walks every Go file of the module (and of the
// nested benchmark module) and requires that no non-test file outside this
// package imports it, that this package's non-test files import from the
// module only what oracleMayImport lists, and that they name from sparql
// only what sparqlNames lists.
func TestOnlyTestsImportOracle(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	self := filepath.Join(root, "internal", "oracle")
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		inOracle := filepath.Dir(path) == self
		mode := parser.ImportsOnly
		if inOracle {
			mode = 0
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		files++
		if inOracle {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sparql" && !sparqlNames[sel.Sel.Name] {
						t.Errorf("%s uses sparql.%s: the oracle takes only the AST and the result type from sparql", rel(root, path), sel.Sel.Name)
					}
				}
				return true
			})
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			switch {
			case !inOracle && p == oraclePath:
				t.Errorf("%s imports %s: only _test.go files may", rel(root, path), oraclePath)
			case inOracle && strings.HasPrefix(p, "crosse/") && !oracleMayImport[p]:
				t.Errorf("%s imports %s, which the oracle may not build on", rel(root, path), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d non-test files under %s", files, root)
	}
}

func rel(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return r
	}
	return path
}
