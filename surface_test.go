package repro_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlySurface lists the exported functions and methods of product
// packages that no product code references, each with the reason it
// stays. Keys are "dir.Func" or "dir.Type.Method", dir relative to the
// repository root.
var testOnlySurface = map[string]string{
	"internal/lang.MustCompile":                "compile-or-panic for known-good sources; the tests of a dozen packages share it",
	"internal/obs.Recorder.Counter":            "single-value reader for tests; product code exports the Counters snapshot",
	"internal/obs.ValidateMetrics":             "the -metrics schema's executable check, run by the telemetry smoke tests",
	"internal/obs.ValidateSpans":               "the -spans schema's executable check, run by the telemetry smoke tests",
	"internal/optimize.EditKind.MarshalJSON":   "encoding/json calls it through json.Marshaler",
	"internal/progen.Edits":                    "the edit session the progen and core test suites both replay",
	"internal/server.wireSource.UnmarshalJSON": "encoding/json calls it through json.Unmarshaler",
}

// productCallers are the trees whose non-test files count as product
// callers. internal/benchmark and cmd/hippobench are modules of their
// own that import the root module.
var productCallers = []string{"cmd", "examples", "internal"}

// TestNoTestOnlyExports fails when an exported function or method of a
// product package (a root-module package under internal/ or cmd/) is
// referenced from no non-test file: the surface a product caller never
// reaches should not grow back. A package-level function counts as
// referenced by its bare name inside its own package and as pkg.Name
// elsewhere; a method by any selector .Name, so a name shared with
// another method is taken as used. References inside the declaration
// itself do not count.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	refs := map[string][]identRef{}
	for _, root := range productCallers {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || strings.HasPrefix(name, ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			scanIdents(fset, path, dir, src, refs)
			if root == "examples" || inSubmodule(dir) {
				return nil
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			decls = append(decls, exportedDecls(fset, path, dir, f)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations; run from the repository root")
	}
	var bare []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key()] = true
		if d.referenced(refs[d.name]) {
			continue
		}
		if _, ok := testOnlySurface[d.key()]; !ok {
			bare = append(bare, d.key())
		}
	}
	sort.Strings(bare)
	for _, k := range bare {
		t.Errorf("%s: exported but referenced only from tests; delete it, give it a product caller, or list it in testOnlySurface with the reason it stays", k)
	}
	for k := range testOnlySurface {
		if !seen[k] {
			t.Errorf("testOnlySurface lists %s, which is not declared", k)
		}
	}
}

// inSubmodule reports whether dir belongs to a module of its own.
func inSubmodule(dir string) bool {
	return dir == "cmd/hippobench" || dir == "internal/benchmark" ||
		strings.HasPrefix(dir, "internal/benchmark/")
}

// identRef is one identifier in a non-test file. qual is the identifier
// before the selector dot ("" if none or if the operand is not an
// identifier); sel marks a selector.
type identRef struct {
	file string
	dir  string
	off  int
	qual string
	sel  bool
}

// scanIdents appends every identifier in src to refs, keyed by name.
func scanIdents(fset *token.FileSet, path, dir string, src []byte, refs map[string][]identRef) {
	var s scanner.Scanner
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
	var prev, prev2 token.Token
	var prevLit string
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return
		}
		if tok == token.IDENT {
			r := identRef{file: path, dir: dir, off: fset.Position(pos).Offset, sel: prev == token.PERIOD}
			if r.sel && prev2 == token.IDENT {
				r.qual = prevLit
			}
			refs[lit] = append(refs[lit], r)
			prevLit = lit
		}
		prev2, prev = prev, tok
	}
}

// exportedDecl is one exported function or method declaration.
type exportedDecl struct {
	dir, pkg, recv, name string
	file                 string
	start, end           int
}

func (d exportedDecl) key() string {
	if d.recv != "" {
		return d.dir + "." + d.recv + "." + d.name
	}
	return d.dir + "." + d.name
}

// referenced reports whether any non-test reference outside the
// declaration itself reaches d.
func (d exportedDecl) referenced(refs []identRef) bool {
	for _, r := range refs {
		if r.file == d.file && r.off >= d.start && r.off < d.end {
			continue
		}
		switch {
		case d.recv != "":
			if r.sel {
				return true
			}
		case r.dir == d.dir:
			if !r.sel {
				return true
			}
		case r.sel && r.qual == d.pkg:
			return true
		}
	}
	return false
}

// exportedDecls returns f's exported functions and methods.
func exportedDecls(fset *token.FileSet, path, dir string, f *ast.File) []exportedDecl {
	var out []exportedDecl
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() {
			continue
		}
		d := exportedDecl{
			dir: dir, pkg: f.Name.Name, name: fn.Name.Name, file: path,
			start: fset.Position(fn.Pos()).Offset, end: fset.Position(fn.End()).Offset,
		}
		if fn.Recv != nil {
			d.recv = recvName(fn.Recv.List[0].Type)
		}
		out = append(out, d)
	}
	return out
}

// recvName returns the type name of a receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
