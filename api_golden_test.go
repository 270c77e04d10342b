package pptd_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/api.golden from the current exported surface")

// TestAPIGolden pins the package's exported surface to a golden file: a
// sorted, source-derived rendering of every exported const, var, type,
// function and method declared in package pptd, structs without their
// unexported fields. An accidental breaking change — a removed symbol, a
// changed signature, a narrowed type — shows up as a diff and fails CI
// (the api-compat job), and a private field does not. Aliases of
// internal types render as the alias line alone: their fields and
// methods are declared in the internal package and stay outside the
// gate. Intentional changes regenerate with
//
//	go test -run TestAPIGolden . -update
func TestAPIGolden(t *testing.T) {
	got := renderExportedSurface(t, ".")
	goldenPath := filepath.Join("testdata", "api.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	// Pinpoint the first divergence line for a readable failure.
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("exported API surface drifted at line %d:\n  golden: %s\n  now:    %s\n"+
				"If this change is intentional, regenerate with: go test -run TestAPIGolden . -update",
				i+1, w, g)
		}
	}
	t.Fatal("exported API surface drifted (length mismatch); regenerate with -update if intentional")
}

// renderExportedSurface parses the package's non-test sources and
// renders every exported declaration, sorted, comments stripped — a
// deterministic fingerprint of the public API.
func renderExportedSurface(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["pptd"]
	if !ok {
		t.Fatalf("package pptd not found in %s (have %v)", dir, pkgs)
	}

	var entries []string
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 8}
	render := func(node any) string {
		var buf bytes.Buffer
		if err := cfg.Fprint(&buf, fset, node); err != nil {
			t.Fatalf("render decl: %v", err)
		}
		return buf.String()
	}

	names := make([]string, 0, len(pkg.Files))
	for name := range pkg.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, decl := range pkg.Files[name].Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || (d.Recv != nil && !exportedReceiver(d.Recv)) {
					continue
				}
				fn := *d
				fn.Doc, fn.Body = nil, nil
				if d.Recv != nil { // the receiver's name is no part of the surface
					fn.Recv = &ast.FieldList{List: []*ast.Field{{Type: d.Recv.List[0].Type}}}
				}
				entries = append(entries, render(&fn))
			case *ast.GenDecl:
				specs := exportedSpecs(d)
				if len(specs) == 0 {
					continue
				}
				gd := *d
				gd.Doc = nil
				gd.Specs = specs
				// Force the one-spec form to not depend on grouping.
				if len(specs) == 1 {
					gd.Lparen, gd.Rparen = token.NoPos, token.NoPos
				}
				for _, s := range specs {
					entries = append(entries, render(&ast.GenDecl{Tok: gd.Tok, Specs: []ast.Spec{s}}))
				}
			}
		}
	}
	sort.Strings(entries)
	var b strings.Builder
	fmt.Fprintf(&b, "// Exported surface of package pptd. Regenerate: go test -run TestAPIGolden . -update\n")
	for _, e := range entries {
		b.WriteString(e)
		b.WriteString("\n")
	}
	return b.String()
}

// exportedSpecs filters a const/var/type decl down to its exported
// specs, stripping docs (deprecation notices live in docs, not in the
// compatibility fingerprint).
func exportedSpecs(d *ast.GenDecl) []ast.Spec {
	var out []ast.Spec
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() {
				ts := *s
				ts.Doc, ts.Comment = nil, nil
				if st, ok := s.Type.(*ast.StructType); ok {
					ts.Type = exportedFields(st)
				}
				out = append(out, &ts)
			}
		case *ast.ValueSpec:
			exported := false
			for _, n := range s.Names {
				if n.IsExported() {
					exported = true
				}
			}
			if exported {
				vs := *s
				vs.Doc, vs.Comment = nil, nil
				out = append(out, &vs)
			}
		}
	}
	return out
}

// exportedReceiver reports whether a method's receiver is an exported
// type declared in the package.
func exportedReceiver(recv *ast.FieldList) bool {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}

// exportedFields copies a struct type keeping only its exported fields
// (embedded ones included), each on its own line.
func exportedFields(st *ast.StructType) *ast.StructType {
	out := &ast.StructType{Fields: &ast.FieldList{}}
	for _, f := range st.Fields.List {
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, ast.NewIdent(n.Name))
			}
		}
		embedded := len(f.Names) == 0
		if embedded {
			typ := f.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				typ = sel.Sel
			}
			if id, ok := typ.(*ast.Ident); !ok || !id.IsExported() {
				continue
			}
		} else if len(names) == 0 {
			continue
		}
		out.Fields.List = append(out.Fields.List, &ast.Field{Names: names, Type: f.Type, Tag: f.Tag})
	}
	return out
}
