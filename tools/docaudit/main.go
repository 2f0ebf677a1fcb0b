// Command docaudit is the module's godoc gate: it parses the given
// package directories and fails (exit 1) if any exported identifier —
// function, method, type, constant or variable — lacks a doc comment. CI
// runs it over every package of the module
// (`go run ./tools/docaudit $(go list -f '{{.Dir}}' ./...)`), so an
// undocumented export anywhere breaks the build rather than rotting
// silently.
//
// Grouped const/var declarations follow the usual Go convention: a doc
// comment on the group documents every name in it; a line comment on the
// individual spec also counts.
//
// Usage: docaudit <pkg-dir> [<pkg-dir> ...]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docaudit <pkg-dir> [<pkg-dir> ...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		missing, err := audit(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docaudit: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Printf("%s\n", m)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docaudit: %d undocumented exported identifier(s)\n", bad)
		os.Exit(1)
	}
}

// audit returns one "file:line: name" string per undocumented export in
// the package directory (test files excluded).
func audit(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: undocumented exported %s %s",
			filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					// Methods count when the receiver's base type is
					// exported (an exported method on an unexported type
					// is unreachable API).
					name := d.Name.Name
					if d.Recv != nil {
						recv := receiverName(d.Recv)
						if recv == "" || !ast.IsExported(recv) {
							continue
						}
						name = recv + "." + name
					}
					report(d.Pos(), "function", name)
				case *ast.GenDecl:
					auditGenDecl(d, report)
				}
			}
		}
	}
	return out, nil
}

// auditGenDecl checks type/const/var declarations. A doc comment on the
// group covers every spec inside it.
func auditGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	groupDocumented := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if s.Doc == nil && s.Comment == nil && !(groupDocumented && len(d.Specs) == 1) {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil || groupDocumented {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(n.Pos(), kindOf(d.Tok), n.Name)
				}
			}
		}
	}
}

func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "constant"
	}
	return "variable"
}

// receiverName extracts the base type name of a method receiver.
func receiverName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.Name
	}
	return ""
}
