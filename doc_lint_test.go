package plurality

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedDocs fails on undocumented exported identifiers in the root
// package — the public API is the contract, and the CI docs job runs this
// lint so a new exported name cannot land without a doc comment. The rules
// follow the classic golint/revive "exported" rule: every exported
// function, method (on an exported receiver), type, const and var needs a
// doc comment; a group doc on a const/var/type block covers its specs.
func TestExportedDocs(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.Base(p.Filename), p.Line, kind, name))
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				kind := "function"
				if d.Recv != nil {
					if !exportedReceiver(d.Recv) {
						continue // method on an unexported type
					}
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
							report(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(id.Pos(), strings.ToLower(d.Tok.String()), id.Name)
							}
						}
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d undocumented exported identifiers:\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
}

// exportedReceiver reports whether a method receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	return token.IsExported(receiverName(recv))
}

// receiverName returns the type name of a method receiver, or "" if it has
// none.
func receiverName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	typ := recv.List[0].Type
	for {
		switch v := typ.(type) {
		case *ast.StarExpr:
			typ = v.X
		case *ast.IndexExpr: // generic receiver
			typ = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

// TestInternalExportsHaveCallers fails on an exported function, method or
// type of internal/opinion, internal/stats or internal/xrand that nothing
// uses, so code without a caller does not regrow there. A name is used when
// non-test code of its own package refers to it outside its declaration,
// or when any file of another package (tests included) selects it as
// X.Name. The match is by name, so it can miss a dead method that shares
// its name with a live one; it never fails on a live name.
func TestInternalExportsHaveCallers(t *testing.T) {
	scope := map[string]bool{"internal/opinion": true, "internal/stats": true, "internal/xrand": true}
	allowed := map[string]bool{
		// The conformance tests' tools (ROADMAP item 1); no caller yet.
		"stats.KSTest":        true,
		"stats.ChiSquareTest": true,
	}
	type export struct {
		dir, name, label string
		pos              token.Position
		from, to         token.Pos // the declaration's span
	}
	type use struct {
		dir string
		pos token.Pos
	}
	var exports []export
	local := map[string][]use{}       // references from non-test code, by name
	selected := map[string][]string{} // directories that select a name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			if err == nil && file != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		test := strings.HasSuffix(file, "_test.go")
		// Declared names and method receivers are not references.
		decl := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decl[d.Name] = true
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							decl[id] = true
						}
						return true
					})
				}
				if scope[dir] && !test && d.Name.IsExported() {
					label := d.Name.Name
					if d.Recv != nil {
						label = receiverName(d.Recv) + "." + label
					}
					exports = append(exports, export{dir, d.Name.Name, label, fset.Position(d.Pos()), d.Pos(), d.End()})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if s, ok := spec.(*ast.TypeSpec); ok {
						decl[s.Name] = true
						if scope[dir] && !test && s.Name.IsExported() {
							exports = append(exports, export{dir, s.Name.Name, s.Name.Name, fset.Position(s.Pos()), s.Pos(), s.End()})
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				selected[v.Sel.Name] = append(selected[v.Sel.Name], dir)
			case *ast.Ident:
				if !test && !decl[v] {
					local[v.Name] = append(local[v.Name], use{dir, v.Pos()})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, e := range exports {
		key := path.Base(e.dir) + "." + e.label
		live := allowed[key]
		for _, u := range local[e.name] {
			live = live || u.dir == e.dir && (u.pos < e.from || u.pos >= e.to)
		}
		for _, d := range selected[e.name] {
			live = live || d != e.dir
		}
		if !live {
			dead = append(dead, fmt.Sprintf("%s:%d: %s", e.pos.Filename, e.pos.Line, key))
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d internal exports have no caller outside their own tests; delete them:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}
