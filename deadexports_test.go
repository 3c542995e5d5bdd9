package galsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are method names that the standard library calls through
// an interface (fmt.Stringer, error, json.Marshaler, http.Handler, ...), so
// no galsim source ever names them.
var interfaceMethods = map[string]bool{
	"String":        true,
	"Error":         true,
	"Unwrap":        true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"MarshalText":   true,
	"UnmarshalText": true,
	"ServeHTTP":     true,
	"Len":           true,
	"Less":          true,
	"Swap":          true,
	"Push":          true,
	"Pop":           true,
	"Write":         true,
	"Read":          true,
	"Close":         true,
}

// testOracles are exported helpers that production code never calls but the
// tests of another package do, so they cannot move into an export_test.go.
// Each entry names the test that needs it.
var testOracles = map[string]string{
	"admission.Controller.QueuedUnits": "internal/service TestAdmissionSweepQuota checks that finished and rejected sweeps release their units",
}

// TestNoUnusedExports fails when an exported func, method, type, const or
// var declared under internal/ is named by no non-test code of the module or
// of perfbench: such code is either dead or belongs in a test file.
func TestNoUnusedExports(t *testing.T) {
	found, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range found {
		if _, ok := testOracles[name]; ok {
			continue
		}
		t.Errorf("%s: exported but named by no non-test code; delete it, move it into an export_test.go, or list it in testOracles", name)
	}
	for name := range testOracles {
		if !slices.Contains(found, name) {
			t.Errorf("testOracles lists %s, which is no longer unused; drop the entry", name)
		}
	}
}

// TestUnusedExportsFindsDeadFunc runs the check on a module with one used
// and one unused exported func under internal/.
func TestUnusedExportsFindsDeadFunc(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n",
		"internal/p/p.go": `package p

func Used() {}

func Unused() {}
`,
		"internal/p/p_test.go": "package p\n\nfunc f() { Unused() }\n",
		"main.go":              "package main\n\nimport \"m/internal/p\"\n\nfunc main() { p.Used() }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	found, err := unusedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"p.Unused"}; strings.Join(found, ",") != strings.Join(want, ",") {
		t.Fatalf("unusedExports = %q, want %q", found, want)
	}
}

// exportDecl is one exported package-level declaration under internal/.
type exportDecl struct {
	key      string // "pkg.Name" or "pkg.Type.Method"
	name     string
	recv     string // receiver type name; empty unless a method
	pkgDir   string
	pos, end token.Pos
}

// unusedExports walks the Go module at root, including nested modules such
// as perfbench, and returns the sorted keys of the exported funcs, methods,
// types and package-level consts and vars declared in non-test files under
// root/internal whose name appears as an identifier in no non-test file
// outside its own declaration. A method's receiver does not count as a use
// of its type. Struct fields are not checked: encoding/json reads them by
// reflection. Methods with standard-library interface names, and methods
// of internal types that the root package aliases, are exempt.
func unusedExports(root string) ([]string, error) {
	fset := token.NewFileSet()
	uses := map[string][]token.Pos{} // identifier name -> positions
	var decls []exportDecl
	var rootFiles []*ast.File
	internal := filepath.Join(root, "internal") + string(filepath.Separator)

	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		collectUses(f, uses)
		if filepath.Dir(path) == filepath.Clean(root) {
			rootFiles = append(rootFiles, f)
		}
		if strings.HasPrefix(path, internal) {
			decls = append(decls, exportedDecls(f, filepath.Dir(path))...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	aliased := aliasedTypes(rootFiles, root)
	var found []string
	for _, d := range decls {
		if d.recv != "" && (interfaceMethods[d.name] || aliased[d.pkgDir+"."+d.recv]) {
			continue
		}
		used := false
		for _, p := range uses[d.name] {
			if p < d.pos || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			found = append(found, d.key)
		}
	}
	sort.Strings(found)
	return found, nil
}

// collectUses records every identifier under n, skipping method receivers.
func collectUses(n ast.Node, uses map[string][]token.Pos) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				collectUses(n.Type, uses)
				if n.Body != nil {
					collectUses(n.Body, uses)
				}
				return false
			}
		case *ast.Ident:
			uses[n.Name] = append(uses[n.Name], n.Pos())
		}
		return true
	})
}

// exportedDecls lists the exported package-level declarations of f.
func exportedDecls(f *ast.File, dir string) []exportDecl {
	pkg := f.Name.Name
	var out []exportDecl
	add := func(name, recv string, node ast.Node) {
		if !ast.IsExported(name) {
			return
		}
		key := pkg + "." + name
		if recv != "" {
			key = pkg + "." + recv + "." + name
		}
		out = append(out, exportDecl{key: key, name: name, recv: recv, pkgDir: dir,
			pos: node.Pos(), end: node.End()})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add(decl.Name.Name, "", decl)
			} else if recv := receiverType(decl.Recv.List[0].Type); ast.IsExported(recv) {
				add(decl.Name.Name, recv, decl)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name.Name, "", spec)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						add(n.Name, "", spec)
					}
				}
			}
		}
	}
	return out
}

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// aliasedTypes returns "dir.Type" for every internal type that a root
// package file aliases (type X = pkg.Type), so its methods are public API.
func aliasedTypes(files []*ast.File, root string) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
		dirs := map[string]string{} // import name -> directory under root
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			i := strings.Index(path, "/internal/")
			if i < 0 {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			dirs[name] = filepath.Join(root, filepath.FromSlash(path[i+1:]))
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				sel, ok := ts.Type.(*ast.SelectorExpr)
				if !ok || !ts.Assign.IsValid() {
					continue
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && dirs[pkg.Name] != "" {
					out[dirs[pkg.Name]+"."+sel.Sel.Name] = true
				}
			}
		}
	}
	return out
}
