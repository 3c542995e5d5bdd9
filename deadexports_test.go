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
// and one unused exported func under internal/. Another package exports a
// used func of the unused one's name, which must not hide it. A method
// Config that nothing calls is dead too, though main names the type
// p.Config and p's own code names it bare.
func TestUnusedExportsFindsDeadFunc(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n",
		"internal/p/p.go": `package p

func Used() {}

func Unused() {}

type Config struct{}

type Cache struct{ cfg Config }

func (c *Cache) Config() Config { return c.cfg }
`,
		"internal/p/p_test.go": "package p\n\nfunc f() { Unused() }\n",
		"internal/q/q.go":      "package q\n\nfunc Unused() {}\n",
		"main.go": `package main

import (
	"m/internal/p"
	"m/internal/q"
)

func main() {
	p.Used()
	q.Unused()
	_ = p.Cache{}
	_ = p.Config{}
}
`,
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
	if want := []string{"p.Cache.Config", "p.Unused"}; strings.Join(found, ",") != strings.Join(want, ",") {
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
// root/internal that no non-test file names outside their own declaration.
// A package-level name counts as named only by a bare identifier in its
// own package's directory or by a selector through an import of its
// package, so a same-named export of another package cannot hide it. A
// method counts as named by a selector of its name whose left side is not
// an imported package, or by an interface method of its name, since calls
// through interfaces and embedded fields name no package. A method's
// receiver does not count as a use of its type. Struct fields are not
// checked: encoding/json reads them by reflection. Methods with
// standard-library interface names, and methods of internal types that the
// root package aliases, are exempt.
func unusedExports(root string) ([]string, error) {
	fset := token.NewFileSet()
	methodUses := map[string][]token.Pos{} // method name -> positions
	pkgUses := map[string][]token.Pos{}    // "dir.Name" -> positions
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
		u := usesCollector{dir: filepath.Dir(path), imports: fileImports(f, root), methodUses: methodUses, pkgUses: pkgUses}
		u.collect(f)
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
		named := pkgUses[d.pkgDir+"."+d.name]
		if d.recv != "" {
			named = methodUses[d.name]
		}
		used := false
		for _, p := range named {
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

// usesCollector records the identifiers of one file.
type usesCollector struct {
	dir        string            // the file's directory
	imports    map[string]string // import name -> directory ("" outside internal/)
	methodUses map[string][]token.Pos
	pkgUses    map[string][]token.Pos
}

// collect records the names under n, skipping method receivers. A name a
// package-level declaration can carry goes in pkgUses under "dir.Name":
// the file's own directory for a bare identifier, the imported package's
// for a selector through an import. A name a method can carry goes in
// methodUses: the right side of any other selector, and the method names
// of an interface type.
func (u usesCollector) collect(n ast.Node) {
	add := func(dir string, id *ast.Ident) {
		key := dir + "." + id.Name
		u.pkgUses[key] = append(u.pkgUses[key], id.Pos())
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				u.collect(n.Type)
				if n.Body != nil {
					u.collect(n.Body)
				}
				return false
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					u.methodUses[id.Name] = append(u.methodUses[id.Name], id.Pos())
				}
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if dir, ok := u.imports[x.Name]; ok {
					if dir != "" {
						add(dir, n.Sel)
					}
					return false
				}
			}
			// A field or method selector names no package-level decl.
			u.methodUses[n.Sel.Name] = append(u.methodUses[n.Sel.Name], n.Sel.Pos())
			u.collect(n.X)
			return false
		case *ast.Ident:
			add(u.dir, n)
		}
		return true
	})
}

// fileImports maps the import names of f to their packages' directories
// under root; a package outside root/internal maps to "".
func fileImports(f *ast.File, root string) map[string]string {
	dirs := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		dirs[name] = ""
		if i := strings.Index(path, "/internal/"); i >= 0 {
			dirs[name] = filepath.Join(root, filepath.FromSlash(path[i+1:]))
		}
	}
	return dirs
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
		dirs := fileImports(f, root)
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
