package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKnownBlockingCallsExist fails when a repository entry of lockhold's
// blocking-call table names a function or method the repository no
// longer declares: such an entry matches nothing, and deleting a
// blocking API must take its entry along.
func TestKnownBlockingCallsExist(t *testing.T) {
	const module = "repro/"
	root := filepath.Join("..", "..", "..") // tools/dewsvet/analyzers → module root
	declared := make(map[string]map[string]bool)
	checked := 0
	for key := range knownBlockingCalls {
		pkg, name := splitCallee(key)
		if !strings.HasPrefix(pkg, module+"internal/") {
			continue
		}
		if declared[pkg] == nil {
			declared[pkg] = packageDecls(t, filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkg, module))))
		}
		if !declared[pkg][name] {
			t.Errorf("knownBlockingCalls entry %q: %s declares no %s", key, pkg, name)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("knownBlockingCalls has no repository entries to check")
	}
}

// splitCallee splits a table key — "(*pkg.Type).Method" or "pkg.Func" —
// into the package path and "Type.Method" or "Func".
func splitCallee(key string) (pkg, name string) {
	if recv, method, ok := strings.Cut(strings.TrimPrefix(key, "("), ")."); ok {
		recv = strings.TrimPrefix(recv, "*")
		dot := strings.LastIndex(recv, ".")
		return recv[:dot], recv[dot+1:] + "." + method
	}
	dot := strings.LastIndex(key, ".")
	return key[:dot], key[dot+1:]
}

// packageDecls returns the functions ("Func") and methods
// ("Type.Method") declared by the non-test Go files in dir.
func packageDecls(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	decls := make(map[string]bool)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			decls[name] = true
		}
	}
	return decls
}
