package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/dewsvet/analysis"
)

// Rcusnap enforces the RCU (read-copy-update) discipline on
// atomic.Pointer fields annotated //dewsvet:rcu — the broker's topic
// trie being the canonical one:
//
//   - writers: .Store/.Swap/.CompareAndSwap only while a guard mutex is
//     held (or in a function that runs with the caller's lock by
//     convention), so concurrent updaters serialize on copy-on-write;
//   - readers: at most one .Load() per field per function — two Loads
//     can observe two different generations of the structure
//     mid-operation;
//   - nobody writes through a loaded snapshot: a value obtained from
//     .Load() is shared with every concurrent reader and frozen.
var Rcusnap = &analysis.Analyzer{
	Name: "rcusnap",
	Doc:  "RCU discipline on //dewsvet:rcu atomic.Pointer fields",
	Run:  runRcusnap,
}

func runRcusnap(pass *analysis.Pass) error {
	sup := newSuppressor(pass, "rcusnap")
	rcu := rcuFields(pass)
	if len(rcu) == 0 {
		return nil
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if docHasMarker(fd.Doc, "dewsvet:rcusnap-ok") {
				continue
			}
			_, entry := heldAtEntry(fd)
			checkRcuFunc(pass, sup, fd, rcu, entry)
		}
	}
	return nil
}

// rcuFields collects struct fields annotated //dewsvet:rcu, requiring
// the sync/atomic.Pointer type that makes the discipline meaningful.
func rcuFields(pass *analysis.Pass) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !docHasMarker(field.Doc, "dewsvet:rcu") && !docHasMarker(field.Comment, "dewsvet:rcu") {
					continue
				}
				for _, name := range field.Names {
					v, ok := pass.Info.Defs[name].(*types.Var)
					if v == nil || !ok {
						continue
					}
					if !isAtomicPointer(v.Type()) {
						pass.Reportf(name.Pos(), "//dewsvet:rcu on %s, which is not a sync/atomic.Pointer", name.Name)
						continue
					}
					out[v] = true
				}
			}
			return true
		})
	}
	return out
}

func isAtomicPointer(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync/atomic" && n.Obj().Name() == "Pointer"
}

// rcuFieldAccess matches a call of the shape <expr>.<field>.<method>()
// where <field> is an annotated RCU field, returning the field and the
// atomic.Pointer method name.
func rcuFieldAccess(pass *analysis.Pass, call *ast.CallExpr, rcu map[*types.Var]bool) (field *types.Var, method string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	recv, isSel := unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	s, found := pass.Info.Selections[recv]
	if !found || s.Kind() != types.FieldVal {
		return nil, "", false
	}
	v, isVar := s.Obj().(*types.Var)
	if !isVar || !rcu[v] {
		return nil, "", false
	}
	return v, sel.Sel.Name, true
}

func checkRcuFunc(pass *analysis.Pass, sup *suppressor, fd *ast.FuncDecl, rcu map[*types.Var]bool, entryHeld bool) {
	loads := make(map[*types.Var]int)     // per-field Load count
	snapVars := make(map[*types.Var]bool) // variables bound to a loaded snapshot

	// First sweep: classify every atomic.Pointer access on an RCU field
	// and record which variables hold loaded snapshots. Mutation ops
	// additionally need a mutex held, so they ride the held-tracking
	// walker.
	scanHeld(pass.Info, fd.Body.List, make(map[string]token.Pos), func(n ast.Node, held map[string]token.Pos) {
		inspectSkipFuncLit(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			field, method, ok := rcuFieldAccess(pass, call, rcu)
			if !ok {
				return true
			}
			switch method {
			case "Load":
				loads[field]++
				if loads[field] > 1 {
					sup.report(pass, call.Pos(), "%s Loads RCU field %s more than once; load one snapshot and reuse it", fd.Name.Name, field.Name())
				}
			case "Store", "Swap", "CompareAndSwap":
				if !entryHeld && len(held) == 0 {
					sup.report(pass, call.Pos(), "%s of RCU field %s without holding its guard mutex", method, field.Name())
				}
			}
			return true
		})
	})

	// Record snapshot variables: v := x.field.Load() in any assignment
	// shape (:=, =, if-init, ...).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if _, method, ok := rcuFieldAccess(pass, call, rcu); !ok || method != "Load" {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if v, ok := pass.Info.Defs[id].(*types.Var); ok && v != nil {
					snapVars[v] = true
				} else if v, ok := pass.Info.Uses[id].(*types.Var); ok && v != nil {
					snapVars[v] = true
				}
			}
		}
		return true
	})
	if len(snapVars) == 0 {
		return
	}

	// Second sweep: no writes through a loaded snapshot. The LHS chain
	// is unwrapped (selectors, indexing, dereference) to its root
	// identifier; rebinding the variable itself is fine, mutating what
	// it points at is not.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var lhss []ast.Expr
		var pos token.Pos
		switch x := n.(type) {
		case *ast.AssignStmt:
			lhss, pos = x.Lhs, x.TokPos
		case *ast.IncDecStmt:
			lhss, pos = []ast.Expr{x.X}, x.TokPos
		default:
			return true
		}
		for _, lhs := range lhss {
			root, depth := rootIdent(lhs)
			if root == nil || depth == 0 {
				continue
			}
			v, _ := pass.Info.Uses[root].(*types.Var)
			if v != nil && snapVars[v] {
				if sup.suppressed(pos) {
					continue
				}
				pass.Reportf(pos, "write through RCU snapshot %s; loaded snapshots are frozen — copy, modify, then Store the copy", root.Name)
			}
		}
		return true
	})
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier, reporting how many unwrap steps were taken.
func rootIdent(e ast.Expr) (*ast.Ident, int) {
	depth := 0
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, depth
		case *ast.SelectorExpr:
			e = x.X
			depth++
		case *ast.IndexExpr:
			e = x.X
			depth++
		case *ast.StarExpr:
			e = x.X
			depth++
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, depth
		}
	}
}
