// Package analyzers holds the three dewsvet checks and their shared
// machinery: annotation/allowlist comment indexing, a held-mutex
// statement walker, and call-classification helpers.
//
// Conventions enforced across the repository:
//
//   - //dewsvet:rcu          on an atomic.Pointer field: RCU discipline
//   - //dewsvet:<name>-ok R  on/above a line (or in a function's doc
//     comment): deliberate, reasoned exception for analyzer <name>
//
// All checks are package-local: annotations are only visible to the
// package that declares them, which matches how the invariants are
// used — every annotated field is mutated only inside its own package.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/tools/dewsvet/analysis"
)

// ---------------------------------------------------------------------------
// Annotation and allowlist comments

// commentHasMarker reports whether a single comment's text carries the
// given dewsvet marker ("dewsvet:rcu", "dewsvet:lockhold-ok", ...),
// alone or followed by free text.
func commentHasMarker(text, marker string) bool {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(text)
	return text == marker || strings.HasPrefix(text, marker+" ")
}

// docHasMarker reports whether any line of a doc comment group carries
// the marker.
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if commentHasMarker(c.Text, marker) {
			return true
		}
	}
	return false
}

// suppressor indexes the //dewsvet:<name>-ok allowlist comments of one
// analyzer across the package. A finding is suppressed when the comment
// sits on the same line or on the line directly above.
type suppressor struct {
	fset  *token.FileSet
	lines map[string]map[int]bool // filename → lines carrying the marker
}

func newSuppressor(pass *analysis.Pass, analyzer string) *suppressor {
	marker := "dewsvet:" + analyzer + "-ok"
	s := &suppressor{fset: pass.Fset, lines: make(map[string]map[int]bool)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !commentHasMarker(c.Text, marker) {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				m := s.lines[p.Filename]
				if m == nil {
					m = make(map[int]bool)
					s.lines[p.Filename] = m
				}
				m[p.Line] = true
			}
		}
	}
	return s
}

func (s *suppressor) suppressed(pos token.Pos) bool {
	p := s.fset.Position(pos)
	m := s.lines[p.Filename]
	return m != nil && (m[p.Line] || m[p.Line-1])
}

// report emits a finding unless an allowlist comment covers it.
func (s *suppressor) report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if s.suppressed(pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}

// ---------------------------------------------------------------------------
// Function conventions

var callerHoldsRe = regexp.MustCompile(`(?i)caller(?:s)?(?: must)? holds? (\S+)`)

// heldAtEntry reports whether fd runs, by repository convention, with a
// lock already held: its name ends in "Locked", or its doc comment says
// "caller holds <lock>". The returned key names the lock for messages.
func heldAtEntry(fd *ast.FuncDecl) (string, bool) {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return "the caller's lock", true
	}
	if fd.Doc != nil {
		if m := callerHoldsRe.FindStringSubmatch(fd.Doc.Text()); m != nil {
			return strings.TrimRight(m[1], ".,;:"), true
		}
	}
	return "", false
}

// funcObj returns the *types.Func a declaration defines, or nil.
func funcObj(info *types.Info, fd *ast.FuncDecl) *types.Func {
	f, _ := info.Defs[fd.Name].(*types.Func)
	return f
}

// ---------------------------------------------------------------------------
// Call classification

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// staticCallee resolves a call to the *types.Func it statically invokes
// (plain function, method, or promoted method), or nil for dynamic
// calls, conversions, and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// dynamicCallee reports a call through a function-typed value (a
// parameter, field, or variable — the shape of a user callback) and
// returns its display name. Interface method calls and static calls are
// not dynamic in this sense.
func dynamicCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	fun := unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return "", false
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[f].(*types.Var); ok {
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				return f.Name, true
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.FieldVal {
			if _, ok := sel.Type().Underlying().(*types.Signature); ok {
				return types.ExprString(f), true
			}
		}
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Held-mutex statement walking

// lockDelta classifies a call as a mutex acquire (+1) or release (-1)
// and names the mutex by its receiver expression ("l.mu"). TryLock
// variants are ignored: treating a conditional acquire as held would
// be wrong on the failure branch, so lockhold under-approximates there.
func lockDelta(info *types.Info, call *ast.CallExpr) (key string, delta int, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	f, _ := info.Uses[sel.Sel].(*types.Func)
	if f == nil {
		return "", 0, false
	}
	switch f.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		return types.ExprString(sel.X), +1, true
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		return types.ExprString(sel.X), -1, true
	}
	return "", 0, false
}

// rangeHeader wraps the range-expression of a `for range` statement so
// visitors can tell `range ch` (a blocking receive on channels) apart
// from an ordinary use of ch. It is only ever produced by scanHeld;
// visitors must unwrap it before calling ast.Inspect.
type rangeHeader struct{ X ast.Expr }

func (r rangeHeader) Pos() token.Pos { return r.X.Pos() }
func (r rangeHeader) End() token.Pos { return r.X.End() }

// heldVisitor receives every executable node of a function body at
// statement granularity along with the set of mutexes held at that
// point (receiver-expression key → position of the acquiring Lock).
// Nested blocks are visited with a copy of the held set, so a Lock
// inside a branch never leaks past it.
type heldVisitor func(n ast.Node, held map[string]token.Pos)

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// scanHeld walks stmts tracking Lock/Unlock pairs. A deferred Unlock
// keeps its mutex held to the end of the enclosing scope. Deferred
// non-lock calls are visited with the current held set: a defer
// registered while a lock is held runs (LIFO) before the deferred
// Unlock that releases it. `go` statements only have their arguments
// visited — the spawned goroutine does not inherit the caller's locks.
func scanHeld(info *types.Info, stmts []ast.Stmt, held map[string]token.Pos, visit heldVisitor) {
	for _, st := range stmts {
		scanStmt(info, st, held, visit)
	}
}

func scanStmt(info *types.Info, st ast.Stmt, held map[string]token.Pos, visit heldVisitor) {
	switch s := st.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			if key, delta, ok := lockDelta(info, call); ok {
				if delta > 0 {
					held[key] = call.Pos()
				} else {
					delete(held, key)
				}
				return
			}
		}
		visit(s.X, held)
	case *ast.DeferStmt:
		if _, delta, ok := lockDelta(info, s.Call); ok && delta < 0 {
			return // deferred unlock: held through the rest of the scope
		}
		visit(s.Call, held)
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			visit(arg, held)
		}
	case *ast.BlockStmt:
		scanHeld(info, s.List, held, visit) // same scope: lock state persists
	case *ast.IfStmt:
		scanStmt(info, s.Init, held, visit)
		visit(s.Cond, held)
		scanHeld(info, s.Body.List, copyHeld(held), visit)
		if s.Else != nil {
			scanStmt(info, s.Else, copyHeld(held), visit)
		}
	case *ast.ForStmt:
		scanStmt(info, s.Init, held, visit)
		if s.Cond != nil {
			visit(s.Cond, held)
		}
		body := copyHeld(held)
		scanHeld(info, s.Body.List, body, visit)
		scanStmt(info, s.Post, body, visit)
	case *ast.RangeStmt:
		visit(rangeHeader{s.X}, held)
		scanHeld(info, s.Body.List, copyHeld(held), visit)
	case *ast.SwitchStmt:
		scanStmt(info, s.Init, held, visit)
		if s.Tag != nil {
			visit(s.Tag, held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				visit(e, held)
			}
			scanHeld(info, cc.Body, copyHeld(held), visit)
		}
	case *ast.TypeSwitchStmt:
		scanStmt(info, s.Init, held, visit)
		scanStmt(info, s.Assign, held, visit)
		for _, c := range s.Body.List {
			scanHeld(info, c.(*ast.CaseClause).Body, copyHeld(held), visit)
		}
	case *ast.SelectStmt:
		visit(s, held) // the select itself is the blocking operation
		for _, c := range s.Body.List {
			scanHeld(info, c.(*ast.CommClause).Body, copyHeld(held), visit)
		}
	case *ast.LabeledStmt:
		scanStmt(info, s.Stmt, held, visit)
	default:
		// AssignStmt, SendStmt, ReturnStmt, IncDecStmt, DeclStmt,
		// BranchStmt, EmptyStmt: visit whole; expressions inside carry
		// any blocking constructs.
		visit(st, held)
	}
}

// inspectSkipFuncLit walks n like ast.Inspect but does not descend into
// function-literal bodies: a literal's body runs when it is invoked,
// not where it appears. The literal node itself is still visited.
func inspectSkipFuncLit(n ast.Node, f func(ast.Node) bool) {
	if rh, ok := n.(rangeHeader); ok {
		n = rh.X
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			f(n)
			return false
		}
		return f(n)
	})
}

// namedOf unwraps pointers and returns the named type of t, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
