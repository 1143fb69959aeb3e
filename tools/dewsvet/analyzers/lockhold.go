package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/tools/dewsvet/analysis"
)

// Lockhold flags blocking operations executed while a sync.Mutex or
// sync.RWMutex is held: channel sends/receives, select, sleeps,
// file/network I/O (including fsync), and invocations of user-supplied
// callbacks. Mutexes in this codebase guard short critical sections on
// hot paths (the broker's subscription table, the WAL sequencer, SSE
// frame caches); anything that can park the goroutine while holding one
// turns every other publisher into a convoy.
//
// Beyond direct operations, the analyzer propagates blockingness
// through package-local static calls: a function containing an
// unsuppressed blocking operation must not be called with a lock held
// either. Functions that run with the caller's lock by convention (a
// name ending in "Locked", or a doc comment saying "caller holds X")
// are analyzed as lock-held-from-entry and reported at their
// definition, not at every call site.
//
// Deliberate cases — the WAL sequencer's buffered-writer handoff,
// segment rotation under the log mutex — carry
// //dewsvet:lockhold-ok <reason> on the operation's line.
var Lockhold = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "blocking operation (I/O, channel, callback) while a mutex is held",
	Run:  runLockhold,
}

// knownBlockingCalls maps fully-qualified callees to a short reason.
// Entries cover the standard library surfaces this repository touches
// plus the repository's own cross-package blocking APIs (the WAL).
var knownBlockingCalls = map[string]string{
	// fsync and file I/O
	"(*os.File).Sync":        "fsync",
	"(*os.File).Write":       "file write",
	"(*os.File).WriteString": "file write",
	"(*os.File).WriteAt":     "file write",
	"(*os.File).Read":        "file read",
	"(*os.File).ReadAt":      "file read",
	"(*os.File).Truncate":    "file truncate",
	"(*os.File).Close":       "file close",
	"os.Open":                "file open",
	"os.OpenFile":            "file open",
	"os.Create":              "file create",
	"os.Remove":              "file remove",
	"os.RemoveAll":           "file remove",
	"os.Rename":              "file rename",
	"os.Mkdir":               "mkdir",
	"os.MkdirAll":            "mkdir",
	"os.ReadFile":            "file read",
	"os.WriteFile":           "file write",
	"os.ReadDir":             "directory read",
	"os.Stat":                "stat",
	"os.Lstat":               "stat",
	"path/filepath.Glob":     "directory scan",
	// buffered I/O that reaches the underlying file
	"(*bufio.Writer).Flush":       "buffered-writer flush",
	"(*bufio.Writer).Write":       "buffered write",
	"(*bufio.Writer).WriteString": "buffered write",
	"(*bufio.Reader).Read":        "buffered read",
	"(*bufio.Reader).ReadBytes":   "buffered read",
	"(*bufio.Reader).ReadString":  "buffered read",
	"io.Copy":                     "stream copy",
	"io.ReadAll":                  "stream read",
	"io.ReadFull":                 "stream read",
	// time and sync
	"time.Sleep":             "sleep",
	"(*sync.WaitGroup).Wait": "WaitGroup wait",
	// network
	"net.Dial":                  "network dial",
	"net.DialTimeout":           "network dial",
	"net.Listen":                "network listen",
	"(*net.Dialer).Dial":        "network dial",
	"(*net.Dialer).DialContext": "network dial",
	"(net.Conn).Read":           "network read",
	"(net.Conn).Write":          "network write",
	"(net.Listener).Accept":     "network accept",
	"(*net/http.Client).Do":     "HTTP round trip",
	"(*net/http.Client).Get":    "HTTP round trip",
	"(*net/http.Client).Post":   "HTTP round trip",
	"net/http.Get":              "HTTP round trip",
	"net/http.Post":             "HTTP round trip",
	// HTTP response writing (the SSE fan-out surface)
	"(net/http.ResponseWriter).Write": "HTTP response write",
	"(net/http.Flusher).Flush":        "HTTP response flush",
	// this repository's durable APIs: every one reaches the WAL file
	"(*repro/internal/eventlog.Log).Append":      "WAL append",
	"(*repro/internal/eventlog.Log).AppendBatch": "WAL append",
	"(*repro/internal/eventlog.Log).Sync":        "WAL fsync",
	"(*repro/internal/eventlog.Log).Scan":        "WAL scan",
	"(*repro/internal/eventlog.Log).Compact":     "WAL compaction",
	"(*repro/internal/eventlog.Log).Close":       "WAL close",
}

func runLockhold(pass *analysis.Pass) error {
	sup := newSuppressor(pass, "lockhold")

	// Pass 1: which package-local functions contain an unsuppressed
	// blocking operation? Allowlisted operations deliberately do not
	// propagate — one reasoned //dewsvet:lockhold-ok at the operation
	// blesses the callers that hold the lock by design (the sequencer
	// handoff pattern). Lock-held-at-entry functions are reported at
	// their own definition and excluded from propagation so one root
	// cause yields one finding.
	type fnDecl struct {
		decl  *ast.FuncDecl
		obj   *types.Func
		entry string // lock key when held at entry
	}
	var fns []fnDecl
	blocking := make(map[*types.Func]string) // func → why it blocks
	entryHeld := make(map[*types.Func]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := funcObj(pass.Info, fd)
			if obj == nil {
				continue
			}
			entry := ""
			if key, ok := heldAtEntry(fd); ok {
				entry = key
				entryHeld[obj] = true
			}
			fns = append(fns, fnDecl{fd, obj, entry})
			if docHasMarker(fd.Doc, "dewsvet:lockhold-ok") {
				continue // whole function allowlisted: neither reported nor propagated
			}
			if why, pos := firstBlockingOp(pass, sup, fd); pos.IsValid() {
				if entry == "" {
					blocking[obj] = why
				}
			}
		}
	}

	// Fixpoint: calling a blocking function makes the caller blocking.
	calls := make(map[*types.Func]map[*types.Func]bool)
	for _, fn := range fns {
		inspectSkipFuncLit(fn.decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				return false // go f() does not block the spawner
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pass.Info, call)
			if callee == nil || callee.Pkg() != pass.Pkg || sup.suppressed(call.Pos()) {
				return true
			}
			m := calls[fn.obj]
			if m == nil {
				m = make(map[*types.Func]bool)
				calls[fn.obj] = m
			}
			m[callee] = true
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if _, ok := blocking[fn.obj]; ok || fn.entry != "" {
				continue
			}
			if docHasMarker(fn.decl.Doc, "dewsvet:lockhold-ok") {
				continue
			}
			for callee := range calls[fn.obj] {
				if entryHeld[callee] {
					continue
				}
				if why, ok := blocking[callee]; ok {
					blocking[fn.obj] = "calls " + callee.Name() + ": " + rootWhy(why)
					changed = true
					break
				}
			}
		}
	}

	// Pass 2: report blocking constructs reached while a lock is held.
	for _, fn := range fns {
		if docHasMarker(fn.decl.Doc, "dewsvet:lockhold-ok") {
			continue
		}
		entryLocks := make(map[string]token.Pos)
		if fn.entry != "" {
			entryLocks[fn.entry] = fn.decl.Pos()
		}
		cur := fn.obj
		scanHeld(pass.Info, fn.decl.Body.List, entryLocks, func(n ast.Node, held map[string]token.Pos) {
			if len(held) == 0 {
				return
			}
			lock := heldKeys(held)
			checkBlockingNode(pass, sup, n, lock, cur, blocking, entryHeld)
		})
	}
	return nil
}

// rootWhy strips nested "calls f: " prefixes so propagated messages
// stay readable ("calls g: fsync" rather than "calls g: calls h: fsync").
func rootWhy(why string) string {
	for {
		rest, ok := strings.CutPrefix(why, "calls ")
		if !ok {
			return why
		}
		_, after, found := strings.Cut(rest, ": ")
		if !found {
			return why
		}
		why = after
	}
}

func heldKeys(held map[string]token.Pos) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// firstBlockingOp scans a function body for any unsuppressed blocking
// construct, ignoring where locks are held; used to seed propagation.
func firstBlockingOp(pass *analysis.Pass, sup *suppressor, fd *ast.FuncDecl) (why string, at token.Pos) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if at.IsValid() {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false // a literal blocks its invoker, not its definer
		case *ast.GoStmt:
			return false // a spawned goroutine blocks itself, not fd
		}
		if w, pos, ok := directBlocking(pass, n); ok && !sup.suppressed(pos) {
			why, at = w, pos
			return false
		}
		return true
	})
	return why, at
}

// directBlocking classifies one node as an intrinsically blocking
// construct.
func directBlocking(pass *analysis.Pass, n ast.Node) (why string, pos token.Pos, ok bool) {
	switch x := n.(type) {
	case *ast.SendStmt:
		return "channel send", x.Arrow, true
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive", x.OpPos, true
		}
	case *ast.SelectStmt:
		return "select", x.Select, true
	case *ast.CallExpr:
		if callee := staticCallee(pass.Info, x); callee != nil {
			if reason, known := knownBlockingCalls[callee.FullName()]; known {
				return "blocking call to " + callee.FullName() + " (" + reason + ")", x.Pos(), true
			}
		} else if name, dyn := dynamicCallee(pass.Info, x); dyn {
			return "call of function value " + name + " (user callback)", x.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// checkBlockingNode reports blocking constructs inside n, which
// executes while lock is held. cur is the enclosing function (so
// self-recursion is not reported via propagation).
func checkBlockingNode(pass *analysis.Pass, sup *suppressor, n ast.Node, lock string, cur *types.Func, blocking map[*types.Func]string, entryHeld map[*types.Func]bool) {
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		if rh, ok := n.(rangeHeader); ok {
			// range over a channel blocks like a receive.
			if t := pass.Info.TypeOf(rh.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					sup.report(pass, rh.Pos(), "range over channel while %s is held", lock)
				}
			}
			visit(rh.X)
			return
		}
		// A select passed straight from scanHeld: report the construct
		// here; scanHeld visits the clause bodies separately.
		if sel, ok := n.(*ast.SelectStmt); ok {
			sup.report(pass, sel.Select, "select while %s is held", lock)
			return
		}
		inspectSkipFuncLit(n, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				for _, arg := range g.Call.Args {
					visit(arg)
				}
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				// An immediately-invoked literal runs here, under the lock.
				if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
					for _, arg := range call.Args {
						visit(arg)
					}
					visit(lit.Body)
					return false
				}
				if callee := staticCallee(pass.Info, call); callee != nil && callee != cur {
					if why, ok := blocking[callee]; ok && !entryHeld[callee] && callee.Pkg() == pass.Pkg {
						sup.report(pass, call.Pos(), "call to %s, which blocks (%s), while %s is held", callee.Name(), rootWhy(why), lock)
						return true
					}
				}
			}
			if why, pos, ok := directBlocking(pass, n); ok {
				sup.report(pass, pos, "%s while %s is held", why, lock)
				if _, isSel := n.(*ast.SelectStmt); isSel {
					return false // its cases are part of the same finding
				}
			}
			return true
		})
	}
	visit(n)
}
