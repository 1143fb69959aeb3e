// Command dewsvet is the project's static-analysis suite: three
// analyzers that machine-enforce the broker's concurrency and
// durability invariants (see ARCHITECTURE.md, "Machine-checked
// invariants"). Allocation budgets are not checked here: each hot
// function's count is measured by a testing.AllocsPerRun test in its
// own package.
//
// It speaks the `go vet -vettool` protocol, so the whole tree is
// checked with:
//
//	go build -o /tmp/dewsvet ./tools/dewsvet
//	go vet -vettool=/tmp/dewsvet ./...
//
// Analyzers:
//
//	lockhold — blocking operations while a sync.Mutex/RWMutex is held
//	rcusnap  — RCU discipline on //dewsvet:rcu atomic.Pointer fields
//	wralerr  — discarded Flush/Sync/Close/Write errors in durability-
//	           critical packages
//
// Deliberate violations are suppressed with a reasoned allowlist
// comment on (or directly above) the offending line:
//
//	//dewsvet:<analyzer>-ok <reason>
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/tools/dewsvet/analyzers"
	"repro/tools/dewsvet/unitchecker"
)

func main() {
	if len(os.Args) == 2 {
		arg := os.Args[1]
		switch {
		case strings.HasPrefix(arg, "-V"):
			// cmd/go fingerprints the tool for the build cache by
			// running it with -V=full and hashing the reply; the reply
			// must change when the binary does, so embed a digest of
			// the executable itself (same scheme as x/tools'
			// unitchecker).
			printVersion()
			return
		case arg == "-flags":
			// cmd/go asks which flags the tool accepts; dewsvet has
			// none beyond the protocol itself.
			fmt.Println("[]")
			return
		case strings.HasSuffix(arg, ".cfg"):
			unitchecker.Run(arg, analyzers.All())
			return // unreachable: Run exits
		}
	}
	usage()
	os.Exit(1)
}

func printVersion() {
	digest := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				digest = fmt.Sprintf("%x", h.Sum(nil))
			}
			_ = f.Close() // read-only handle; nothing to lose
		}
	}
	fmt.Printf("dewsvet version devel comments-go-here buildID=%s\n", digest)
}

func usage() {
	fmt.Fprintf(os.Stderr, `dewsvet: project-specific static analysis for this repository.

Usage (as a go vet tool):

  go build -o /tmp/dewsvet ./tools/dewsvet
  go vet -vettool=/tmp/dewsvet ./...

Analyzers:

`)
	for _, a := range analyzers.All() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", a.Name, doc)
	}
}
