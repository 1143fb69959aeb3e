// Package rcusnap is the golden fixture for the rcusnap analyzer.
package rcusnap

import (
	"sync"
	"sync/atomic"
)

type node struct {
	next *node
	val  int
}

// B publishes an RCU pointer guarded by mu.
type B struct {
	mu sync.Mutex
	// index is the RCU-published root.
	//dewsvet:rcu
	index atomic.Pointer[node]
	// plain carries no annotation: no discipline enforced.
	plain atomic.Pointer[node]
}

func (b *B) goodStore(n *node) {
	b.mu.Lock()
	b.index.Store(n)
	b.mu.Unlock()
}

func (b *B) badStore(n *node) {
	b.index.Store(n) // want `Store of RCU field index without holding its guard mutex`
}

func (b *B) badCAS(old, n *node) {
	b.index.CompareAndSwap(old, n) // want `CompareAndSwap of RCU field index without holding its guard mutex`
}

// swapLocked installs n; caller holds b.mu.
func (b *B) swapLocked(n *node) {
	b.index.Store(n)
}

func (b *B) plainStore(n *node) {
	b.plain.Store(n)
}

// double violates the one-snapshot rule: the two Loads can observe
// two different generations.
func (b *B) double() int {
	a := b.index.Load()
	c := b.index.Load() // want `double Loads RCU field index more than once`
	if a == nil || c == nil {
		return 0
	}
	return a.val + c.val
}

// walkTwice is an ordinary helper, not a publish path: its second walk
// can still see a newer generation than its first.
func walkTwice(b *B) int {
	n := 0
	for s := b.index.Load(); s != nil; s = s.next {
		n++
	}
	for s := b.index.Load(); s != nil; s = s.next { // want `walkTwice Loads RCU field index more than once`
		n--
	}
	return n
}

func (b *B) single() int {
	root := b.index.Load()
	if root == nil {
		return 0
	}
	return root.val
}

func (b *B) writeThrough() {
	s := b.index.Load()
	s.val = 1 // want `write through RCU snapshot s`
	b.mu.Lock()
	b.index.Store(s)
	b.mu.Unlock()
}

// rebind: reassigning the snapshot variable itself walks the structure
// and is fine; only writes through it are mutations.
func (b *B) rebind() int {
	s := b.index.Load()
	for s != nil && s.next != nil {
		s = s.next
	}
	if s == nil {
		return 0
	}
	return s.val
}

func (b *B) allowlisted() {
	s := b.index.Load()
	//dewsvet:rcusnap-ok single-owner before first publish
	s.val = 2
}
