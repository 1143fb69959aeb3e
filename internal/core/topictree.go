package core

// The subscription index is a segment-based topic trie, kept as an
// immutable snapshot: the broker holds the current root behind an
// atomic.Pointer, publishers match against whatever root they load
// (lock-free, RCU-style), and Subscribe/Unsubscribe build a new root by
// path-copying only the nodes along the changed pattern. A nil root is
// the empty tree.
//
// Pattern semantics are MQTT's: '+' descends into a dedicated
// single-level child, '#' terminates at the node covering its parent
// level ("obs/#" matches "obs" itself). Matching a concrete topic walks
// the exact child and the '+' child at every level, so cost is
// O(depth × branching of wildcards + matches) and — unlike a linear
// scan over all subscriptions — independent of the total subscription
// count. Topics and patterns are walked with cutSeg (substrings of the
// original string), so matching allocates nothing.
//
// Children live in a slice sorted by segment, not a map: cloning a node
// on the copy-on-write path is then one memmove instead of rehashing
// every key (a 1000-child node clones in ~1µs rather than ~100µs), and
// matching binary-searches without touching the hash. The slice is the
// right shape for snapshots — wide nodes are cheap to copy and the
// publish path never mutates.
//
// Immutability invariants: a node reachable from a published root is
// never mutated. trieInsert/trieRemove clone every node they touch
// (children slice copied, entry slices replaced wholesale), so
// concurrent matchers iterating an old snapshot see a frozen, complete
// tree. Mutations are serialized by the broker (subMu); only the
// matchers are concurrent.
type trieNode struct {
	// children holds exact-segment subtrees, sorted by segment.
	children []trieChild
	// plus is the subtree for the '+' single-segment wildcard.
	plus *trieNode
	// subs holds entries whose pattern ends exactly at this node.
	subs []*subEntry
	// hashSubs holds entries whose pattern ends with '#' at this level;
	// they match any remainder, including none.
	hashSubs []*subEntry
}

// trieChild binds one exact segment to its subtree. Like trieNode it is
// frozen once reachable from a published root.
type trieChild struct {
	// seg is a substring of some registered pattern, which the tree
	// retains via subEntry anyway, so storing it directly pins nothing
	// extra.
	seg  string
	node *trieNode
}

// childPos binary-searches children for seg, returning its position and
// whether it is present (when absent, pos is the insertion point).
func (n *trieNode) childPos(seg string) (int, bool) {
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.children[mid].seg < seg {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.children) && n.children[lo].seg == seg
}

// child returns the subtree for an exact segment, or nil.
func (n *trieNode) child(seg string) *trieNode {
	if pos, ok := n.childPos(seg); ok {
		return n.children[pos].node
	}
	return nil
}

// empty reports whether the node holds no entries and no subtrees.
func (n *trieNode) empty() bool {
	return len(n.subs) == 0 && len(n.hashSubs) == 0 && len(n.children) == 0 && n.plus == nil
}

// clone returns a shallow copy safe to mutate: the children slice is
// copied (subtrees still shared), entry slices are shared until
// replaced. Cloning nil yields a fresh empty node, so insertion grows
// the tree without nil special cases.
func (n *trieNode) clone() *trieNode {
	if n == nil {
		return &trieNode{}
	}
	c := &trieNode{plus: n.plus, subs: n.subs, hashSubs: n.hashSubs}
	if len(n.children) > 0 {
		c.children = make([]trieChild, len(n.children))
		copy(c.children, n.children)
	}
	return c
}

// appendEntry returns a fresh slice with e appended. The copy is what
// makes snapshots safe: the old slice (shared by the previous root) is
// never written, even in its spare capacity.
func appendEntry(s []*subEntry, e *subEntry) []*subEntry {
	out := make([]*subEntry, len(s)+1)
	copy(out, s)
	out[len(s)] = e
	return out
}

// removeEntry returns a fresh slice without the entry of the given id
// (nil when that empties it).
func removeEntry(s []*subEntry, id int) []*subEntry {
	for i, e := range s {
		if e.id == id {
			if len(s) == 1 {
				return nil
			}
			out := make([]*subEntry, 0, len(s)-1)
			out = append(out, s[:i]...)
			return append(out, s[i+1:]...)
		}
	}
	return s
}

// trieInsert returns a new root with e registered under its (already
// validated) pattern; rest is the unconsumed pattern remainder and has
// reports whether any segments remain. The old root is untouched.
func trieInsert(n *trieNode, rest string, has bool, e *subEntry) *trieNode {
	c := n.clone()
	if !has {
		c.subs = appendEntry(c.subs, e)
		return c
	}
	seg, next, more := cutSeg(rest)
	switch seg {
	case "#": // validated: always the final segment
		c.hashSubs = appendEntry(c.hashSubs, e)
	case "+":
		c.plus = trieInsert(c.plus, next, more, e)
	default:
		pos, ok := c.childPos(seg)
		if ok {
			c.children[pos].node = trieInsert(c.children[pos].node, next, more, e)
			break
		}
		child := trieInsert(nil, next, more, e)
		cs := make([]trieChild, len(c.children)+1)
		copy(cs, c.children[:pos])
		cs[pos] = trieChild{seg: seg, node: child}
		copy(cs[pos+1:], c.children[pos:])
		c.children = cs
	}
	return c
}

// trieRemove returns a new root without the entry of the given id under
// the pattern, pruning emptied branches; nil means the whole subtree is
// gone. The old root is untouched.
func trieRemove(n *trieNode, rest string, has bool, id int) *trieNode {
	if n == nil {
		return nil
	}
	c := n.clone()
	if !has {
		c.subs = removeEntry(c.subs, id)
	} else {
		seg, next, more := cutSeg(rest)
		switch seg {
		case "#":
			c.hashSubs = removeEntry(c.hashSubs, id)
		case "+":
			c.plus = trieRemove(c.plus, next, more, id)
		default:
			if pos, ok := c.childPos(seg); ok {
				if child := trieRemove(c.children[pos].node, next, more, id); child != nil {
					c.children[pos].node = child
				} else {
					// Splicing in place is safe: clone gave us a fresh
					// slice no snapshot shares.
					c.children = append(c.children[:pos], c.children[pos+1:]...)
				}
			}
		}
	}
	if c.empty() {
		return nil
	}
	return c
}

// trieMatch appends every entry whose pattern matches the concrete
// topic to dst and returns the extended slice. Each matching entry is
// visited exactly once: patterns live at a single node, and the walk
// reaches each node along at most one path. Safe on any snapshot,
// including nil (the empty tree).
func trieMatch(n *trieNode, rest string, has bool, dst []*subEntry) []*subEntry {
	if n == nil {
		return dst
	}
	// '#' at this level covers any remainder, including none.
	dst = append(dst, n.hashSubs...)
	if !has {
		return append(dst, n.subs...)
	}
	seg, next, more := cutSeg(rest)
	if child := n.child(seg); child != nil {
		dst = trieMatch(child, next, more, dst)
	}
	if n.plus != nil {
		dst = trieMatch(n.plus, next, more, dst)
	}
	return dst
}
