// Package index provides a B+-tree for secondary indexes. The paper uses
// one on (function name, attribute name) pairs to search the Summary
// Database (Section 3.2) and notes that "normal" indexes do little for
// full-column statistical scans but remain essential for the
// informational and cache-lookup paths.
//
// Keys are byte strings ordered lexicographically; values are opaque
// int64 payloads (RIDs, offsets, cache slots). Composite keys are built
// with Key, which escapes separators so component boundaries sort
// correctly.
package index

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// degree is the maximum number of children of an interior node. Chosen
// small enough to exercise splits in tests while keeping trees shallow.
const degree = 32

// BTree is an in-memory B+-tree mapping byte-string keys to int64 values.
// Duplicate keys are rejected; callers that need multi-maps append a
// discriminator to the key. The zero value is not usable; call New.
type BTree struct {
	root *node
	size int
}

type node struct {
	leaf     bool
	keys     [][]byte
	vals     []int64 // leaf only, parallel to keys
	children []*node // interior only, len(keys)+1
	next     *node   // leaf chain for range scans
}

// New creates an empty tree.
func New() *BTree {
	return &BTree{root: &node{leaf: true}}
}

// Len returns the number of stored keys.
func (t *BTree) Len() int { return t.size }

// Key builds a composite key from parts. Parts are joined with 0x00 and
// any embedded 0x00 is escaped (0x00 -> 0x00 0xFF), so prefixes of parts
// never collide and component-wise ordering is preserved.
func Key(parts ...string) []byte {
	var b bytes.Buffer
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(0)
		}
		if strings.IndexByte(p, 0) < 0 {
			b.WriteString(p)
			continue
		}
		for j := 0; j < len(p); j++ {
			b.WriteByte(p[j])
			if p[j] == 0 {
				b.WriteByte(0xFF)
			}
		}
	}
	return b.Bytes()
}

func (n *node) find(key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
}

// Get returns the value stored under key.
func (t *BTree) Get(key []byte) (int64, bool) {
	n := t.root
	for !n.leaf {
		i := n.find(key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			i++
		}
		n = n.children[i]
	}
	i := n.find(key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		return n.vals[i], true
	}
	return 0, false
}

// Insert stores value under key, failing if the key exists.
func (t *BTree) Insert(key []byte, value int64) error {
	if _, ok := t.Get(key); ok {
		return fmt.Errorf("index: duplicate key %q", key)
	}
	k := append([]byte(nil), key...)
	if sep, right := t.insert(t.root, k, value); right != nil {
		t.root = &node{
			keys:     [][]byte{sep},
			children: []*node{t.root, right},
		}
	}
	t.size++
	return nil
}

// Put stores value under key, replacing any existing value.
func (t *BTree) Put(key []byte, value int64) {
	if t.replace(t.root, key, value) {
		return
	}
	if err := t.Insert(key, value); err != nil {
		//lint:allow no-panic replace said absent, so a duplicate here is a broken tree invariant, not bad data
		panic(err)
	}
}

func (t *BTree) replace(n *node, key []byte, value int64) bool {
	for !n.leaf {
		i := n.find(key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			i++
		}
		n = n.children[i]
	}
	i := n.find(key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		n.vals[i] = value
		return true
	}
	return false
}

// insert adds key/value under n; when n splits it returns the separator
// key and the new right sibling.
func (t *BTree) insert(n *node, key []byte, value int64) ([]byte, *node) {
	if n.leaf {
		i := n.find(key)
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = value
		if len(n.keys) < degree {
			return nil, nil
		}
		return n.splitLeaf()
	}
	i := n.find(key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		i++
	}
	sep, right := t.insert(n.children[i], key, value)
	if right == nil {
		return nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.children) <= degree {
		return nil, nil
	}
	return n.splitInterior()
}

func (n *node) splitLeaf() ([]byte, *node) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: append([][]byte(nil), n.keys[mid:]...),
		vals: append([]int64(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	n.next = right
	return right.keys[0], right
}

func (n *node) splitInterior() ([]byte, *node) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// Scan visits all entries with start <= key < end in order (nil end means
// no upper bound). fn returning false stops the scan.
func (t *BTree) Scan(start, end []byte, fn func(key []byte, value int64) bool) {
	n := t.root
	for !n.leaf {
		i := n.find(start)
		if i < len(n.keys) && bytes.Equal(n.keys[i], start) {
			i++
		}
		n = n.children[i]
	}
	for ; n != nil; n = n.next {
		for i := range n.keys {
			if bytes.Compare(n.keys[i], start) < 0 {
				continue
			}
			if end != nil && bytes.Compare(n.keys[i], end) >= 0 {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
	}
}

// ScanPrefix visits all entries whose key begins with the composite
// prefix parts (e.g. all functions cached for one attribute when keys are
// Key(attr, fn)).
func (t *BTree) ScanPrefix(prefix []byte, fn func(key []byte, value int64) bool) {
	t.Scan(prefix, nil, func(k []byte, v int64) bool {
		if !bytes.HasPrefix(k, prefix) {
			return false
		}
		return fn(k, v)
	})
}
