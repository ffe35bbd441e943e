// Package meta implements a SUBJECT-style meta-database (Section 2.3,
// [CHAN81]): the attributes of a large statistical database are nodes of
// a graph; higher-level nodes represent generalizations of lower-level
// nodes. A user enters at a high level and navigates down to the desired
// detail; the system tracks the path and, at the end of the session, can
// generate the view request the path describes.
package meta

import (
	"fmt"
	"sort"
	"strings"
)

// NodeKind distinguishes generalization ("category") nodes from leaf
// attribute nodes bound to physical data.
type NodeKind uint8

const (
	// Generalization nodes group lower-level nodes ("Demographics",
	// "Income").
	Generalization NodeKind = iota
	// AttributeNode is a leaf bound to (file, attribute) in the raw
	// database.
	AttributeNode
)

// Node is one vertex of the meta-graph.
type Node struct {
	Name        string
	Kind        NodeKind
	Description string
	// File and Attribute bind attribute nodes to physical storage.
	File      string
	Attribute string

	parents  map[string]*Node
	children map[string]*Node
}

// Graph is the navigable meta-database. Safe for single-session use.
type Graph struct {
	nodes map[string]*Node
	roots map[string]*Node
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]*Node), roots: make(map[string]*Node)}
}

// AddGeneralization adds a generalization node.
func (g *Graph) AddGeneralization(name, description string) (*Node, error) {
	return g.add(&Node{Name: name, Kind: Generalization, Description: description})
}

// AddAttribute adds a leaf node bound to file.attribute.
func (g *Graph) AddAttribute(name, description, file, attribute string) (*Node, error) {
	if file == "" || attribute == "" {
		return nil, fmt.Errorf("meta: attribute node %q needs a file and attribute binding", name)
	}
	return g.add(&Node{Name: name, Kind: AttributeNode, Description: description, File: file, Attribute: attribute})
}

func (g *Graph) add(n *Node) (*Node, error) {
	if n.Name == "" {
		return nil, fmt.Errorf("meta: node needs a name")
	}
	if _, dup := g.nodes[n.Name]; dup {
		return nil, fmt.Errorf("meta: node %q already exists", n.Name)
	}
	n.parents = make(map[string]*Node)
	n.children = make(map[string]*Node)
	g.nodes[n.Name] = n
	g.roots[n.Name] = n
	return n, nil
}

// Link makes child a refinement of parent. Cycles are rejected so
// navigation always terminates.
func (g *Graph) Link(parent, child string) error {
	p, ok := g.nodes[parent]
	if !ok {
		return fmt.Errorf("meta: no node %q", parent)
	}
	c, ok := g.nodes[child]
	if !ok {
		return fmt.Errorf("meta: no node %q", child)
	}
	if p.Kind == AttributeNode {
		return fmt.Errorf("meta: attribute node %q cannot have children", parent)
	}
	if g.reaches(c, p) {
		return fmt.Errorf("meta: linking %q under %q would create a cycle", child, parent)
	}
	p.children[child] = c
	c.parents[parent] = p
	delete(g.roots, child)
	return nil
}

// Unlink removes the parent-child edge — the "primitive operations that
// enable management of the graph" of [CHAN81].
//
//lint:allow test-only paper-named: meta-data graph management primitive of [CHAN81]
func (g *Graph) Unlink(parent, child string) error {
	p, ok := g.nodes[parent]
	if !ok {
		return fmt.Errorf("meta: no node %q", parent)
	}
	c, ok := p.children[child]
	if !ok {
		return fmt.Errorf("meta: %q is not a child of %q", child, parent)
	}
	delete(p.children, child)
	delete(c.parents, parent)
	if len(c.parents) == 0 {
		g.roots[child] = c
	}
	return nil
}

func (g *Graph) reaches(from, to *Node) bool {
	if from == to {
		return true
	}
	for _, ch := range from.children {
		if g.reaches(ch, to) {
			return true
		}
	}
	return false
}

// Children lists the refinements of a node.
//
//lint:allow test-only paper-named: meta-data navigation (SUBJECT-style descent lists a node's refinements)
func (g *Graph) Children(name string) ([]string, error) {
	n, ok := g.nodes[name]
	if !ok {
		return nil, fmt.Errorf("meta: no node %q", name)
	}
	out := make([]string, 0, len(n.children))
	for c := range n.children {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}

// LeavesUnder returns all attribute nodes reachable from name.
func (g *Graph) LeavesUnder(name string) ([]*Node, error) {
	n, ok := g.nodes[name]
	if !ok {
		return nil, fmt.Errorf("meta: no node %q", name)
	}
	seen := map[string]bool{}
	var out []*Node
	var walk func(*Node)
	walk = func(cur *Node) {
		if seen[cur.Name] {
			return
		}
		seen[cur.Name] = true
		if cur.Kind == AttributeNode {
			out = append(out, cur)
			return
		}
		for _, ch := range cur.children {
			walk(ch)
		}
	}
	walk(n)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// DOT renders the graph in Graphviz format (generalization nodes as
// ellipses, attribute leaves as boxes labelled with their physical
// binding), so the meta-database can be visualized the way SUBJECT's
// users navigated it.
//
//lint:allow test-only paper-named: meta-data navigation, rendered the way SUBJECT's users saw it
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph meta {\n  rankdir=TB;\n")
	names := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		n := g.nodes[name]
		if n.Kind == AttributeNode {
			fmt.Fprintf(&b, "  %q [shape=box, label=\"%s\\n%s.%s\"];\n", n.Name, n.Name, n.File, n.Attribute)
		} else {
			fmt.Fprintf(&b, "  %q [shape=ellipse];\n", n.Name)
		}
	}
	for _, name := range names {
		n := g.nodes[name]
		kids := make([]string, 0, len(n.children))
		for c := range n.children {
			kids = append(kids, c)
		}
		sort.Strings(kids)
		for _, c := range kids {
			fmt.Fprintf(&b, "  %q -> %q;\n", n.Name, c)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Session is one navigation through the graph. SUBJECT "keeps track of
// the path followed by the user and at the end of the session can
// generate requests to the DBMS for the view described by his path".
type Session struct {
	graph *Graph
	path  []*Node
	// marked are the attribute nodes the user selected along the way.
	marked []*Node
}

// NewSession starts navigation at a root node.
func (g *Graph) NewSession(root string) (*Session, error) {
	n, ok := g.nodes[root]
	if !ok {
		return nil, fmt.Errorf("meta: no node %q", root)
	}
	if _, isRoot := g.roots[root]; !isRoot {
		return nil, fmt.Errorf("meta: %q is not an entry point", root)
	}
	return &Session{graph: g, path: []*Node{n}}, nil
}

// Current returns the node the session is at.
func (s *Session) Current() *Node { return s.path[len(s.path)-1] }

// Descend moves to a child of the current node.
func (s *Session) Descend(child string) error {
	c, ok := s.Current().children[child]
	if !ok {
		return fmt.Errorf("meta: %q is not a refinement of %q", child, s.Current().Name)
	}
	s.path = append(s.path, c)
	return nil
}

// Ascend moves back up one level.
//
//lint:allow test-only paper-named: meta-data navigation, the inverse of Descend
func (s *Session) Ascend() error {
	if len(s.path) <= 1 {
		return fmt.Errorf("meta: already at the entry point")
	}
	s.path = s.path[:len(s.path)-1]
	return nil
}

// Mark selects the current node's attributes for the generated view: a
// leaf marks itself; a generalization marks every leaf beneath it.
func (s *Session) Mark() error {
	leaves, err := s.graph.LeavesUnder(s.Current().Name)
	if err != nil {
		return err
	}
	if len(leaves) == 0 {
		return fmt.Errorf("meta: no attributes under %q", s.Current().Name)
	}
	s.marked = append(s.marked, leaves...)
	return nil
}

// Path renders the navigation trail.
func (s *Session) Path() string {
	parts := make([]string, len(s.path))
	for i, n := range s.path {
		parts[i] = n.Name
	}
	return strings.Join(parts, " > ")
}

// ViewRequest is the DBMS request a session generates: which attributes
// of which raw files to materialize.
type ViewRequest struct {
	// Attributes maps raw file name to the attribute names to project.
	Attributes map[string][]string
}

// Request generates the view request described by the session's marks.
func (s *Session) Request() (ViewRequest, error) {
	if len(s.marked) == 0 {
		return ViewRequest{}, fmt.Errorf("meta: nothing marked; descend and Mark first")
	}
	req := ViewRequest{Attributes: make(map[string][]string)}
	seen := map[string]bool{}
	for _, n := range s.marked {
		key := n.File + "\x00" + n.Attribute
		if seen[key] {
			continue
		}
		seen[key] = true
		req.Attributes[n.File] = append(req.Attributes[n.File], n.Attribute)
	}
	for f := range req.Attributes {
		sort.Strings(req.Attributes[f])
	}
	return req, nil
}
