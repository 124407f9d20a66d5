// Package graph provides the directed-graph and polygraph machinery that
// underlies every serializability test in this library: cycle detection
// and topological sorting for serialization graphs, and exact polygraph
// acyclicity for the view-serializability and update-consistency
// checkers (Papadimitriou's formulation).
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a directed graph over dense integer node ids 0..N-1.
// The zero value is an empty graph; use NewDigraph to preallocate nodes.
type Digraph struct {
	adj [][]int // adjacency lists, adj[u] = sorted-on-demand successors of u
}

// NewDigraph returns a digraph with n nodes and no edges.
func NewDigraph(n int) *Digraph {
	return &Digraph{adj: make([][]int, n)}
}

// N reports the number of nodes.
func (g *Digraph) N() int { return len(g.adj) }

// AddEdge inserts the directed edge u -> v. Self-loops are allowed
// (they make the graph cyclic). Duplicate edges are ignored.
func (g *Digraph) AddEdge(u, v int) {
	g.checkNode(u)
	g.checkNode(v)
	for _, w := range g.adj[u] {
		if w == v {
			return
		}
	}
	g.adj[u] = append(g.adj[u], v)
}

// RemoveEdge deletes the directed edge u -> v if present, reporting
// whether it was.
func (g *Digraph) RemoveEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for i, w := range g.adj[u] {
		if w == v {
			g.adj[u] = append(g.adj[u][:i], g.adj[u][i+1:]...)
			return true
		}
	}
	return false
}

// HasEdge reports whether the edge u -> v is present.
func (g *Digraph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Successors returns the successor list of u. The returned slice is a copy.
func (g *Digraph) Successors(u int) []int {
	g.checkNode(u)
	out := make([]int, len(g.adj[u]))
	copy(out, g.adj[u])
	sort.Ints(out)
	return out
}

// Edges returns every edge as a (from, to) pair in deterministic order.
func (g *Digraph) Edges() [][2]int {
	var out [][2]int
	for u := range g.adj {
		succ := g.Successors(u)
		for _, v := range succ {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := NewDigraph(g.N())
	for u, succ := range g.adj {
		c.adj[u] = append([]int(nil), succ...)
	}
	return c
}

func (g *Digraph) checkNode(u int) {
	if u < 0 || u >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.adj)))
	}
}

// dfs colors for cycle detection.
const (
	white = iota // unvisited
	gray         // on the current DFS stack
	black        // fully explored
)

// HasCycle reports whether the graph contains a directed cycle.
func (g *Digraph) HasCycle() bool {
	_, ok := g.TopoSort()
	return !ok
}

// TopoSort returns a topological ordering of the nodes and true, or
// (nil, false) when the graph is cyclic. The ordering is deterministic:
// among available nodes, lower ids come first.
func (g *Digraph) TopoSort() ([]int, bool) {
	n := g.N()
	indeg := make([]int, n)
	for _, succ := range g.adj {
		for _, v := range succ {
			indeg[v]++
		}
	}
	// Min-heap behaviour via sorted frontier kept as a simple slice;
	// serialization graphs are small so O(n^2) is irrelevant, and the
	// deterministic order makes test output stable.
	frontier := make([]int, 0, n)
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			frontier = append(frontier, u)
		}
	}
	order := make([]int, 0, n)
	for len(frontier) > 0 {
		sort.Ints(frontier)
		u := frontier[0]
		frontier = frontier[1:]
		order = append(order, u)
		for _, v := range g.adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				frontier = append(frontier, v)
			}
		}
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// FindCycle returns one directed cycle as a node sequence
// [v0, v1, ..., vk, v0], or nil when the graph is acyclic. Useful for
// explaining why a history was rejected.
func (g *Digraph) FindCycle() []int {
	n := g.N()
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range g.adj[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a back edge u -> v; reconstruct the cycle.
				cycle = []int{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				cycle = append(cycle, v)
				// Reverse to report in edge direction.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < n; u++ {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// Reachable reports whether v is reachable from u by a directed path
// (a node is always reachable from itself).
func (g *Digraph) Reachable(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	if u == v {
		return true
	}
	seen := make([]bool, g.N())
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[x] {
			if w == v {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}
