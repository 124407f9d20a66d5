package graph

import "fmt"

// Bipath is a pair of alternative arcs ((v,u),(u,w)) associated with an
// arc (w,v) in a polygraph: any digraph in the polygraph's family must
// contain at least one of the two arcs.
type Bipath struct {
	// First alternative arc (v, u).
	A [2]int
	// Second alternative arc (u, w).
	B [2]int
}

// Polygraph is Papadimitriou's (N, A, B) structure: a digraph (N, A)
// together with a set of bipaths B. It is acyclic iff some digraph in
// its family — supergraphs of (N,A) containing at least one arc of every
// bipath — is acyclic. Testing that is NP-complete in general, which is
// exactly the paper's Appendix B hardness source; AcyclicExact performs
// the exponential search and is intended for small histories (tests,
// fixtures, the exact update-consistency checker).
type Polygraph struct {
	n       int
	base    *Digraph
	bipaths []Bipath
}

// NewPolygraph returns a polygraph over n nodes with no arcs or bipaths.
func NewPolygraph(n int) *Polygraph {
	return &Polygraph{n: n, base: NewDigraph(n)}
}

// N reports the number of nodes.
func (p *Polygraph) N() int { return p.n }

// AddArc adds the fixed arc u -> v to the digraph part.
func (p *Polygraph) AddArc(u, v int) { p.base.AddEdge(u, v) }

// AddBipath adds the bipath ((v,u),(u,w)): at least one of v->u, u->w
// must appear in any digraph of the family.
func (p *Polygraph) AddBipath(v, u, w int) {
	p.check(v)
	p.check(u)
	p.check(w)
	p.bipaths = append(p.bipaths, Bipath{A: [2]int{v, u}, B: [2]int{u, w}})
}

// Bipaths returns a copy of the bipath set.
func (p *Polygraph) Bipaths() []Bipath {
	return append([]Bipath(nil), p.bipaths...)
}

// Base returns a copy of the fixed digraph (N, A).
func (p *Polygraph) Base() *Digraph { return p.base.Clone() }

func (p *Polygraph) check(u int) {
	if u < 0 || u >= p.n {
		panic(fmt.Sprintf("graph: polygraph node %d out of range [0,%d)", u, p.n))
	}
}

// AcyclicExact reports whether some digraph in the polygraph's family is
// acyclic, by backtracking over the undecided bipaths. Worst case is
// exponential in the number of bipaths; constraint propagation (a bipath
// whose one alternative already closes a cycle forces the other) and
// trail-based undo (no graph copies on the search path) keep realistic
// history sizes fast.
//
// If the polygraph is acyclic it also returns a witness digraph.
func (p *Polygraph) AcyclicExact() (bool, *Digraph) {
	g := p.base.Clone()
	if g.HasCycle() {
		return false, nil
	}
	// Filter bipaths: if one of the alternatives is already present in
	// the base, the bipath is satisfied for every family member built on
	// top of g.
	var pending []Bipath
	for _, bp := range p.bipaths {
		if g.HasEdge(bp.A[0], bp.A[1]) || g.HasEdge(bp.B[0], bp.B[1]) {
			continue
		}
		pending = append(pending, bp)
	}
	var trail [][2]int
	if p.solve(g, pending, &trail) {
		return true, g
	}
	return false, nil
}

// Order returns a topological order of some acyclic digraph in the
// polygraph's family and true, or (nil, false) when the family has none.
// Without bipaths the family is the fixed digraph alone, which is sorted
// in place; otherwise the order sorts AcyclicExact's witness.
func (p *Polygraph) Order() ([]int, bool) {
	if len(p.bipaths) == 0 {
		return p.base.TopoSort()
	}
	ok, w := p.AcyclicExact()
	if !ok {
		return nil, false
	}
	return w.TopoSort()
}

// addTracked inserts an arc (if absent) and records it on the trail.
func addTracked(g *Digraph, arc [2]int, trail *[][2]int) {
	if !g.HasEdge(arc[0], arc[1]) {
		g.AddEdge(arc[0], arc[1])
		*trail = append(*trail, arc)
	}
}

// rollback removes trail entries added since mark.
func rollback(g *Digraph, trail *[][2]int, mark int) {
	for i := len(*trail) - 1; i >= mark; i-- {
		arc := (*trail)[i]
		g.RemoveEdge(arc[0], arc[1])
	}
	*trail = (*trail)[:mark]
}

// solve tries to satisfy every pending bipath on top of g without
// creating a cycle. The invariant is that g is acyclic on entry; every
// insertion is pre-checked with a reachability test, so no full cycle
// detection is needed on the search path. On failure g is restored to
// its entry state via the trail; on success g holds the witness.
func (p *Polygraph) solve(g *Digraph, pending []Bipath, trail *[][2]int) bool {
	mark := len(*trail)
	// Propagate forced choices until fixpoint: an alternative arc u->v is
	// "blocked" if v already reaches u (adding it would close a cycle).
	for {
		progressed := false
		next := make([]Bipath, 0, len(pending))
		for _, bp := range pending {
			if g.HasEdge(bp.A[0], bp.A[1]) || g.HasEdge(bp.B[0], bp.B[1]) {
				continue // satisfied
			}
			aBlocked := g.Reachable(bp.A[1], bp.A[0])
			bBlocked := g.Reachable(bp.B[1], bp.B[0])
			switch {
			case aBlocked && bBlocked:
				rollback(g, trail, mark)
				return false
			case aBlocked:
				addTracked(g, bp.B, trail)
				progressed = true
			case bBlocked:
				addTracked(g, bp.A, trail)
				progressed = true
			default:
				next = append(next, bp)
			}
		}
		pending = next
		if !progressed {
			break
		}
	}
	if len(pending) == 0 {
		return true
	}
	// Branch on the first undecided bipath.
	bp := pending[0]
	rest := pending[1:]
	branchMark := len(*trail)
	for _, arc := range [][2]int{bp.A, bp.B} {
		if g.Reachable(arc[1], arc[0]) {
			continue // this alternative would close a cycle
		}
		addTracked(g, arc, trail)
		if p.solve(g, rest, trail) {
			return true
		}
		rollback(g, trail, branchMark)
	}
	rollback(g, trail, mark)
	return false
}
