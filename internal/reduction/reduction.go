// Package reduction reproduces the paper's Appendix B NP-completeness
// machinery: the polygraph associated with a (non-circular) boolean
// formula (Lemma 8), the reader-extended polygraph of Theorem 5 that
// forces a distinguished variable false, and the construction of a
// history H with a *serial* update sub-history whose transaction
// polygraph P_H(t_R) is exactly that extended polygraph — so deciding
// update consistency of H decides satisfiability.
//
// The gadget, reconstructed from the Lemma 8 proof:
//
//   - per variable x: transactions a_x, b_x, c_x; fixed arc a_x → b_x;
//     bipath alternatives b_x → c_x ("x false") or c_x → a_x ("x true");
//   - per clause i of width w: transactions y_i1..y_iw, z_i1..z_iw with
//     ring arcs y_ik → z_i(k+1 mod w). The alternative arc z_ik → y_ik
//     means "literal λ_ik is false"; if every literal of a clause is
//     false the ring closes into a cycle;
//   - positive literal λ_ik = x: fixed arcs c_x → y_ik and b_x → z_ik;
//     bipath alternatives z_ik → y_ik (false) or y_ik → b_x (safe only
//     when x is true);
//   - negative literal λ_ik = ¬x: fixed arcs z_ik → c_x and y_ik → a_x;
//     bipath alternatives z_ik → y_ik (false) or a_x → z_ik (safe only
//     when x is false).
//
// An acyclic member of the polygraph family then corresponds exactly to
// a satisfying assignment; adding the Theorem 5 reader t_R — which
// reads from every transaction, plus a bipath that forces c_X's choice
// — pins the guard variable X to false.
package reduction

import (
	"fmt"

	"broadcastcc/internal/graph"
	"broadcastcc/internal/sat"
)

// Gadget is the polygraph associated with a formula, with the node
// bookkeeping needed to read assignments off acyclic members and to lay
// out histories.
type Gadget struct {
	F *sat.Formula
	P *graph.Polygraph

	// Node ids.
	A, B, C []int   // per variable v (1-based: index v-1)
	Y, Z    [][]int // per clause, per literal position
	n       int
}

// NewGadget builds the polygraph associated with f. The construction is
// defined for any CNF; Lemma 8's equivalence is guaranteed for
// non-circular formulas (and verified empirically by this package's
// tests on generated non-circular inputs).
func NewGadget(f *sat.Formula) (*Gadget, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	for ci, c := range f.Clauses {
		if len(c) == 0 {
			return nil, fmt.Errorf("reduction: clause %d is empty (trivially unsatisfiable)", ci)
		}
	}
	g := &Gadget{F: f}
	next := 0
	alloc := func() int { next++; return next - 1 }
	g.A = make([]int, f.NumVars)
	g.B = make([]int, f.NumVars)
	g.C = make([]int, f.NumVars)
	for v := 0; v < f.NumVars; v++ {
		g.A[v], g.B[v], g.C[v] = alloc(), alloc(), alloc()
	}
	g.Y = make([][]int, len(f.Clauses))
	g.Z = make([][]int, len(f.Clauses))
	for ci, c := range f.Clauses {
		g.Y[ci] = make([]int, len(c))
		g.Z[ci] = make([]int, len(c))
		for k := range c {
			g.Y[ci][k], g.Z[ci][k] = alloc(), alloc()
		}
	}
	g.n = next
	p := graph.NewPolygraph(next)
	g.P = p

	for v := 0; v < f.NumVars; v++ {
		p.AddArc(g.A[v], g.B[v])
		// Alternatives b->c (false) or c->a (true); per Definition 4 the
		// supporting arc (a, b) is in A.
		p.AddBipath(g.B[v], g.C[v], g.A[v])
	}
	for ci, c := range f.Clauses {
		w := len(c)
		for k, lit := range c {
			p.AddArc(g.Y[ci][k], g.Z[ci][(k+1)%w])
			v := lit.Var() - 1
			if !lit.Neg() {
				p.AddArc(g.C[v], g.Y[ci][k])
				p.AddArc(g.B[v], g.Z[ci][k])
				// Alternatives z->y (false) or y->b (x true).
				p.AddBipath(g.Z[ci][k], g.Y[ci][k], g.B[v])
			} else {
				p.AddArc(g.Z[ci][k], g.C[v])
				p.AddArc(g.Y[ci][k], g.A[v])
				// Alternatives a->z (x false) or z->y (false).
				p.AddBipath(g.A[v], g.Z[ci][k], g.Y[ci][k])
			}
		}
	}
	return g, nil
}

// Acyclic reports whether the polygraph family has an acyclic member —
// i.e. whether the formula is satisfiable (Lemma 8 without the forced
// variable).
func (g *Gadget) Acyclic() bool {
	ok, _ := g.P.AcyclicExact()
	return ok
}

// AcyclicWithFalse reports whether some acyclic member contains the arc
// b_x → c_x — i.e. whether the formula is satisfiable with variable x
// (1-based) set false (Lemma 8).
func (g *Gadget) AcyclicWithFalse(x int) (bool, error) {
	p, err := g.cloneWithForcedFalse(x)
	if err != nil {
		return false, err
	}
	ok, _ := p.AcyclicExact()
	return ok, nil
}

// cloneWithForcedFalse rebuilds the polygraph with b_x -> c_x fixed.
func (g *Gadget) cloneWithForcedFalse(x int) (*graph.Polygraph, error) {
	if x < 1 || x > g.F.NumVars {
		return nil, fmt.Errorf("reduction: variable x%d out of range", x)
	}
	p := graph.NewPolygraph(g.n)
	for _, e := range g.P.Base().Edges() {
		p.AddArc(e[0], e[1])
	}
	for _, bp := range g.P.Bipaths() {
		p.AddBipath(bp.A[0], bp.A[1], bp.B[1])
	}
	p.AddArc(g.B[x-1], g.C[x-1])
	return p, nil
}

// AssignmentOf reads the truth assignment off an acyclic member
// digraph: x is true iff the member contains c_x → a_x.
func (g *Gadget) AssignmentOf(member *graph.Digraph) sat.Assignment {
	out := sat.Assignment{}
	for v := 0; v < g.F.NumVars; v++ {
		out[v+1] = member.HasEdge(g.C[v], g.A[v])
	}
	return out
}
