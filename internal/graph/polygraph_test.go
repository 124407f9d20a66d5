package graph

import (
	"math/rand"
	"testing"
)

func TestPolygraphNoBipaths(t *testing.T) {
	p := NewPolygraph(3)
	p.AddArc(0, 1)
	p.AddArc(1, 2)
	ok, witness := p.AcyclicExact()
	if !ok {
		t.Fatal("DAG polygraph with no bipaths should be acyclic")
	}
	if witness == nil || witness.HasCycle() {
		t.Fatal("witness must be an acyclic digraph")
	}
	p.AddArc(2, 0)
	if ok, _ := p.AcyclicExact(); ok {
		t.Fatal("cyclic base must make polygraph cyclic")
	}
}

func TestPolygraphBipathChoice(t *testing.T) {
	// Base: 0 -> 1. Bipath requires 1->2 or 2->0; both keep it acyclic,
	// so the polygraph is acyclic.
	p := NewPolygraph(3)
	p.AddArc(0, 1)
	p.AddBipath(1, 2, 0) // alternatives: 1->2 or 2->0
	ok, w := p.AcyclicExact()
	if !ok {
		t.Fatal("satisfiable polygraph reported cyclic")
	}
	if !w.HasEdge(1, 2) && !w.HasEdge(2, 0) {
		t.Fatal("witness does not satisfy the bipath")
	}
}

func TestPolygraphForcedChoice(t *testing.T) {
	// Base: 0->1, 1->2. Bipath alternatives: 1->0 (closes a cycle) or
	// 2->3. Propagation must force 2->3.
	p := NewPolygraph(4)
	p.AddArc(0, 1)
	p.AddArc(1, 2)
	p.AddBipath(1, 0, 3) // alternatives: 1->0 or 0->3
	ok, w := p.AcyclicExact()
	if !ok {
		t.Fatal("should be satisfiable via 0->3")
	}
	if !w.HasEdge(0, 3) {
		t.Fatal("propagation should have added 0->3")
	}
}

func TestPolygraphUnsatisfiable(t *testing.T) {
	// Base: 0->1->2, plus bipath whose both alternatives close cycles:
	// alternatives 2->0? that cycles base? No: 2->0 cycles 0->1->2->0.
	// Use bipath (A: 1->0, B: 2->0): both close cycles.
	p := NewPolygraph(3)
	p.AddArc(0, 1)
	p.AddArc(1, 2)
	p.AddBipath(1, 0, 0) // A: 1->0 (cycle), B: 0->0 (self-loop)
	if ok, _ := p.AcyclicExact(); ok {
		t.Fatal("unsatisfiable polygraph reported acyclic")
	}
}

func TestPolygraphBipathAlreadySatisfied(t *testing.T) {
	p := NewPolygraph(3)
	p.AddArc(0, 1)
	p.AddBipath(0, 1, 2) // A: 0->1 already in base
	ok, _ := p.AcyclicExact()
	if !ok {
		t.Fatal("pre-satisfied bipath should not constrain anything")
	}
}

func TestPolygraphBacktracking(t *testing.T) {
	// Construct a case where the greedy first alternative fails and the
	// solver must backtrack: two bipaths whose first choices jointly
	// create a cycle, but mixed choices succeed.
	p := NewPolygraph(4)
	p.AddArc(0, 1)
	// Bipath 1: 1->2 or 2->3
	p.AddBipath(1, 2, 3)
	// Bipath 2: 2->1 or 1->3. Choosing 1->2 and 2->1 together cycles.
	p.AddBipath(2, 1, 3)
	ok, w := p.AcyclicExact()
	if !ok {
		t.Fatal("mixed choice exists; solver should find it")
	}
	if w.HasCycle() {
		t.Fatal("witness has a cycle")
	}
	// Verify witness satisfies both bipaths.
	if !(w.HasEdge(1, 2) || w.HasEdge(2, 3)) || !(w.HasEdge(2, 1) || w.HasEdge(1, 3)) {
		t.Fatal("witness violates a bipath")
	}
}

func TestPolygraphAccessors(t *testing.T) {
	p := NewPolygraph(3)
	p.AddArc(0, 1)
	p.AddBipath(1, 2, 0)
	if p.N() != 3 {
		t.Errorf("N = %d", p.N())
	}
	if got := p.Bipaths(); len(got) != 1 || got[0].A != [2]int{1, 2} || got[0].B != [2]int{2, 0} {
		t.Errorf("Bipaths = %v", got)
	}
	base := p.Base()
	base.AddEdge(2, 0)
	if p.Base().HasEdge(2, 0) {
		t.Error("Base must return a copy")
	}
}

// Brute-force family check for randomized cross-validation of the solver.
func polygraphAcyclicBrute(p *Polygraph) bool {
	bps := p.Bipaths()
	n := len(bps)
	if n > 16 {
		panic("too many bipaths for brute force")
	}
	for mask := 0; mask < 1<<n; mask++ {
		g := p.Base()
		for i, bp := range bps {
			if mask&(1<<i) != 0 {
				g.AddEdge(bp.A[0], bp.A[1])
			} else {
				g.AddEdge(bp.B[0], bp.B[1])
			}
		}
		if !g.HasCycle() {
			return true
		}
	}
	return false
}

func TestPolygraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(4)
		p := NewPolygraph(n)
		for e := 0; e < rng.Intn(2*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				p.AddArc(u, v)
			}
		}
		for b := 0; b < rng.Intn(6); b++ {
			p.AddBipath(rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
		got, witness := p.AcyclicExact()
		want := polygraphAcyclicBrute(p)
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v (arcs=%v bipaths=%v)",
				trial, got, want, p.Base().Edges(), p.Bipaths())
		}
		if got {
			if witness == nil || witness.HasCycle() {
				t.Fatalf("trial %d: invalid witness", trial)
			}
			for _, bp := range p.Bipaths() {
				if !witness.HasEdge(bp.A[0], bp.A[1]) && !witness.HasEdge(bp.B[0], bp.B[1]) {
					t.Fatalf("trial %d: witness violates bipath %v", trial, bp)
				}
			}
		}
		// Order agrees, and its order satisfies every fixed arc and one
		// alternative of every bipath.
		order, ok := p.Order()
		if ok != got || ok && len(order) != n {
			t.Fatalf("trial %d: Order = %v, %v; AcyclicExact says %v", trial, order, ok, got)
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		before := func(arc [2]int) bool { return pos[arc[0]] < pos[arc[1]] }
		for _, e := range p.Base().Edges() {
			if ok && !before(e) {
				t.Fatalf("trial %d: order %v violates arc %v", trial, order, e)
			}
		}
		for _, bp := range p.Bipaths() {
			if ok && !before(bp.A) && !before(bp.B) {
				t.Fatalf("trial %d: order %v violates bipath %v", trial, order, bp)
			}
		}
	}
}
