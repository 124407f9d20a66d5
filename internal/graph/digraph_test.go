package graph

import (
	"math/rand"
	"testing"
)

func TestDigraphBasics(t *testing.T) {
	g := NewDigraph(3)
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // duplicate ignored
	g.AddEdge(1, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(2, 0) {
		t.Error("HasEdge wrong")
	}
	if got := g.Successors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Successors(0) = %v", got)
	}
	if got := len(g.Edges()); got != 2 {
		t.Errorf("Edges count = %d, want 2", got)
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("out-of-range HasEdge should be false")
	}
}

func TestDigraphPanicsOnBadNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddEdge with bad node should panic")
		}
	}()
	NewDigraph(1).AddEdge(0, 5)
}

func TestTopoSortAcyclic(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(4, 3)
	g.AddEdge(3, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 1)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("acyclic graph reported cyclic")
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violates topo order %v", e, order)
		}
	}
	if g.HasCycle() {
		t.Error("HasCycle true on DAG")
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(3, 1)
	// Nodes 0, 2, 3 all start with indegree 0; ties break by id.
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("cyclic?")
	}
	want := []int{0, 2, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	if !g.HasCycle() {
		t.Fatal("cycle not detected")
	}
	cyc := g.FindCycle()
	if len(cyc) < 3 {
		t.Fatalf("FindCycle = %v", cyc)
	}
	if cyc[0] != cyc[len(cyc)-1] {
		t.Errorf("cycle should start and end at same node: %v", cyc)
	}
	for i := 0; i+1 < len(cyc); i++ {
		if !g.HasEdge(cyc[i], cyc[i+1]) {
			t.Errorf("reported cycle uses missing edge %d->%d", cyc[i], cyc[i+1])
		}
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(1, 1)
	if !g.HasCycle() {
		t.Error("self-loop should be a cycle")
	}
	if cyc := g.FindCycle(); len(cyc) != 2 || cyc[0] != 1 || cyc[1] != 1 {
		t.Errorf("FindCycle on self-loop = %v", cyc)
	}
}

func TestFindCycleNilOnDAG(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if cyc := g.FindCycle(); cyc != nil {
		t.Errorf("FindCycle on DAG = %v, want nil", cyc)
	}
}

func TestReachable(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 2, true}, {2, 0, false}, {0, 0, true}, {0, 4, false}, {3, 4, true},
	}
	for _, c := range cases {
		if got := g.Reachable(c.u, c.v); got != c.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("existing edge not removed")
	}
	if g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Fatal("wrong edge removed")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("double removal should report false")
	}
	if g.RemoveEdge(9, 0) {
		t.Error("out-of-range removal should report false")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 0)
	if g.HasEdge(1, 0) {
		t.Error("mutating clone affected original")
	}
	if !c.HasEdge(0, 1) {
		t.Error("clone lost edge")
	}
}

func TestRandomGraphTopoConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(12)
		g := NewDigraph(n)
		// Random DAG: only forward edges under a random permutation.
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(perm[i], perm[j])
				}
			}
		}
		if g.HasCycle() {
			t.Fatal("forward-edge graph cannot be cyclic")
		}
		// Now close a random back edge; if a path existed, it must cycle.
		if n >= 2 {
			u, v := perm[n-1], perm[0]
			if g.Reachable(v, u) {
				g.AddEdge(u, v)
				if !g.HasCycle() {
					t.Fatal("back edge over existing path must create a cycle")
				}
			}
		}
	}
}
