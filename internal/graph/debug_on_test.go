//go:build dccdebug

package graph

import "testing"

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: corrupted graph passed debugCheckGraph", name)
		}
	}()
	f()
}

// TestDebugCheckGraphCatchesCorruption verifies the dccdebug assertions are
// not vacuous: hand-corrupted graphs must panic.
func TestDebugCheckGraphCatchesCorruption(t *testing.T) {
	build := func() *Graph {
		b := NewBuilder(0, 0)
		b.AddEdge(1, 2)
		b.AddEdge(2, 3)
		b.AddEdge(1, 3)
		return b.MustBuild()
	}

	g := build()
	g.adj[0][0], g.adj[0][1] = g.adj[0][1], g.adj[0][0] // unsorted adjacency
	expectPanic(t, "unsorted adjacency", func() { debugCheckGraph(g) })

	g = build()
	g.edges[0], g.edges[1] = g.edges[1], g.edges[0] // unsorted edge list
	expectPanic(t, "unsorted edges", func() { debugCheckGraph(g) })

	g = build()
	g.adj[0] = append(g.adj[0], g.adj[0][0]) // duplicate neighbour entry
	g.adjEdge[0] = append(g.adjEdge[0], g.adjEdge[0][0])
	expectPanic(t, "duplicate edge", func() { debugCheckGraph(g) })

	g = build()
	g.edgeU[0], g.edgeV[0] = g.edgeV[0], g.edgeU[0] // inconsistent endpoint arrays
	expectPanic(t, "bad endpoint arrays", func() { debugCheckGraph(g) })
}
