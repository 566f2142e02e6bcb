// Package nets provides small, hand-constructed example networks used by
// tests, examples and documentation — most importantly the möbius-band
// network of the paper's Figure 1, the separating example between the
// cycle-partition criterion and the homology-group criterion.
package nets

import (
	"dcc/internal/graph"
	"dcc/internal/simplicial"
)

// MobiusOuterLen is the length of the outer boundary cycle of Mobius().
const MobiusOuterLen = 8

// Mobius returns the möbius-band network of Figure 1: an outer boundary
// 8-cycle (nodes 0..7, the paper's a..h), a core 4-cycle (nodes 8..11, the
// paper's 1..4), and a strip of 16 triangles that wraps around the core
// twice. The outer boundary is the GF(2) sum of all triangles (hence
// 3-partitionable), yet the complex has the homology type of a circle
// (H1 ≅ Z/2), so the homology-group criterion wrongly reports a hole.
//
// It returns the connectivity graph, the Rips 2-complex, and the outer
// boundary vertex order.
func Mobius() (*graph.Graph, *simplicial.Complex, []graph.NodeID) {
	outer := func(j int) graph.NodeID { return graph.NodeID(j % 8) }
	core := func(i int) graph.NodeID { return graph.NodeID(8 + i%4) }

	b := graph.NewBuilder(0, 0)
	for j := 0; j < 8; j++ {
		b.AddEdge(outer(j), outer(j+1)) // outer boundary
		b.AddEdge(outer(j), core(j))    // spoke
		b.AddEdge(outer(j+1), core(j))  // diagonal
	}
	for i := 0; i < 4; i++ {
		b.AddEdge(core(i), core(i+1)) // core circle
	}
	g := b.MustBuild()

	var tris []simplicial.Triangle
	for j := 0; j < 8; j++ {
		tris = append(tris,
			simplicial.Triangle{A: outer(j), B: outer(j + 1), C: core(j)},
			simplicial.Triangle{A: outer(j + 1), B: core(j), C: core(j + 1)},
		)
	}
	k := simplicial.New(g, tris)

	boundary := make([]graph.NodeID, 8)
	for j := 0; j < 8; j++ {
		boundary[j] = outer(j)
	}
	return g, k, boundary
}

// MinimalMobius returns the 5-vertex minimal triangulated möbius band:
// triangles (i, i+1, i+2) mod 5. Its boundary is the pentagram 5-cycle
// 0-2-4-1-3. Returned are the graph, the complex (with exactly those 5
// triangles), and the boundary vertex order.
//
// Note that the 1-skeleton is K5, so the Rips complex of the graph would
// contain all 10 triangles; the explicit 5-triangle complex is what makes
// this a möbius band.
func MinimalMobius() (*graph.Graph, *simplicial.Complex, []graph.NodeID) {
	g := graph.Complete(5)
	var tris []simplicial.Triangle
	for i := 0; i < 5; i++ {
		tris = append(tris, simplicial.Triangle{
			A: graph.NodeID(i), B: graph.NodeID((i + 1) % 5), C: graph.NodeID((i + 2) % 5),
		})
	}
	k := simplicial.New(g, tris)
	boundary := []graph.NodeID{0, 2, 4, 1, 3}
	return g, k, boundary
}
