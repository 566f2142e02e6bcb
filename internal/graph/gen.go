package graph

import "fmt"

// Path returns the path graph 0-1-…-(n−1).
func Path(n int) *Graph {
	b := NewBuilder(0, n)
	if n == 1 {
		b.AddNode(0)
	}
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph on n ≥ 3 nodes 0-1-…-(n−1)-0.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	b := NewBuilder(0, n)
	for i := 0; i < n; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(0, n*(n-1)/2)
	if n == 1 {
		b.AddNode(0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return b.MustBuild()
}

// Grid returns the rows×cols grid graph with node (r,c) numbered r*cols+c.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows*cols, 2*rows*cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddNode(id(r, c))
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// TriangulatedGrid returns the rows×cols grid with one diagonal added per
// cell, so every unit face is split into two triangles. Useful as a dense
// planar test graph whose cycle space is spanned by 3-cycles.
func TriangulatedGrid(rows, cols int) *Graph {
	b := NewBuilder(rows*cols, 3*rows*cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddNode(id(r, c))
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
			if c+1 < cols && r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c+1))
			}
		}
	}
	return b.MustBuild()
}
