package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// StreamBuilder accumulates node and edge records in flat append-only
// slices and assembles the CSR arrays with two sort passes — no maps at
// any point. Builder keeps a map of nodes and a map of edges to dedup on
// the fly, which is fine at evaluation scale but dominates both time and
// memory when a deployment has millions of links; StreamBuilder instead
// tolerates duplicate records and dedups after sorting, so building a
// graph costs O((n+m)·log(n+m)) time and exactly the final arrays plus
// the record slices in memory. The shard engine feeds one StreamBuilder
// per region from its record stream, which is how a million-node
// deployment is scheduled without ever materializing a global adjacency
// map (DESIGN.md §15).
//
// The produced Graph is structurally identical — reflect.DeepEqual
// identical — to what Builder yields from the same logical node and edge
// sets: node IDs ascending, edges sorted by (U,V), ascending adjacency
// lists with parallel edge-index lists. Tests pin this equivalence.
//
// A StreamBuilder is not safe for concurrent use.
type StreamBuilder struct {
	nodes []NodeID
	edges []Edge
}

// NewStreamBuilder returns an empty StreamBuilder with capacity hints
// (pass 0 when unknown).
func NewStreamBuilder(nodeHint, edgeHint int) *StreamBuilder {
	return &StreamBuilder{
		nodes: make([]NodeID, 0, nodeHint),
		edges: make([]Edge, 0, edgeHint),
	}
}

// AddNode records a node. Duplicates are cheap and removed at Build time.
func (b *StreamBuilder) AddNode(v NodeID) { b.nodes = append(b.nodes, v) }

// AddEdge records the undirected edge {u,v}, implicitly adding both
// endpoints (mirroring Builder.AddEdge). Duplicates are removed at Build
// time; self-loops are reported as an error by Build.
func (b *StreamBuilder) AddEdge(u, v NodeID) {
	b.edges = append(b.edges, NormEdge(u, v))
}

// NumRecords returns the number of node and edge records accumulated so
// far (duplicates included) — a cheap progress/size probe for callers
// that stream records region by region.
func (b *StreamBuilder) NumRecords() (nodes, edges int) {
	return len(b.nodes), len(b.edges)
}

// Build assembles the immutable Graph. It returns an error if a self-loop
// was recorded. The builder may be reused afterwards; its records are
// consumed (reset to empty).
func (b *StreamBuilder) Build() (*Graph, error) {
	// Node universe: explicit records plus every edge endpoint, sorted and
	// deduped in place.
	ids := b.nodes
	for _, e := range b.edges {
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.U)
		}
		ids = append(ids, e.U, e.V)
	}
	slices.Sort(ids)
	w := 0
	for i, v := range ids {
		if i > 0 && ids[i-1] == v {
			continue
		}
		ids[w] = v
		w++
	}
	ids = ids[:w]

	// Edge list: sort by (U,V), dedup in place.
	edges := b.edges
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	w = 0
	for i, e := range edges {
		if i > 0 && edges[i-1] == e {
			continue
		}
		edges[w] = e
		w++
	}
	edges = edges[:w]
	b.nodes, b.edges = nil, nil

	g := &Graph{
		// Copy the (possibly over-capacity) record slices into exact-size
		// arrays so the Graph retains no oversized backing.
		ids:     append(make([]NodeID, 0, len(ids)), ids...),
		adj:     make([][]int32, len(ids)),
		adjEdge: make([][]int32, len(ids)),
		edgeU:   make([]int32, len(edges)),
		edgeV:   make([]int32, len(edges)),
	}
	if len(edges) > 0 {
		g.edges = append(make([]Edge, 0, len(edges)), edges...)
	}

	// Degree count, then one shared backing array per CSR side — the
	// compactInduced layout.
	deg := make([]int32, len(ids))
	for i, e := range g.edges {
		ui, vi := g.internalIndex(e.U), g.internalIndex(e.V)
		g.edgeU[i], g.edgeV[i] = int32(ui), int32(vi)
		deg[ui]++
		deg[vi]++
	}
	nbrBack := make([]int32, 2*len(edges))
	edgeBack := make([]int32, 2*len(edges))
	off := 0
	for i, d := range deg {
		if d == 0 {
			continue // leave nil, matching Builder output for isolated nodes
		}
		g.adj[i] = nbrBack[off : off : off+int(d)]
		g.adjEdge[i] = edgeBack[off : off : off+int(d)]
		off += int(d)
	}
	// Fill in edge-index order: edges are (U,V)-sorted, so each adjacency
	// list receives its below-ID neighbours first (ascending, U-major) and
	// its above-ID neighbours after (ascending) — ascending overall, the
	// Builder invariant.
	for i := range g.edges {
		ui, vi := g.edgeU[i], g.edgeV[i]
		g.adj[ui] = append(g.adj[ui], vi)
		g.adjEdge[ui] = append(g.adjEdge[ui], int32(i))
		g.adj[vi] = append(g.adj[vi], ui)
		g.adjEdge[vi] = append(g.adjEdge[vi], int32(i))
	}
	debugCheckGraph(g) // no-op unless built with -tags dccdebug
	return g, nil
}

// MustBuild is Build that panics on error, for inputs known loop-free.
func (b *StreamBuilder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
