package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// oracleBuilder is the map-based graph assembly the sort-based Builder
// replaced, kept verbatim as an independent reference: it dedups nodes and
// edges through maps on the fly and sorts each adjacency list afterwards,
// sharing no code with Builder.Build. The builder and compactInduced
// tests compare production output against it.
type oracleBuilder struct {
	nodes map[NodeID]struct{}
	edges map[Edge]struct{}
	order []Edge // insertion order, for deterministic edge indexing
}

func newOracleBuilder() *oracleBuilder {
	return &oracleBuilder{
		nodes: make(map[NodeID]struct{}),
		edges: make(map[Edge]struct{}),
	}
}

func (b *oracleBuilder) AddNode(v NodeID) {
	b.nodes[v] = struct{}{}
}

func (b *oracleBuilder) AddEdge(u, v NodeID) {
	e := NormEdge(u, v)
	b.nodes[u] = struct{}{}
	b.nodes[v] = struct{}{}
	if _, dup := b.edges[e]; dup {
		return
	}
	b.edges[e] = struct{}{}
	b.order = append(b.order, e)
}

func (b *oracleBuilder) Build() (*Graph, error) {
	ids := make([]NodeID, 0, len(b.nodes))
	for v := range b.nodes {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	g := &Graph{ids: ids}
	g.adj = make([][]int32, len(ids))
	g.adjEdge = make([][]int32, len(ids))
	// Deterministic edge indexing: sort edges by endpoints rather than
	// insertion order so that logically equal graphs index identically.
	edges := append([]Edge(nil), b.order...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	g.edges = edges
	g.edgeU = make([]int32, len(edges))
	g.edgeV = make([]int32, len(edges))
	for i, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.U)
		}
		ui, vi := g.internalIndex(e.U), g.internalIndex(e.V)
		g.edgeU[i], g.edgeV[i] = int32(ui), int32(vi)
		g.adj[ui] = append(g.adj[ui], int32(vi))
		g.adjEdge[ui] = append(g.adjEdge[ui], int32(i))
		g.adj[vi] = append(g.adj[vi], int32(ui))
		g.adjEdge[vi] = append(g.adjEdge[vi], int32(i))
	}
	for i := range g.adj {
		a, ae := g.adj[i], g.adjEdge[i]
		sort.Sort(&adjPair{nbrs: a, edges: ae})
	}
	debugCheckGraph(g) // no-op unless built with -tags dccdebug
	return g, nil
}

// adjPair sorts an adjacency list and its parallel edge-index list together.
type adjPair struct {
	nbrs  []int32
	edges []int32
}

func (p *adjPair) Len() int           { return len(p.nbrs) }
func (p *adjPair) Less(i, j int) bool { return p.nbrs[i] < p.nbrs[j] }
func (p *adjPair) Swap(i, j int) {
	p.nbrs[i], p.nbrs[j] = p.nbrs[j], p.nbrs[i]
	p.edges[i], p.edges[j] = p.edges[j], p.edges[i]
}

func (b *oracleBuilder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestBuilderMatchesOracle: on random inputs — duplicate records,
// arbitrary insertion order, isolated nodes, non-contiguous IDs — Builder
// must produce a Graph reflect.DeepEqual-identical to the map-based
// oracle, so every downstream structural comparison (the shard engine's
// byte-identity contract) holds by construction.
func TestBuilderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		ob := newOracleBuilder()
		b := NewBuilder(0, 0)
		// Sparse, possibly disconnected random graph over non-contiguous IDs.
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = NodeID(i*3 + rng.Intn(2)) // collisions on purpose
		}
		for _, v := range ids {
			ob.AddNode(v)
			b.AddNode(v)
		}
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			u, v := ids[rng.Intn(n)], ids[rng.Intn(n)]
			if u == v {
				continue
			}
			// Feed duplicates and both orientations.
			ob.AddEdge(u, v)
			b.AddEdge(v, u)
			if rng.Intn(3) == 0 {
				b.AddEdge(u, v)
			}
		}
		want := ob.MustBuild()
		got := b.MustBuild()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: Builder graph differs from oracle graph\nwant ids=%v edges=%v\ngot  ids=%v edges=%v",
				trial, want.Nodes(), want.Edges(), got.Nodes(), got.Edges())
		}
		// Build consumed the records: the builder is empty again.
		if !reflect.DeepEqual(b.MustBuild(), newOracleBuilder().MustBuild()) {
			t.Fatalf("trial %d: second Build did not yield the empty graph", trial)
		}
	}
}

// FuzzBuilder feeds fuzzer-chosen node and edge records — duplicates,
// both orientations, isolated nodes, non-contiguous IDs, self-loops — to
// Builder and to the map-based oracle. Each 3-byte record is (kind, a, b):
// kind%4 == 0 adds node a, anything else adds edge {a,b} in the given
// orientation, IDs spread by a factor of 37. Both sides must agree on
// whether Build fails (a self-loop must fail both), and otherwise produce
// reflect.DeepEqual graphs.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{})                                     // empty graph
	f.Add([]byte{1, 5, 2})                              // implicit endpoints
	f.Add([]byte{0, 9, 0, 1, 1, 2, 2, 2, 1, 3, 1, 2})   // isolated node, duplicate reversed edge
	f.Add([]byte{0, 4, 0, 1, 4, 4})                     // self-loop
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 2, 0, 0, 7, 0})   // triangle plus isolated node
	f.Add([]byte{1, 255, 0, 2, 128, 64, 3, 64, 255, 0}) // far-apart IDs, trailing partial record
	f.Fuzz(func(t *testing.T, data []byte) {
		ob := newOracleBuilder()
		b := NewBuilder(0, 0)
		loop := false
		for i := 0; i+3 <= len(data); i += 3 {
			u, v := NodeID(data[i+1])*37, NodeID(data[i+2])*37
			if data[i]%4 == 0 {
				ob.AddNode(u)
				b.AddNode(u)
				continue
			}
			loop = loop || u == v
			ob.AddEdge(u, v)
			b.AddEdge(u, v)
		}
		want, werr := ob.Build()
		got, gerr := b.Build()
		if loop {
			if werr == nil || gerr == nil {
				t.Fatalf("self-loop accepted: oracle err %v, Builder err %v", werr, gerr)
			}
			return
		}
		if werr != nil || gerr != nil {
			t.Fatalf("loop-free records rejected: oracle err %v, Builder err %v", werr, gerr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Builder graph differs from oracle graph\nwant ids=%v edges=%v\ngot  ids=%v edges=%v",
				want.Nodes(), want.Edges(), got.Nodes(), got.Edges())
		}
	})
}
