package simplicial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

func TestRipsTriangleCount(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"triangle", graph.Complete(3), 1},
		{"K4", graph.Complete(4), 4},
		{"K5", graph.Complete(5), 10},
		{"C6", graph.Cycle(6), 0},
		{"grid", graph.Grid(3, 3), 0},
		{"triangulated grid 2x2", graph.TriangulatedGrid(2, 2), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := Rips(tt.g)
			if got := k.NumTriangles(); got != tt.want {
				t.Fatalf("NumTriangles = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestRipsTrianglesAreCliquesAndUnique(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(0, 0)
		n := 15
		for i := 0; i < n; i++ {
			b.AddNode(graph.NodeID(i))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.35 {
					b.AddEdge(graph.NodeID(i), graph.NodeID(j))
				}
			}
		}
		g := b.MustBuild()
		k := Rips(g)
		seen := make(map[Triangle]bool)
		for _, tr := range k.Triangles() {
			if !(tr.A < tr.B && tr.B < tr.C) {
				return false
			}
			if !g.HasEdge(tr.A, tr.B) || !g.HasEdge(tr.B, tr.C) || !g.HasEdge(tr.A, tr.C) {
				return false
			}
			if seen[tr] {
				return false
			}
			seen[tr] = true
		}
		// Independent brute-force count.
		count := 0
		nodes := g.Nodes()
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				for l := j + 1; l < len(nodes); l++ {
					if g.HasEdge(nodes[i], nodes[j]) && g.HasEdge(nodes[j], nodes[l]) && g.HasEdge(nodes[i], nodes[l]) {
						count++
					}
				}
			}
		}
		return count == k.NumTriangles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsTrianglesWithMissingEdges(t *testing.T) {
	g := graph.Path(3) // edges 0-1, 1-2; no 0-2
	k := New(g, []Triangle{{A: 0, B: 1, C: 2}})
	if k.NumTriangles() != 0 {
		t.Fatal("triangle with missing edge accepted")
	}
}

func TestNewNormalizesOrder(t *testing.T) {
	g := graph.Complete(3)
	k := New(g, []Triangle{{A: 2, B: 0, C: 1}})
	if k.NumTriangles() != 1 {
		t.Fatal("unordered triangle rejected")
	}
	tr := k.Triangles()[0]
	if tr.A != 0 || tr.B != 1 || tr.C != 2 {
		t.Fatalf("triangle not normalized: %+v", tr)
	}
}

func TestH1RankKnownComplexes(t *testing.T) {
	tests := []struct {
		name string
		k    *Complex
		want int
	}{
		{"filled triangle", Rips(graph.Complete(3)), 0},
		{"hollow hexagon", Rips(graph.Cycle(6)), 1},
		{"hollow grid", Rips(graph.Grid(4, 4)), 9},
		{"filled disk (triangulated grid)", Rips(graph.TriangulatedGrid(4, 4)), 0},
		{"K5 full Rips", Rips(graph.Complete(5)), 0},
		{"two hollow squares", Rips(mustGraph(t, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
			{U: 10, V: 11}, {U: 11, V: 12}, {U: 12, V: 13}, {U: 13, V: 10},
		})), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.k.H1Rank(); got != tt.want {
				t.Fatalf("H1Rank = %d, want %d", got, tt.want)
			}
			if want := tt.want == 0; tt.k.H1Trivial() != want {
				t.Fatalf("H1Trivial inconsistent with rank")
			}
		})
	}
}

func mustGraph(t *testing.T, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAnnulusRelativeHomology: a triangulated annulus has H1 = Z (rank 1
// over GF(2)), so the absolute criterion detects the inner hole. The inner
// and outer boundary classes are homologous, hence coning either boundary
// kills the class — which is exactly why hole *detection* must use absolute
// H1 and cone only boundaries declared as not-requiring-coverage.
func TestAnnulusRelativeHomology(t *testing.T) {
	g, k, inner, outer := annulus()
	if got := k.H1Rank(); got != 1 {
		t.Fatalf("annulus H1 = %d, want 1", got)
	}
	if !k.H1TrivialRelative(outer) {
		t.Fatal("annulus relative to its outer boundary should have trivial H1")
	}
	if !k.H1TrivialRelative(inner) {
		t.Fatal("coning the declared inner boundary should kill H1")
	}
	if !k.H1TrivialRelative(append(append([]graph.NodeID{}, outer...), inner...)) {
		t.Fatal("coning both boundaries should kill H1")
	}
	_ = g
}

// annulus builds a triangulated annulus: inner square 0..3, outer octagon
// 4..11, triangulated strip between them.
func annulus() (*graph.Graph, *Complex, []graph.NodeID, []graph.NodeID) {
	inner := []graph.NodeID{0, 1, 2, 3}
	outer := []graph.NodeID{4, 5, 6, 7, 8, 9, 10, 11}
	b := graph.NewBuilder(0, 0)
	for i := 0; i < 4; i++ {
		b.AddEdge(inner[i], inner[(i+1)%4])
	}
	for j := 0; j < 8; j++ {
		b.AddEdge(outer[j], outer[(j+1)%8])
	}
	var tris []Triangle
	// Each outer vertex 4+j maps to inner vertex j/2; strip triangles.
	for j := 0; j < 8; j++ {
		in := inner[j/2]
		inNext := inner[((j+1)/2)%4]
		b.AddEdge(outer[j], in)
		b.AddEdge(outer[(j+1)%8], in)
		tris = append(tris, Triangle{A: outer[j], B: outer[(j+1)%8], C: in})
		if in != inNext {
			b.AddEdge(outer[(j+1)%8], inNext)
			tris = append(tris, Triangle{A: outer[(j+1)%8], B: in, C: inNext})
		}
	}
	// j = 7 wraps: triangle (outer[0], inner[3], inner[0]).
	tris = append(tris, Triangle{A: outer[0], B: inner[3], C: inner[0]})
	g := b.MustBuild()
	return g, New(g, tris), inner, outer
}

func TestConeFenceApexFresh(t *testing.T) {
	g := graph.Cycle(5)
	k := Rips(g)
	cone, apex := k.ConeFence(g.Nodes())
	if g.HasNode(apex) {
		t.Fatal("apex collides with an existing node")
	}
	if cone.Graph().NumNodes() != g.NumNodes()+1 {
		t.Fatal("cone node count wrong")
	}
	// Coning a full cycle kills its H1.
	if !cone.H1Trivial() {
		t.Fatal("coned cycle should be contractible-ish (H1 trivial)")
	}
}

func TestBoundarySpans(t *testing.T) {
	g := graph.TriangulatedGrid(3, 3)
	k := Rips(g)
	// Perimeter of the grid: null-homologous in the filled disk.
	verts := []graph.NodeID{0, 1, 2, 5, 8, 7, 6, 3}
	target := cycleVector(t, g, verts)
	if !k.BoundarySpans(target) {
		t.Fatal("perimeter of a filled disk should be a boundary")
	}
	// In the hollow grid it is not.
	hollow := Rips(graph.Grid(3, 3))
	hverts := []graph.NodeID{0, 1, 2, 5, 8, 7, 6, 3}
	htarget := cycleVector(t, graph.Grid(3, 3), hverts)
	if hollow.BoundarySpans(htarget) {
		t.Fatal("perimeter of a hollow grid reported null-homologous")
	}
}

func cycleVector(t *testing.T, g *graph.Graph, verts []graph.NodeID) bitvec.Vector {
	t.Helper()
	v := bitvec.New(g.NumEdges())
	for i := range verts {
		e, ok := g.EdgeIndex(verts[i], verts[(i+1)%len(verts)])
		if !ok {
			t.Fatalf("edge {%d,%d} missing", verts[i], verts[(i+1)%len(verts)])
		}
		v.Set(e, true)
	}
	return v
}

func TestDeleteVertices(t *testing.T) {
	g := graph.Complete(4)
	k := Rips(g)
	k2 := k.DeleteVertices([]graph.NodeID{3})
	if k2.Graph().NumNodes() != 3 {
		t.Fatal("vertex not deleted from 1-skeleton")
	}
	if k2.NumTriangles() != 1 {
		t.Fatalf("NumTriangles = %d, want 1", k2.NumTriangles())
	}
	// Original untouched.
	if k.NumTriangles() != 4 {
		t.Fatal("DeleteVertices mutated receiver")
	}
}

func TestEulerConsistency(t *testing.T) {
	// For a 2-complex, over GF(2): χ = n − m + t = dim H0 − dim H1 + dim H2.
	// We only verify the inequality dim H1 ≥ 0 implicitly plus χ on
	// complexes where H2 is known: a filled disk has H2 = 0, so
	// χ = c − dim H1.
	g := graph.TriangulatedGrid(5, 5)
	k := Rips(g)
	chi := g.NumNodes() - g.NumEdges() + k.NumTriangles()
	if want := 1 - k.H1Rank(); chi != want {
		t.Fatalf("Euler characteristic %d, want %d", chi, want)
	}
}

func BenchmarkRips(b *testing.B) {
	g := graph.TriangulatedGrid(15, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rips(g)
	}
}

func BenchmarkH1Rank(b *testing.B) {
	k := Rips(graph.TriangulatedGrid(12, 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.H1Trivial() {
			b.Fatal("expected trivial H1")
		}
	}
}
