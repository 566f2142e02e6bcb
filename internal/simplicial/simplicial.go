// Package simplicial implements the 2-dimensional simplicial-complex
// machinery behind the homology-group coverage baseline (HGC, Ghrist et
// al.): Rips complexes over connectivity graphs, the GF(2) boundary
// operator ∂2, first-homology ranks, and relative first homology with
// respect to a fence subcomplex via coning.
//
// Over GF(2):
//
//	dim H1 = dim Z1 − dim B1 = (m − n + c) − rank(∂2)
//
// where Z1 is the cycle space of the 1-skeleton and B1 the boundary space
// spanned by triangle boundaries. H1 is trivial iff every cycle of the
// 1-skeleton is a sum of triangle boundaries — the homology-group coverage
// criterion, and exactly the condition the paper's cycle-partition
// criterion relaxes.
package simplicial

import (
	"sort"

	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

// Triangle is a 2-simplex, stored with A < B < C.
type Triangle struct {
	A, B, C graph.NodeID
}

// Complex is a 2-dimensional simplicial complex: a graph (the 1-skeleton)
// plus a set of triangles whose edges all belong to the graph.
type Complex struct {
	g         *graph.Graph
	triangles []Triangle
}

// Rips returns the Vietoris–Rips 2-complex of g: every 3-clique of the
// connectivity graph becomes a 2-simplex. This is the complex HGC builds
// from pure connectivity information.
func Rips(g *graph.Graph) *Complex {
	var tris []Triangle
	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeAt(i)
		u, v := e.U, e.V // u < v by construction
		nu, nv := g.Neighbors(u), g.Neighbors(v)
		// Intersect the two sorted neighbour lists, keeping w > v so each
		// triangle is enumerated exactly once.
		a, b := 0, 0
		for a < len(nu) && b < len(nv) {
			switch {
			case nu[a] < nv[b]:
				a++
			case nu[a] > nv[b]:
				b++
			default:
				if w := nu[a]; w > v {
					tris = append(tris, Triangle{A: u, B: v, C: w})
				}
				a++
				b++
			}
		}
	}
	return &Complex{g: g, triangles: tris}
}

// New builds a complex from an explicit triangle list. Triangles whose
// edges are not all present in g are ignored (a complex must be closed
// under taking faces).
func New(g *graph.Graph, tris []Triangle) *Complex {
	kept := make([]Triangle, 0, len(tris))
	for _, t := range tris {
		v := []graph.NodeID{t.A, t.B, t.C}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		t = Triangle{A: v[0], B: v[1], C: v[2]}
		if g.HasEdge(t.A, t.B) && g.HasEdge(t.B, t.C) && g.HasEdge(t.A, t.C) {
			kept = append(kept, t)
		}
	}
	return &Complex{g: g, triangles: kept}
}

// Graph returns the 1-skeleton.
func (k *Complex) Graph() *graph.Graph { return k.g }

// NumTriangles returns the number of 2-simplices.
func (k *Complex) NumTriangles() int { return len(k.triangles) }

// Triangles returns a copy of the triangle list.
func (k *Complex) Triangles() []Triangle {
	return append([]Triangle(nil), k.triangles...)
}

// boundaryVector returns ∂2 of a triangle as a GF(2) vector over the edge
// indices of the 1-skeleton.
func (k *Complex) boundaryVector(t Triangle) bitvec.Vector {
	v := bitvec.New(k.g.NumEdges())
	for _, pair := range [3][2]graph.NodeID{{t.A, t.B}, {t.B, t.C}, {t.A, t.C}} {
		if e, ok := k.g.EdgeIndex(pair[0], pair[1]); ok {
			v.Set(e, true)
		}
	}
	return v
}

// BoundaryRank returns rank(∂2), the dimension of the boundary space B1.
// Insertion stops early once the rank reaches the cycle-space dimension
// (at which point H1 is already known to be trivial).
func (k *Complex) BoundaryRank() int {
	nu := k.g.CycleSpaceDim()
	ech := bitvec.NewEchelon(k.g.NumEdges())
	for _, t := range k.triangles {
		if ech.Insert(k.boundaryVector(t)) && ech.Rank() == nu {
			break
		}
	}
	return ech.Rank()
}

// H1Rank returns dim H1 of the complex over GF(2).
func (k *Complex) H1Rank() int {
	return k.g.CycleSpaceDim() - k.BoundaryRank()
}

// H1Trivial reports whether the first homology group is trivial —
// the (absolute) homology-group coverage criterion.
func (k *Complex) H1Trivial() bool { return k.H1Rank() == 0 }

// BoundarySpans reports whether the given edge-incidence vector is a sum of
// triangle boundaries, i.e. whether the corresponding cycle is
// null-homologous in the complex.
func (k *Complex) BoundarySpans(target bitvec.Vector) bool {
	nu := k.g.CycleSpaceDim()
	ech := bitvec.NewEchelon(k.g.NumEdges())
	for _, t := range k.triangles {
		if ech.Insert(k.boundaryVector(t)) && ech.Rank() == nu {
			break
		}
	}
	return ech.Spans(target)
}

// ConeFence returns the complex obtained by coning the fence: a fresh apex
// vertex is joined to every fence node, and a triangle {apex,u,v} is added
// for every fence edge {u,v} present in the 1-skeleton. Coning makes the
// fence subcomplex contractible, so the cone's absolute H1 equals the
// original pair's relative H1(K, F) — the fenced criterion of de Silva and
// Ghrist. The apex ID is returned alongside the new complex.
func (k *Complex) ConeFence(fence []graph.NodeID) (*Complex, graph.NodeID) {
	apex := graph.NodeID(0)
	for _, v := range k.g.Nodes() {
		if v >= apex {
			apex = v + 1
		}
	}
	b := graph.NewBuilder(k.g.NumNodes(), k.g.NumEdges()+len(fence))
	for _, v := range k.g.Nodes() {
		b.AddNode(v)
	}
	for _, e := range k.g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	inFence := make(map[graph.NodeID]struct{}, len(fence))
	for _, v := range fence {
		if k.g.HasNode(v) {
			inFence[v] = struct{}{}
			b.AddEdge(apex, v)
		}
	}
	cg := b.MustBuild()
	tris := append([]Triangle(nil), k.triangles...)
	for _, e := range k.g.Edges() {
		if _, ok := inFence[e.U]; !ok {
			continue
		}
		if _, ok := inFence[e.V]; !ok {
			continue
		}
		tris = append(tris, Triangle{A: e.U, B: e.V, C: apex})
	}
	return New(cg, tris), apex
}

// H1TrivialRelative reports whether H1(K, fence) is trivial, computed via
// the fence cone.
func (k *Complex) H1TrivialRelative(fence []graph.NodeID) bool {
	cone, _ := k.ConeFence(fence)
	return cone.H1Trivial()
}

// DeleteVertices returns the subcomplex induced by removing the given
// vertices: their incident edges and triangles disappear.
func (k *Complex) DeleteVertices(del []graph.NodeID) *Complex {
	g2 := k.g.DeleteVertices(del)
	drop := make(map[graph.NodeID]struct{}, len(del))
	for _, v := range del {
		drop[v] = struct{}{}
	}
	tris := make([]Triangle, 0, len(k.triangles))
	for _, t := range k.triangles {
		if _, gone := drop[t.A]; gone {
			continue
		}
		if _, gone := drop[t.B]; gone {
			continue
		}
		if _, gone := drop[t.C]; gone {
			continue
		}
		tris = append(tris, t)
	}
	return &Complex{g: g2, triangles: tris}
}
