package graph

import (
	"math"
	"slices"
	"sync"
)

// Scratch holds the reusable buffers behind the compact subgraph
// constructor and the deletion-overlay BFS: visit stamps, BFS queues and
// base→local index mappings. A Scratch amortizes the per-call allocations
// of the deletability hot loop (ISSUE: per-worker scratch); it is NOT safe
// for concurrent use — give each worker its own via NewScratch.
//
// All buffers are epoch-stamped: reuse never requires clearing, so a
// Scratch can serve graphs of different sizes back to back.
type Scratch struct {
	// BFS state (ballIdx, twoCore).
	stamp []int32
	epoch int32
	queue []int32
	ball  []int32
	// Base→local mapping for compactInduced.
	local  []int32
	lstamp []int32
	lepoch int32
	// Per-local-node degree counts for compactInduced.
	deg []int32
}

// NewScratch returns a Scratch pre-sized for graphs up to g's order. A nil
// g yields an empty Scratch that grows on first use (handy for pooled
// per-worker scratch created before the target graph is known).
func NewScratch(g *Graph) *Scratch {
	s := &Scratch{}
	if g != nil {
		s.ensure(len(g.ids))
	}
	return s
}

func (s *Scratch) ensure(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]int32, n)
		s.local = make([]int32, n)
		s.lstamp = make([]int32, n)
	}
}

// nextEpoch advances the BFS epoch, resetting the stamp array on the
// (practically unreachable) int32 wraparound.
func (s *Scratch) nextEpoch() int32 {
	if s.epoch == math.MaxInt32 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

func (s *Scratch) nextLocalEpoch() int32 {
	if s.lepoch == math.MaxInt32 {
		for i := range s.lstamp {
			s.lstamp[i] = 0
		}
		s.lepoch = 0
	}
	s.lepoch++
	return s.lepoch
}

// scratchPool recycles Scratch instances for the public graph-derivation
// entry points (InducedSubgraph, DeleteVertices, TwoCore), which cannot
// thread a caller-owned Scratch without changing their signatures.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

func getScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.ensure(n)
	return s
}

func putScratch(s *Scratch) { scratchPool.Put(s) }

// compactInduced builds the subgraph induced by the base-index set keep
// (strictly ascending). It produces a Graph structurally identical to the
// one Builder would construct from the same nodes and edges — node IDs
// ascending, edges sorted by (U,V), adjacency lists sorted with the
// parallel edge-index lists — but in two array passes with no maps, which
// is what makes per-candidate neighbourhood extraction affordable inside
// the deletability hot loop.
//
//lint:ignore hotalloc constructs the returned Graph: its backing arrays are owned by the result and must outlive every scratch buffer; the two-pass layout already allocates the exact final sizes
func (g *Graph) compactInduced(keep []int32, s *Scratch) *Graph {
	s.ensure(len(g.ids))
	nl := len(keep)
	sub := &Graph{
		ids:     make([]NodeID, nl),
		adj:     make([][]int32, nl),
		adjEdge: make([][]int32, nl),
	}
	ep := s.nextLocalEpoch()
	for li, bi := range keep {
		sub.ids[li] = g.ids[bi]
		s.local[bi] = int32(li)
		s.lstamp[bi] = ep
	}
	// Pass 1: count the surviving degree of each kept node and the number
	// of surviving edges.
	if cap(s.deg) < nl {
		s.deg = make([]int32, nl)
	}
	deg := s.deg[:nl]
	for li := range deg {
		deg[li] = 0
	}
	ne := 0
	for li, bi := range keep {
		for _, w := range g.adj[bi] {
			if s.lstamp[w] == ep {
				deg[li]++
				if s.local[w] > int32(li) {
					ne++
				}
			}
		}
	}
	if ne > 0 {
		sub.edges = make([]Edge, ne)
	}
	sub.edgeU = make([]int32, ne)
	sub.edgeV = make([]int32, ne)
	nbrBack := make([]int32, 2*ne)
	edgeBack := make([]int32, 2*ne)
	off := 0
	for li := range deg {
		d := int(deg[li])
		if d == 0 {
			continue // leave nil, matching Builder output for isolated nodes
		}
		sub.adj[li] = nbrBack[off : off : off+d]
		sub.adjEdge[li] = edgeBack[off : off : off+d]
		off += d
	}
	// Pass 2: enumerate surviving edges with the lower local endpoint
	// major. Local order equals ID order (keep ascending), so this emits
	// edges in (U,V)-sorted order, and each adjacency list fills in
	// ascending neighbour order — exactly the Builder invariants.
	e := 0
	for li, bi := range keep {
		for _, w := range g.adj[bi] {
			if s.lstamp[w] != ep {
				continue
			}
			lw := s.local[w]
			if lw <= int32(li) {
				continue
			}
			sub.edges[e] = Edge{U: sub.ids[li], V: sub.ids[lw]}
			sub.edgeU[e] = int32(li)
			sub.edgeV[e] = lw
			sub.adj[li] = append(sub.adj[li], lw)
			sub.adjEdge[li] = append(sub.adjEdge[li], int32(e))
			sub.adj[lw] = append(sub.adj[lw], int32(li))
			sub.adjEdge[lw] = append(sub.adjEdge[lw], int32(e))
			e++
		}
	}
	debugCheckGraph(sub) // no-op unless built with -tags dccdebug
	return sub
}

// sortDedupIndices sorts keep ascending and removes duplicates in place.
func sortDedupIndices(keep []int32) []int32 {
	slices.Sort(keep)
	out := keep[:0]
	for i, b := range keep {
		if i > 0 && keep[i-1] == b {
			continue
		}
		//lint:ignore hotalloc in-place dedup: out aliases keep's storage and never outgrows it, so the append cannot reallocate
		out = append(out, b)
	}
	return out
}
