package stream

import (
	"slices"
	"sort"

	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/telemetry"
)

// topology is the engine's authoritative picture of the deployment: the
// universe of every node ever seen (departed nodes stay, flagged dead, so a
// rejoin can take the O(1) DeleteView.Restore fast path), the universe edge
// set, and a compiled CSR base graph with a liveness overlay.
//
// Two mutation tiers keep the hot path hot. Liveness-only changes (leave,
// crash, rejoin-in-place) flip the dead flag, and the overlay too while
// the base is compiled. Structural changes (new node, edge churn,
// geometric moves) edit the universe slices and mark the base stale; the
// next liveGraph compiles it once, so a burst of structural events between
// two elections costs one O(n+m) compile, not one per event.
//
// Every applied event also records the nodes whose live adjacency it may
// change (touched): the next election dirties their k-hop region and
// replays the previous election's verdicts everywhere else (DESIGN.md §13).
type topology struct {
	radius float64 // > 0: unit-disk edges derived from positions

	ids   []graph.NodeID // sorted universe ids
	pos   []geom.Point   // parallel to ids
	dead  []bool         // parallel to ids
	edges []graph.Edge   // normalized (U < V), sorted
	live  int            // number of false entries in dead

	// base and view mirror the universe slices only while !stale.
	stale bool
	base  *graph.Graph
	view  *graph.DeleteView

	// touched lists, with repeats, every node whose live adjacency an
	// event applied since the last takeTouched may have changed; allTouched
	// says the whole universe may have (genesis, snapshot install, or a
	// list grown past one entry per universe node, whose k-hop region
	// would cover nearly everything anyway — so the list stays bounded
	// however long no election runs).
	touched    []graph.NodeID
	allTouched bool

	stats *Stats              // structural-event / fast-restore counters, owned by the engine
	tel   *telemetry.Registry // rebuild span source; nil when telemetry is off
}

func newTopology(g *graph.Graph, radius float64, pos []geom.Point, stats *Stats) *topology {
	// The genesis graph is its own compilation: Nodes() and Edges() come
	// back sorted, so recompiling would reproduce g exactly.
	return &topology{
		radius: radius,
		ids:    g.Nodes(),
		pos:    pos,
		dead:   make([]bool, g.NumNodes()),
		edges:  g.Edges(),
		live:   g.NumNodes(),
		base:   g,
		view:   graph.NewDeleteView(g),
		stats:  stats,

		allTouched: true,
	}
}

// find locates v in the sorted universe.
func (t *topology) find(v graph.NodeID) (int, bool) {
	i := sort.Search(len(t.ids), func(i int) bool { return t.ids[i] >= v })
	return i, i < len(t.ids) && t.ids[i] == v
}

func (t *topology) alive(v graph.NodeID) bool {
	i, ok := t.find(v)
	return ok && !t.dead[i]
}

// liveGraph materializes the live induced subgraph, compiling the base
// first if a structural change left it stale.
func (t *topology) liveGraph() *graph.Graph {
	if t.stale {
		t.compile()
	}
	return t.view.Materialize()
}

// liveCount never compiles: publish reads it on every Ingest.
func (t *topology) liveCount() int { return t.live }

// compile builds the CSR base from the universe slices and replays the
// dead flags onto a fresh overlay.
func (t *topology) compile() {
	sp := t.tel.StartSpan("stream.rebuild")
	defer sp.End()
	b := graph.NewBuilder(len(t.ids), len(t.edges))
	for _, v := range t.ids {
		b.AddNode(v)
	}
	for _, e := range t.edges {
		b.AddEdge(e.U, e.V)
	}
	t.base = b.MustBuild()
	t.view = graph.NewDeleteView(t.base)
	for i, d := range t.dead {
		if d {
			t.view.Delete(t.ids[i])
		}
	}
	t.stale = false
}

// install replaces the universe wholesale (snapshot recovery) and marks
// the base stale. It is not topology churn, so Stats.Rebuilds is left
// alone.
func (t *topology) install(ids []graph.NodeID, pos []geom.Point, dead []bool, edges []graph.Edge) {
	t.ids, t.pos, t.dead, t.edges = ids, pos, dead, edges
	t.live = 0
	for _, d := range dead {
		if !d {
			t.live++
		}
	}
	t.stale = true
	t.allTouched = true
}

// touch records v and its universe neighbours as nodes whose live
// adjacency the current event may change. An event touches its node
// before and after a structural edit, so neighbours lost and gained are
// both recorded; dead neighbours are recorded too and skipped at election
// time.
func (t *topology) touch(v graph.NodeID) {
	if !t.allTouched {
		t.touched = t.universeNeighbors(append(t.touched, v), v)
		t.boundTouched()
	}
}

// touchEdge records both ends of an edge event: only their adjacency
// changes.
func (t *topology) touchEdge(u, v graph.NodeID) {
	if !t.allTouched {
		t.touched = append(t.touched, u, v)
		t.boundTouched()
	}
}

func (t *topology) boundTouched() {
	if len(t.touched) > len(t.ids) {
		t.touched, t.allTouched = t.touched[:0], true
	}
}

// takeTouched returns the nodes touched since the last call, and whether
// every node counts as touched, then starts a new record. The slice is
// valid until the next event is applied.
func (t *topology) takeTouched() ([]graph.NodeID, bool) {
	touched, all := t.touched, t.allTouched
	t.touched, t.allTouched = t.touched[:0], false
	return touched, all
}

// structural records a structural event: the base goes stale and the
// event counts toward Stats.Rebuilds.
func (t *topology) structural() {
	t.stale = true
	t.stats.Rebuilds++
}

// setDead flips the liveness of universe member i (the engine has
// validated that it changes), mirroring it onto the overlay while the base
// is compiled.
func (t *topology) setDead(i int, dead bool) {
	t.dead[i] = dead
	if dead {
		t.live--
	} else {
		t.live++
	}
	if t.stale {
		return
	}
	if dead {
		t.view.Delete(t.ids[i])
	} else {
		t.view.Restore(t.ids[i])
	}
}

// edgeIndex locates the normalized edge in the sorted universe edge list.
func (t *topology) edgeIndex(e graph.Edge) (int, bool) {
	i := sort.Search(len(t.edges), func(i int) bool {
		if t.edges[i].U != e.U {
			return t.edges[i].U >= e.U
		}
		return t.edges[i].V >= e.V
	})
	return i, i < len(t.edges) && t.edges[i] == e
}

func (t *topology) hasEdge(u, v graph.NodeID) bool {
	_, ok := t.edgeIndex(graph.NormEdge(u, v))
	return ok
}

// insertEdge splices e into the sorted universe edge list; the caller
// guarantees it is absent.
func (t *topology) insertEdge(e graph.Edge) {
	i, _ := t.edgeIndex(e)
	t.edges = append(t.edges, graph.Edge{})
	copy(t.edges[i+1:], t.edges[i:])
	t.edges[i] = e
}

// removeEdge deletes e from the universe edge list if present.
func (t *topology) removeEdge(e graph.Edge) bool {
	i, ok := t.edgeIndex(e)
	if !ok {
		return false
	}
	t.edges = append(t.edges[:i], t.edges[i+1:]...)
	return true
}

// removeIncident drops every universe edge touching v.
func (t *topology) removeIncident(v graph.NodeID) {
	kept := t.edges[:0]
	for _, e := range t.edges {
		if e.U != v && e.V != v {
			kept = append(kept, e)
		}
	}
	t.edges = kept
}

// deriveNeighbors returns, sorted, the live nodes within the unit-disk
// radius of p (excluding v itself) — the edge set a geometric join or move
// of v must end up with.
func (t *topology) deriveNeighbors(v graph.NodeID, p geom.Point) []graph.NodeID {
	var out []graph.NodeID
	for j, w := range t.ids {
		if w == v || t.dead[j] {
			continue
		}
		if geom.Dist(p, t.pos[j]) <= t.radius {
			out = append(out, w)
		}
	}
	return out
}

// universeNeighbors appends v's universe neighbors, dead ones included,
// to dst in ascending order. It reads the universe edge list, never the
// compiled base, so it is exact while the base is stale. Edges are
// (U,V)-sorted, so v's lower neighbors (edges ending at v) come first in
// ascending order, then its higher ones (edges starting at v); no edge
// past U = v touches v.
func (t *topology) universeNeighbors(dst []graph.NodeID, v graph.NodeID) []graph.NodeID {
	for _, e := range t.edges {
		switch {
		case e.U > v:
			return dst
		case e.U == v:
			dst = append(dst, e.V)
		case e.V == v:
			dst = append(dst, e.U)
		}
	}
	return dst
}

// retainedLiveNeighbors returns, sorted, the live universe neighbors v
// would reconnect to if revived in place — the Restore fast-path candidate
// set.
func (t *topology) retainedLiveNeighbors(v graph.NodeID) []graph.NodeID {
	return slices.DeleteFunc(t.universeNeighbors(nil, v), func(w graph.NodeID) bool { return !t.alive(w) })
}

// join places node v at p, either as a brand-new universe member or as a
// revival of a departed one. Revival in place — identical position and, in
// geometric mode, a derived neighbor set identical to the retained one —
// is a liveness flip; everything else is structural.
func (t *topology) join(v graph.NodeID, p geom.Point) {
	i, ok := t.find(v)
	if ok {
		// Revival of a departed node. In explicit-topology mode the node
		// always comes back with its retained universe edges (position is
		// metadata), so revival is always a liveness flip; in geometric
		// mode only an in-place revival whose derived neighbor set still
		// matches the retained one leaves the edge set alone.
		if t.radius <= 0 {
			t.pos[i] = p
			t.setDead(i, false)
			t.touch(v)
			t.stats.FastRestores++
			return
		}
		if t.pos[i] == p &&
			slices.Equal(t.deriveNeighbors(v, p), t.retainedLiveNeighbors(v)) {
			t.setDead(i, false)
			t.touch(v)
			t.stats.FastRestores++
			return
		}
		t.pos[i] = p
		t.setDead(i, false)
	} else {
		t.ids = slices.Insert(t.ids, i, v)
		t.pos = slices.Insert(t.pos, i, p)
		t.dead = slices.Insert(t.dead, i, false)
		t.live++
	}
	t.touch(v)
	t.removeIncident(v)
	if t.radius > 0 {
		for _, w := range t.deriveNeighbors(v, p) {
			t.insertEdge(graph.NormEdge(v, w))
		}
	}
	t.touch(v)
	t.structural()
}

// depart marks a live node dead: a liveness flip. Its universe edges are
// retained for a potential in-place revival.
func (t *topology) depart(v graph.NodeID) {
	i, _ := t.find(v)
	t.setDead(i, true)
	t.touch(v)
}

// move updates v's position. In explicit-topology mode position is pure
// metadata; in geometric mode v's incident edges are re-derived against the
// live nodes' current positions, which is what makes the final universe
// edge set a function of each node's latest position (and what licenses
// the engine's mobility-tick coalescing).
func (t *topology) move(v graph.NodeID, p geom.Point) {
	i, _ := t.find(v)
	t.pos[i] = p
	if t.radius <= 0 {
		return
	}
	t.touch(v)
	t.removeIncident(v)
	for _, w := range t.deriveNeighbors(v, p) {
		t.insertEdge(graph.NormEdge(v, w))
	}
	t.touch(v)
	t.structural()
}

// edgeUp / edgeDown edit the explicit universe edge set; the engine has
// already validated liveness, existence and mode.
func (t *topology) edgeUp(u, v graph.NodeID) {
	t.insertEdge(graph.NormEdge(u, v))
	t.touchEdge(u, v)
	t.structural()
}

func (t *topology) edgeDown(u, v graph.NodeID) {
	t.removeEdge(graph.NormEdge(u, v))
	t.touchEdge(u, v)
	t.structural()
}
