package stream

import "dcc/internal/graph"

// Election replay (DESIGN.md §13). A deletability verdict reads only
// Γ^k(v), and within an election that ball is a pure function of two
// things: the ball on the election's start graph, and the set of
// deletions committed while inside it, which vpt.Cache.DigestAt digests.
// So a node whose start ball no event changed since the previous election
// (it lies outside every touched node's k-hop region) and whose digest
// matches one of its test records from that election sees exactly the
// ball that record saw, and takes the record's verdict without a
// fingerprint. Every other test falls back to the fingerprint memo.

// replayRec is one test of an election: the node's deletion digest at
// test time and the verdict it got.
type replayRec struct {
	digest  uint64
	next    int32 // the node's previous record in the same table, -1 ends the chain
	verdict bool
}

// replayTable holds one election's test records, chained per node.
type replayTable struct {
	ids  []graph.NodeID // the election's live nodes, sorted: head's index space
	head []int32        // by base index: the node's latest record, -1 when untested
	recs []replayRec
}

// reset empties the table for an election over g, reusing its buffers.
func (t *replayTable) reset(g *graph.Graph) {
	n := g.NumNodes()
	t.ids, t.head = t.ids[:0], t.head[:0]
	for i := 0; i < n; i++ {
		t.ids = append(t.ids, g.NodeAt(i))
		t.head = append(t.head, -1)
	}
	t.recs = t.recs[:0]
}

// replay carries test records from one election to the next. Lookups read
// only prev, the previous election's records; next fills with the running
// election's. The two swap when the election ends and keep their buffers.
type replay struct {
	prev, next replayTable
	// look, by base index of the running election, is the head of the
	// node's record chain in prev, or negative when the node is dirty or
	// was not tested last time.
	look []int32
}

// begin prepares an election over g whose cache view is view. touched
// lists the nodes whose live adjacency changed since the previous
// election (all: every node may have); their k-hop region on g is dirty.
func (r *replay) begin(g *graph.Graph, view *graph.DeleteView, touched []graph.NodeID, all bool, k int, s *graph.Scratch) {
	n := g.NumNodes()
	r.look = r.look[:0]
	// Both id lists are sorted: one merge maps each live node to its
	// chain in the previous table.
	j := 0
	for i := 0; i < n; i++ {
		v := g.NodeAt(i)
		for j < len(r.prev.ids) && r.prev.ids[j] < v {
			j++
		}
		h := int32(-1)
		if !all && j < len(r.prev.ids) && r.prev.ids[j] == v {
			h = r.prev.head[j]
		}
		r.look = append(r.look, h)
	}
	if !all {
		// A touched node expanded once is marked -2 so its repeats in
		// touched skip the BFS; any negative look means no replay.
		for _, v := range touched {
			i, ok := g.IndexOf(v)
			if !ok || r.look[i] == -2 {
				continue // dead now, or already expanded
			}
			r.look[i] = -2
			for _, bi := range view.KHopBallIndices(v, k, s) {
				if r.look[bi] >= 0 {
					r.look[bi] = -1
				}
			}
		}
	}
	r.next.reset(g)
}

// lookup returns the previous election's verdict for the node at base
// index i if the node is clean and one of its records has digest d.
func (r *replay) lookup(i int, d uint64) (verdict, ok bool) {
	for c := r.look[i]; c >= 0; {
		rec := &r.prev.recs[c]
		if rec.digest == d {
			return rec.verdict, true
		}
		c = rec.next
	}
	return false, false
}

// record adds a test of the node at base index i to the running
// election's table.
func (r *replay) record(i int, d uint64, verdict bool) {
	t := &r.next
	t.recs = append(t.recs, replayRec{digest: d, next: t.head[i], verdict: verdict})
	t.head[i] = int32(len(t.recs) - 1)
}

// end makes the running election's records the ones the next election
// replays.
func (r *replay) end() { r.prev, r.next = r.next, r.prev }
