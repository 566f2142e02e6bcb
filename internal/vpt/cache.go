package vpt

import (
	"slices"

	"dcc/internal/cycles"
	"dcc/internal/graph"
	"dcc/internal/telemetry"
)

// Tester bundles the reusable scratch state of a deletability-testing
// worker: graph extraction buffers (BFS queues, visit stamps, index maps)
// and the GF(2) elimination workspace. One Tester amortizes the per-call
// allocations of the hot loop across the thousands of evaluations a
// scheduling run performs. Not safe for concurrent use — give each worker
// its own.
type Tester struct {
	ws *cycles.Workspace
	// direct is the reusable filtered direct-neighbour buffer of the
	// void-confinement check.
	direct []graph.NodeID
}

// NewTester returns an empty Tester.
func NewTester() *Tester { return &Tester{ws: cycles.NewWorkspace()} }

// NeighborhoodDeletable is the package-level NeighborhoodDeletable
// evaluated with the Tester's reusable buffers — identical verdict,
// amortized allocations.
func (t *Tester) NeighborhoodDeletable(neighborhood *graph.Graph, directNeighbors []graph.NodeID, tau int) bool {
	if neighborhood.NumNodes() == 0 {
		return false
	}
	if !neighborhood.IsConnected() {
		return false
	}
	ok, buf := voidConfinedBuf(neighborhood, directNeighbors, tau, t.direct)
	t.direct = buf
	if !ok {
		return false
	}
	return cycles.SpannedByShortWS(neighborhood, tau, t.ws)
}

// Verdict cache values.
const (
	verdictUnknown int8 = -1
	verdictNo      int8 = 0
	verdictYes     int8 = 1
)

// Cache is the incremental deletability engine: it memoizes the
// VertexDeletable verdict per node over a deletion overlay of the base
// graph, and invalidates exactly the ≤ k-hop ball (k = ⌈τ/2⌉) around each
// vertex removed by a committed round.
//
// Soundness of the dirty radius (see DESIGN.md §11 for the proof sketch):
// the verdict of v depends only on Γ^k(v), the subgraph induced by the
// live vertices within k hops of v. Removing a vertex u with live-path
// distance d(u,v) > k cannot change Γ^k(v): deletions never shorten
// distances, every vertex of Γ^k(v) reaches v by a ≤ k-hop live path
// avoiding u (all its vertices are within k hops of v, and u is not), and
// the edges among ball vertices are untouched. Hence a cached verdict
// outside the k-hop balls of the removed vertices — computed on the
// pre-removal view or later — is still the fresh verdict.
//
// A Cache is not safe for concurrent mutation. Concurrent workers may call
// ComputeFresh (read-only, caller-owned scratch) between mutations and
// publish results through Store afterwards.
type Cache struct {
	g       *graph.Graph
	tau, k  int
	view    *graph.DeleteView
	verdict []int8 // by base dense index
	// digest, by base dense index, sums deletionHash(u) over every u
	// removed through Commit while it lay within k live hops of the
	// vertex: an order-free digest of the deletions that reached its ball.
	digest  []uint64
	scratch *graph.Scratch
	tester  *Tester
	stats   CacheStats

	// Telemetry handles, nil (no-op) unless Instrument was called. All
	// three counters and the dirty-ball histogram are deterministic-class:
	// CacheStats is worker-count-invariant by the fixed-chunk decomposition
	// of core's parallel engine, and the Commit/Restore dirty sets are a
	// pure function of the deletion history.
	telLookups, telComputes, telInvalidated *telemetry.Counter
	telDirty                                *telemetry.Hist
}

// dirtyBallBounds buckets Commit/Restore dirty-set sizes: the k-hop ball
// population is the quantity the incremental engine's cost model stands
// on, so power-of-two resolution up to 1024 is plenty.
var dirtyBallBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Instrument attaches the cache to reg: vpt.lookups, vpt.computes and
// vpt.invalidated counters plus the vpt.dirty_ball histogram of
// Commit/Restore dirty-set sizes. A nil reg leaves the cache
// uninstrumented (all handles stay nil-safe no-ops).
func (c *Cache) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.telLookups = reg.Counter("vpt.lookups")
	c.telComputes = reg.Counter("vpt.computes")
	c.telInvalidated = reg.Counter("vpt.invalidated")
	c.telDirty = reg.Histogram("vpt.dirty_ball", dirtyBallBounds)
}

// CacheStats counts the work a Cache performed.
type CacheStats struct {
	// Lookups counts Deletable calls on live nodes.
	Lookups int
	// Computes counts actual verdict evaluations (cache misses plus
	// ComputeFresh calls published via Store are not included).
	Computes int
	// Invalidated counts verdict entries reset by Commit/Restore.
	Invalidated int
}

// NewCache returns a cache over g for confine size tau (≥ 3; smaller
// values yield a cache whose every verdict is false, mirroring
// VertexDeletable).
func NewCache(g *graph.Graph, tau int) *Cache {
	c := &Cache{
		g:       g,
		tau:     tau,
		k:       NeighborhoodRadius(tau),
		view:    graph.NewDeleteView(g),
		verdict: make([]int8, g.NumNodes()),
		digest:  make([]uint64, g.NumNodes()),
		scratch: graph.NewScratch(g),
		tester:  NewTester(),
	}
	for i := range c.verdict {
		c.verdict[i] = verdictUnknown
	}
	return c
}

// Tau returns the confine size the cache tests against.
func (c *Cache) Tau() int { return c.tau }

// Radius returns the invalidation radius k = ⌈τ/2⌉.
func (c *Cache) Radius() int { return c.k }

// View returns the live-vertex overlay. Callers must not mutate it
// directly — all deletions go through Commit so invalidation stays
// coupled to removal.
func (c *Cache) View() *graph.DeleteView { return c.view }

// Alive reports whether v is still a live vertex.
func (c *Cache) Alive(v graph.NodeID) bool { return c.view.Alive(v) }

// LiveNodes returns the live vertices in increasing ID order.
func (c *Cache) LiveNodes() []graph.NodeID { return c.view.LiveNodes() }

// LiveGraph materializes the live remainder as a real Graph, structurally
// identical to applying DeleteVertices for every removed vertex.
func (c *Cache) LiveGraph() *graph.Graph { return c.view.Materialize() }

// Stats returns the work counters accumulated so far.
func (c *Cache) Stats() CacheStats { return c.stats }

// DigestAt returns the deletion digest of the vertex at base dense index i
// (see Graph.IndexOf): the sum of deletionHash(u) over every vertex u that
// Commit deleted while i was live and within k live hops of u,
// ball measured on the pre-removal view. 0 means no deletion has reached
// i's ball.
//
// The digest pins the ball. Γ^k(v) after a run of deletions is the k-hop
// ball of v in its construction-time ball minus the deletions that were
// inside v's ball when committed (a deletion outside leaves the ball
// alone, one inside changes it as a function of the old ball only). So
// equal digests over equal construction-time balls mean equal current
// balls, up to a 64-bit sum collision between two distinct deletion sets.
// Restore does not touch the digest: callers that restore (the node-rejoin
// path) must not read it as a ball identity. The streaming engine's
// election replay (DESIGN.md §13) stands on this.
func (c *Cache) DigestAt(i int) uint64 { return c.digest[i] }

// deletionHash is the per-vertex term of the deletion digest: splitmix64's
// finalizer of the ID, a bijection of 64-bit words, so distinct vertices
// always contribute distinct terms.
func deletionHash(v graph.NodeID) uint64 {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Deletable returns VertexDeletable(live graph, v, tau), memoized: a clean
// cached verdict is returned as-is (the dirty-radius invariant guarantees
// it equals fresh recomputation), a stale one is recomputed with the
// cache-owned scratch. Dead or absent vertices are never deletable.
//
//lint:hotpath
func (c *Cache) Deletable(v graph.NodeID) bool {
	i, ok := c.g.IndexOf(v)
	if !ok || !c.view.LiveAt(i) {
		return false
	}
	c.stats.Lookups++
	c.telLookups.Inc()
	if c.verdict[i] == verdictUnknown {
		c.verdict[i] = c.compute(v, c.scratch, c.tester)
		c.stats.Computes++
		c.telComputes.Inc()
	}
	return c.verdict[i] == verdictYes
}

// ComputeFresh evaluates the verdict for v with caller-owned scratch,
// without reading or writing the memo — the form concurrent workers use to
// batch cache-miss work (publish with Store once the batch joins). s and t
// must not be shared between concurrent callers.
//
//lint:hotpath
func (c *Cache) ComputeFresh(v graph.NodeID, s *graph.Scratch, t *Tester) bool {
	if !c.view.Alive(v) {
		return false
	}
	return c.compute(v, s, t) == verdictYes
}

// Store publishes an externally computed verdict (from ComputeFresh) into
// the memo. The caller must ensure no Commit/Restore happened between the
// computation and the store.
func (c *Cache) Store(v graph.NodeID, deletable bool) {
	i, ok := c.g.IndexOf(v)
	if !ok || !c.view.LiveAt(i) {
		return
	}
	if deletable {
		c.verdict[i] = verdictYes
	} else {
		c.verdict[i] = verdictNo
	}
}

func (c *Cache) compute(v graph.NodeID, s *graph.Scratch, t *Tester) int8 {
	res := false
	if c.tau >= 3 {
		sub, direct := c.view.ExtractNeighborhood(v, c.k, s)
		if sub != nil && sub.NumNodes() > 0 {
			res = t.NeighborhoodDeletable(sub, direct, c.tau)
		}
	}
	debugCheckCacheVerdict(c, v, res)
	if res {
		return verdictYes
	}
	return verdictNo
}

// Commit removes a set of vertices deleted by the scheduler and
// invalidates every cached verdict within k live-path hops of a removed
// vertex (balls measured on the pre-removal view — distances only grow
// under deletion, so this covers every vertex whose Γ^k changed). It
// returns the dirtied live vertices in increasing ID order: exactly the
// nodes whose verdict may have changed and must be retested.
func (c *Cache) Commit(deleted []graph.NodeID) []graph.NodeID {
	// Union of the pre-removal k-hop balls; each ball also takes the
	// deleted vertex's digest term. KHopBallIndices reuses the scratch ball
	// buffer, so copy per vertex.
	var dirty []int32
	for _, v := range deleted {
		ball := c.view.KHopBallIndices(v, c.k, c.scratch)
		h := deletionHash(v)
		for _, bi := range ball {
			c.digest[bi] += h
		}
		dirty = append(dirty, ball...)
	}
	for _, v := range deleted {
		if c.view.Delete(v) {
			if i, ok := c.g.IndexOf(v); ok {
				c.verdict[i] = verdictNo // dead vertices are never deletable
			}
		}
	}
	slices.Sort(dirty)
	out := make([]graph.NodeID, 0, len(dirty))
	for i, bi := range dirty {
		if i > 0 && dirty[i-1] == bi {
			continue
		}
		if !c.view.LiveAt(int(bi)) {
			continue // removed alongside v in the same batch
		}
		if c.verdict[bi] != verdictUnknown {
			c.stats.Invalidated++
			c.telInvalidated.Inc()
		}
		c.verdict[bi] = verdictUnknown
		out = append(out, c.g.NodeAt(int(bi)))
	}
	c.telDirty.Observe(int64(len(out)))
	debugAuditClean(c)
	return out
}

// Restore revives a vertex previously removed through Commit — the
// node-rejoin path of the streaming engine — and invalidates every cached
// verdict within k live-path hops of v measured on the post-restore view.
// The mirror-image soundness argument of Commit applies: an insertion only
// ever shortens live distances, so any vertex whose Γ^k gained v (or gained
// a path through v) is within k post-restore hops of v, and the
// post-restore ball therefore covers everything whose verdict may have
// changed. It returns the dirtied live vertices (v included) in increasing
// ID order; a nil return means v was not a dead vertex of the base graph
// and nothing changed.
func (c *Cache) Restore(v graph.NodeID) []graph.NodeID {
	if !c.view.Restore(v) {
		return nil
	}
	dirty := c.view.KHopBallIndices(v, c.k, c.scratch)
	vi, _ := c.g.IndexOf(v)
	out := make([]graph.NodeID, 0, len(dirty)+1)
	mark := func(bi int32) {
		if c.verdict[bi] != verdictUnknown {
			c.stats.Invalidated++
			c.telInvalidated.Inc()
		}
		c.verdict[bi] = verdictUnknown
		out = append(out, c.g.NodeAt(int(bi)))
	}
	// dirty is sorted by base index (= increasing ID) and excludes v;
	// splice v in at its place.
	placed := false
	for _, bi := range dirty {
		if !placed && int32(vi) < bi {
			mark(int32(vi))
			placed = true
		}
		mark(bi)
	}
	if !placed {
		mark(int32(vi))
	}
	c.telDirty.Observe(int64(len(out)))
	debugAuditClean(c)
	return out
}
