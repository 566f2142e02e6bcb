// Package shard schedules confine-based coverage over a spatially
// partitioned deployment: the bounding rectangle is cut into a grid of
// regions, each owning a local CSR subgraph plus a halo of replicated
// border nodes, and a coordinator replays the canonical election across
// the regions in geometry-separated batches.
//
// The design stands on the paper's locality results (Theorem 3 /
// Section V): deletability is a k-hop-local test with k = ⌈τ/2⌉, so a
// region that replicates every node within k·Rc of its cell sees, for
// each node it owns, exactly the global k-hop ball — every edge is at
// most Rc long, so a k-hop path starting at an owned node never leaves
// the cell's k·Rc-neighbourhood (DESIGN.md §15 has the full halo
// invariant). Verdicts therefore evaluate shard-locally with no global
// graph anywhere: each region's subgraph is assembled by a
// graph.StreamBuilder from streamed node/edge records, and the only
// global state the coordinator keeps is flat per-node arrays (owner
// cell, liveness, position).
//
// Equivalence contract: Schedule returns a core.Result byte-identical
// (reflect.DeepEqual) to core.Schedule in Canonical mode on the same
// topology, for every shard count and every worker count. The
// coordinator owns the one core.ElectionQueue; shards only ever receive
// deletion deltas and answer verdict queries, mirroring the controller
// split of SDN-style duty-cycling (SNIPPETS.md §1). Batching is
// speculative and validated: members are pairwise farther than k·Rc
// apart (verdict-independent), and a batch is cut short the moment a
// dirtied node outranks the next member (DESIGN.md §15 proves the replay
// is exactly the sequential order).
package shard

import (
	"errors"
	"fmt"
	"math"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/telemetry"
	"dcc/internal/vpt"
)

// ErrUnsupported marks inputs outside the engine's geometric contract: a
// link longer than Rc, which would let a k-hop ball escape the halo, or a
// non-finite position, which no grid cell can own. The public layer maps
// it onto dcc.ErrShardedUnsupported.
var ErrUnsupported = errors.New("shard: input outside the engine's geometric contract")

// Options configures a sharded schedule. The Seed/Workers/Telemetry
// trio follows the repo-wide config vocabulary (DESIGN.md §15): Seed is
// the base seed of the canonical priorities, Workers caps concurrency
// (0 = all CPUs, 1 = sequential; the result is identical for any
// value), Telemetry is the optional metrics registry (nil = no
// collection; never changes results).
type Options struct {
	// Tau is the confine size τ ≥ 3.
	Tau int
	// Seed is the base seed of the canonical deletion priorities. The
	// kept set is a pure function of (topology, Seed).
	Seed int64
	// Workers caps the worker count of every parallel section (0 = all
	// CPUs, 1 = sequential). Results are byte-identical for any value.
	Workers int
	// Shards is the number of grid regions (0 = auto-size at roughly one
	// region per 4096 nodes). Results are byte-identical for any value.
	Shards int
	// HaloHops is the replication depth of each region's halo in hops
	// (0 = the minimum sound depth ⌈τ/2⌉). Values below ⌈τ/2⌉ are
	// rejected: a thinner halo breaks the locality proof. Deeper halos
	// trade memory for nothing here — the verdict never looks past
	// ⌈τ/2⌉ hops — but are accepted for experimentation.
	HaloHops int
	// Telemetry is the optional metrics registry (nil = off). Collection
	// never changes the schedule.
	Telemetry *telemetry.Registry
}

// Input is a deployment in shard-ingestible form: positions plus
// boundary flags, with links either induced from an explicit graph or
// derived geometrically. Node IDs are the position indices 0..n-1.
type Input struct {
	// Points holds the node positions; node i sits at Points[i].
	Points []geom.Point
	// Rc is the maximum link length. Every edge must span at most Rc —
	// the halo soundness argument is geometric, so a longer link would
	// let a k-hop ball escape the replicated neighbourhood; Schedule
	// rejects such inputs.
	Rc float64
	// Boundary flags the undeletable frame nodes (len(Boundary) ==
	// len(Points)).
	Boundary []bool
	// G optionally supplies the link graph over IDs 0..n-1 (required
	// for non-geometric link models such as quasi-UDG, where links
	// cannot be re-derived from positions). nil derives unit-disk links
	// locally: i ↔ j iff dist ≤ Rc, exactly geom.UDG's rule.
	G *graph.Graph
}

// Stats describes the work a sharded schedule performed, alongside the
// core.Result counters.
type Stats struct {
	// Shards is the region count actually used; GridX×GridY = Shards.
	Shards, GridX, GridY int
	// HaloHops is the replication depth actually used.
	HaloHops int
	// Replicas counts node placements across regions (n means no node
	// was replicated; the excess over n is the halo overhead).
	Replicas int
	// MaxLocal is the largest region's node count, halo included.
	MaxLocal int
	// Batches counts coordinator rounds (parallel verdict waves).
	Batches int
	// Deferred counts batch members pushed back — by the geometric
	// conflict cut at batch formation or by the replay validation.
	Deferred int
	// Tests and Deletions mirror the core.Result counters.
	Tests, Deletions int
	// HaloDeltas counts deletion deltas applied to non-owner replicas —
	// the cross-region traffic a distributed deployment would pay.
	HaloDeltas int
}

// Schedule runs the sharded canonical election over the deployment and
// returns a core.Result byte-identical to core.Schedule with Mode
// Canonical on the same topology, plus the shard-level work counters.
func Schedule(in Input, opts Options) (core.Result, Stats, error) {
	e, err := newEngine(in, opts)
	if err != nil {
		return core.Result{}, Stats{}, err
	}
	reg := opts.Telemetry
	sp := reg.StartSpan("shard.partition")
	if err := e.build(); err != nil {
		return core.Result{}, Stats{}, err
	}
	sp.End()

	sp = reg.StartSpan("shard.elect")
	deleted, tests, err := e.elect()
	if err != nil {
		return core.Result{}, Stats{}, err
	}
	sp.End()

	sp = reg.StartSpan("shard.assemble")
	res := e.assemble(deleted, tests)
	sp.End()
	e.publish(reg)
	return res, e.stats, nil
}

// engine is the coordinator state of one sharded schedule.
type engine struct {
	in   Input
	opts Options
	gr   grid
	n    int
	k    int     // verdict locality radius ⌈τ/2⌉
	conf float64 // geometric conflict radius k·Rc (plus rounding slack)

	owner   []int32 // owning region per node
	alive   []bool  // coordinator liveness per node
	regions []*region
	stats   Stats
}

// region is one grid cell's share of the deployment: the subgraph
// induced on its owned-plus-halo node set and the deletability cache
// over it. Regions never talk to each other — the coordinator pushes
// deletion deltas in and pulls verdicts and dirty sets out.
type region struct {
	g     *graph.Graph
	cache *vpt.Cache
}

func newEngine(in Input, opts Options) (*engine, error) {
	n := len(in.Points)
	if n == 0 {
		return nil, errors.New("shard: empty deployment")
	}
	if !(in.Rc > 0) || math.IsInf(in.Rc, 1) {
		return nil, fmt.Errorf("shard: Rc %v is not a positive finite length", in.Rc)
	}
	// The edge guard in build and the grid map compare distances, and
	// every comparison with NaN is false: a non-finite position would slip
	// past the halo invariant instead of failing it.
	for i, p := range in.Points {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("%w: node %d has non-finite position (%v, %v)", ErrUnsupported, i, p.X, p.Y)
		}
	}
	if len(in.Boundary) != n {
		return nil, fmt.Errorf("shard: %d boundary flags for %d nodes", len(in.Boundary), n)
	}
	if opts.Tau < 3 {
		return nil, fmt.Errorf("shard: confine size %d < 3", opts.Tau)
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", opts.Shards)
	}
	k := vpt.NeighborhoodRadius(opts.Tau)
	halo := opts.HaloHops
	if halo == 0 {
		halo = k
	}
	if halo < k {
		return nil, fmt.Errorf("shard: halo depth %d below the sound minimum ⌈τ/2⌉ = %d", halo, k)
	}
	if in.G != nil {
		if got := in.G.NumNodes(); got != n {
			return nil, fmt.Errorf("shard: graph has %d nodes, deployment has %d", got, n)
		}
		for i := 0; i < n; i++ {
			if in.G.NodeAt(i) != graph.NodeID(i) {
				return nil, fmt.Errorf("shard: node IDs must be dense 0..n-1 (index %d holds %d)", i, in.G.NodeAt(i))
			}
		}
	}

	shards := opts.Shards
	if shards == 0 {
		shards = autoShards(n)
	}
	gr := newGrid(in.Points, shards, float64(halo)*in.Rc)
	e := &engine{
		in:   in,
		opts: opts,
		gr:   gr,
		n:    n,
		k:    k,
		// Inflate the conflict radius by a whisper of slack so summed
		// floating-point edge lengths can never certify independence that
		// an exact k-hop walk would deny. Determinism is unaffected — the
		// radius is the same constant on every run.
		conf:  float64(k) * in.Rc * (1 + 1e-9),
		owner: make([]int32, n),
		alive: make([]bool, n),
	}
	e.stats.Shards = gr.gx * gr.gy
	e.stats.GridX, e.stats.GridY = gr.gx, gr.gy
	e.stats.HaloHops = halo
	for i := range e.alive {
		e.alive[i] = true
	}
	return e, nil
}

// autoShards sizes the grid at roughly one region per 4096 nodes,
// rounded to a perfect square so cells stay near-square.
func autoShards(n int) int {
	r := int(math.Sqrt(float64(n) / 4096))
	if r < 1 {
		r = 1
	}
	return r * r
}

// build streams every node and edge record into its member regions'
// StreamBuilders and assembles the per-region subgraphs and caches in
// parallel. No global adjacency is ever materialized: the only
// edge-model state is either the caller's CSR graph (iterated once) or
// geom.PairsWithin's spatial hash of positions.
func (e *engine) build() error {
	nr := e.gr.gx * e.gr.gy
	builders := make([]*graph.StreamBuilder, nr)
	for s := range builders {
		builders[s] = graph.NewStreamBuilder(0, 0)
	}
	for i, p := range e.in.Points {
		e.owner[i] = int32(e.gr.ownerOf(p))
		x0, x1, y0, y1 := e.gr.memberRange(p)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				builders[cy*e.gr.gx+cx].AddNode(graph.NodeID(i))
				e.stats.Replicas++
			}
		}
	}
	emit := func(i, j int) {
		ax0, ax1, ay0, ay1 := e.gr.memberRange(e.in.Points[i])
		bx0, bx1, by0, by1 := e.gr.memberRange(e.in.Points[j])
		x0, x1 := maxInt(ax0, bx0), minInt(ax1, bx1)
		y0, y1 := maxInt(ay0, by0), minInt(ay1, by1)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				builders[cy*e.gr.gx+cx].AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	if g := e.in.G; g != nil {
		for ei := 0; ei < g.NumEdges(); ei++ {
			ed := g.EdgeAt(ei)
			u, v := int(ed.U), int(ed.V)
			if d := geom.Dist(e.in.Points[u], e.in.Points[v]); d > e.in.Rc {
				return fmt.Errorf("%w: edge {%d,%d} spans %v > Rc %v — the halo invariant needs every link within Rc", ErrUnsupported, u, v, d, e.in.Rc)
			}
			emit(u, v)
		}
	} else {
		geom.PairsWithin(e.in.Points, e.in.Rc, func(i, j int, _ float64) { emit(i, j) })
	}

	regions, err := runner.Map(nr, e.opts.Workers, func(s int) (*region, error) {
		//lint:ignore barrier task s consumes only its own builders[s]; the builders are disjoint per region and never shared across tasks
		g, err := builders[s].Build()
		if err != nil {
			return nil, fmt.Errorf("shard: region %d: %w", s, err)
		}
		c := vpt.NewCache(g, e.opts.Tau)
		c.Instrument(e.opts.Telemetry)
		return &region{g: g, cache: c}, nil
	})
	if err != nil {
		return err
	}
	e.regions = regions
	for _, r := range regions {
		if nn := r.g.NumNodes(); nn > e.stats.MaxLocal {
			e.stats.MaxLocal = nn
		}
	}
	return nil
}

// assemble gathers the global result from the regions: liveness is the
// coordinator's flat array, and each surviving edge is emitted exactly
// once by the region owning its lower endpoint. The StreamBuilder yields
// the same CSR layout core's finishResult materializes, so the full
// Result — Final graph included — compares byte-identical.
func (e *engine) assemble(deleted []graph.NodeID, tests int) core.Result {
	sb := graph.NewStreamBuilder(e.n-len(deleted), 0)
	for i := 0; i < e.n; i++ {
		if e.alive[i] {
			sb.AddNode(graph.NodeID(i))
		}
	}
	for s, r := range e.regions {
		for ei := 0; ei < r.g.NumEdges(); ei++ {
			ed := r.g.EdgeAt(ei)
			if e.owner[ed.U] != int32(s) {
				continue
			}
			if !e.alive[ed.U] || !e.alive[ed.V] {
				continue
			}
			sb.AddEdge(ed.U, ed.V)
		}
	}
	final := sb.MustBuild()
	kept := final.Nodes()
	var internal []graph.NodeID
	for _, v := range kept {
		if !e.in.Boundary[v] {
			internal = append(internal, v)
		}
	}
	e.stats.Tests = tests
	e.stats.Deletions = len(deleted)
	return core.Result{
		Final:        final,
		Kept:         kept,
		KeptInternal: internal,
		Deleted:      deleted,
		Stats: core.Stats{
			Rounds:    1,
			Tests:     tests,
			Deletions: len(deleted),
		},
	}
}

// publish flushes the shard-level counters into the registry after the
// run — every one of them is a pure function of (topology, seed), so
// they land in the deterministic class regardless of Workers or Shards.
func (e *engine) publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("shard.regions").Add(int64(e.stats.Shards))
	reg.Counter("shard.replicas").Add(int64(e.stats.Replicas))
	reg.Counter("shard.batches").Add(int64(e.stats.Batches))
	reg.Counter("shard.deferred").Add(int64(e.stats.Deferred))
	reg.Counter("shard.tests").Add(int64(e.stats.Tests))
	reg.Counter("shard.deletions").Add(int64(e.stats.Deletions))
	reg.Counter("shard.halo_deltas").Add(int64(e.stats.HaloDeltas))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
