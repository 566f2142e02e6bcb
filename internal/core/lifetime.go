package core

import (
	"fmt"
	"math/rand"
	"sort"

	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/vpt"
)

// streamBiasedShuffle is the DeriveSeed stream of the duty-biased
// scheduler's tie-breaking shuffle (one derivation per rotation epoch; the
// epoch number rides in the run slot). The value spells "bias" in ASCII and
// stays far away from the experiment stream table in
// internal/experiments/streams.go.
const streamBiasedShuffle uint64 = 0x62696173

// ThinEdges applies the edge-deletion operator of the void-preserving
// transformation (Definition 5 covers both vertices and edges): it removes
// edges whose deletion keeps the neighbourhood graph connected and its
// irreducible cycles bounded by τ. Scheduling itself works at vertex
// granularity (a node is on or off), but edge thinning is useful after
// vertex scheduling to reduce the links that must be maintained — e.g. to
// cut idle-listening schedules or interference — without affecting the
// coverage guarantee.
//
// Boundary-to-boundary edges are preserved (they may carry the boundary
// cycles). The reduced graph is returned together with the removed edges.
func ThinEdges(net Network, g *graph.Graph, tau int, seed int64) (*graph.Graph, []graph.Edge, error) {
	if tau < 3 {
		return nil, nil, fmt.Errorf("core: tau %d: %w", tau, ErrTauTooSmall)
	}
	rng := rand.New(rand.NewSource(seed))
	cur := g
	var removed []graph.Edge
	for {
		edges := cur.Edges()
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		progressed := false
		for _, e := range edges {
			if net.Boundary[e.U] && net.Boundary[e.V] {
				continue
			}
			if !cur.HasEdge(e.U, e.V) {
				continue
			}
			if vpt.EdgeDeletable(cur, e.U, e.V, tau) {
				cur = cur.DeleteEdges([]graph.Edge{e})
				removed = append(removed, e)
				progressed = true
			}
		}
		if !progressed {
			return cur, removed, nil
		}
	}
}

// RotationResult describes one sleep-rotation epoch.
type RotationResult struct {
	// Epoch numbers start at 1.
	Epoch int
	// Active is the coverage set on duty during the epoch.
	Active []graph.NodeID
	// Result is the full scheduling outcome for the epoch.
	Result Result
}

// Rotate computes successive coverage sets for sleep rotation, the
// energy-efficiency application motivating partial coverage in the paper
// (§III-B): in each epoch a sparse τ-confine coverage set stays awake
// while the rest sleep; across epochs duty is shifted to the nodes that
// have worked the least so far, extending network lifetime.
//
// Rotation biases the deletion order — nodes with higher accumulated duty
// are offered for deletion first — so the election loop (which deletes
// greedily) preferentially retires tired nodes while the coverage
// guarantee of every epoch is identical to a fresh Schedule run.
// Rotate reads only opts.Tau and opts.Seed; Mode, Workers and Telemetry
// are ignored.
func Rotate(net Network, opts Options, epochs int) ([]RotationResult, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if opts.Tau < 3 {
		return nil, fmt.Errorf("core: tau %d: %w", opts.Tau, ErrTauTooSmall)
	}
	if epochs <= 0 {
		return nil, fmt.Errorf("core: epochs %d <= 0", epochs)
	}
	duty := make(map[graph.NodeID]int, net.G.NumNodes())
	var out []RotationResult
	for epoch := 1; epoch <= epochs; epoch++ {
		res := rotateEpoch(net, opts, duty, epoch)
		for _, v := range res.KeptInternal {
			duty[v]++
		}
		out = append(out, RotationResult{
			Epoch:  epoch,
			Active: append([]graph.NodeID(nil), res.Kept...),
			Result: res,
		})
	}
	return out, nil
}

// rotateEpoch elects one epoch's coverage set: the election loop over a
// FIFO queue of the internal nodes, highest duty first, ties broken by a
// shuffle seeded from (Seed, epoch).
func rotateEpoch(net Network, opts Options, duty map[graph.NodeID]int, epoch int) Result {
	order := shuffled(net.InternalNodes(), runner.DeriveSeed(opts.Seed, streamBiasedShuffle, epoch))
	sort.SliceStable(order, func(i, j int) bool {
		return duty[order[i]] > duty[order[j]]
	})
	return electSchedule(net, opts.Tau, nil, newFIFOQueue(order))
}
