package core

import (
	"container/heap"
	"math/rand"

	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/telemetry"
	"dcc/internal/vpt"
)

// The election queue and the one election loop (elect) that Sequential,
// Canonical and Rotate's duty order share; they differ only in the queue's
// priority function. Sequential and Rotate derive their orders from a live
// rand.Rand, so two runs agree only if they replay the same deletion
// history — which a streaming engine that crashes, recovers, and batches
// events cannot promise. Canonical's priorities are a pure function of
// (seed, node ID), making the kept set a pure function of the topology.
// That is the property the streaming layer's convergence contract stands
// on (DESIGN.md §13): any two paths to the same materialized topology —
// event replay, WAL recovery, from-scratch batch — elect byte-identical
// covers.

// streamCanonicalPriority is the DeriveSeed stream of the canonical
// engine's per-node deletion priorities (the node ID rides in the run
// slot). The value spells "cano" in ASCII and stays far above the
// experiment stream table in internal/experiments/streams.go, next to
// streamBiasedShuffle ("bias"); TestStreamRegistry pins the separation.
const streamCanonicalPriority uint64 = 0x63616e6f

// CanonicalPriority returns the deletion priority of v under base seed
// seed: lower priorities are tested (and therefore deleted) first, ties
// cannot occur across distinct nodes of one run because the pair (priority,
// ID) is totally ordered. Exported so the streaming engine's memoized
// re-election (internal/stream) provably replays the same order.
func CanonicalPriority(seed int64, v graph.NodeID) uint64 {
	return uint64(runner.DeriveSeed(seed, streamCanonicalPriority, int(v)))
}

// prioItem is one pending deletability test of the canonical engine.
type prioItem struct {
	prio uint64
	v    graph.NodeID
}

// prioQueue is a min-heap on (priority, ID).
type prioQueue []prioItem

func (q prioQueue) Len() int { return len(q) }
func (q prioQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].v < q[j].v
}
func (q prioQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *prioQueue) Push(x any)   { *q = append(*q, x.(prioItem)) }
func (q *prioQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ElectionQueue is the election's work queue: a min-heap over
// (priority, ID) with pending-set deduplication. Popping a node marks it
// not-pending; pushing a node that is already pending is a no-op, so a
// node is tested at most once per dirtying no matter how many commits
// touched its neighbourhood. NewElectionQueue orders by CanonicalPriority;
// exported so the spatial shard engine (internal/shard) provably consumes
// nodes in the exact order the unsharded CanonicalElect does — the queue
// is the shared definition of "canonical order", not a convention.
type ElectionQueue struct {
	prio    func(graph.NodeID) uint64
	q       prioQueue
	pending map[graph.NodeID]bool
}

// NewElectionQueue returns a canonical-order queue seeded with the given
// nodes, all pending.
func NewElectionQueue(seed int64, nodes []graph.NodeID) *ElectionQueue {
	return newElectionQueue(nodes, func(v graph.NodeID) uint64 { return CanonicalPriority(seed, v) })
}

// newFIFOQueue returns a queue that pops nodes in the given order. FIFO is
// a priority order: a node's priority is its enqueue count, so a re-push
// takes the next count and lands behind every pending node.
func newFIFOQueue(order []graph.NodeID) *ElectionQueue {
	var count uint64
	return newElectionQueue(order, func(graph.NodeID) uint64 {
		count++
		return count
	})
}

func newElectionQueue(nodes []graph.NodeID, prio func(graph.NodeID) uint64) *ElectionQueue {
	eq := &ElectionQueue{
		prio:    prio,
		q:       make(prioQueue, 0, len(nodes)),
		pending: make(map[graph.NodeID]bool, len(nodes)),
	}
	for _, v := range nodes {
		eq.q = append(eq.q, prioItem{prio: prio(v), v: v})
		eq.pending[v] = true
	}
	heap.Init(&eq.q)
	return eq
}

// Len returns the number of heap entries (stale entries included); zero
// means the election has reached its fixpoint.
func (eq *ElectionQueue) Len() int { return eq.q.Len() }

// Pop returns the pending node with the smallest (priority, ID), marking
// it not-pending, with ok = false when the queue is exhausted. Stale
// entries (popped nodes re-tested since their last dirtying) are skipped.
func (eq *ElectionQueue) Pop() (v graph.NodeID, ok bool) {
	for eq.q.Len() > 0 {
		it := heap.Pop(&eq.q).(prioItem)
		if !eq.pending[it.v] {
			continue // stale entry: already tested since it was last dirtied
		}
		eq.pending[it.v] = false
		return it.v, true
	}
	return 0, false
}

// Peek returns the smallest pending (priority, node) without consuming
// it, with ok = false when the queue is exhausted. Stale heap entries are
// discarded on the way. The shard coordinator uses Peek to validate batch
// replay: a speculatively popped node may only be consumed while no
// pending node orders before it — otherwise the sequential engine would
// have popped the pending node first, and the batch member is deferred.
func (eq *ElectionQueue) Peek() (prio uint64, v graph.NodeID, ok bool) {
	for eq.q.Len() > 0 {
		it := eq.q[0]
		if !eq.pending[it.v] {
			heap.Pop(&eq.q)
			continue
		}
		return it.prio, it.v, true
	}
	return 0, 0, false
}

// Push marks v pending and enqueues it at its priority; a no-op if v is
// already pending. Used both to re-enqueue dirtied survivors and to defer
// a popped node whose test must wait (the shard coordinator's conflict
// push-back) — the canonical priority is a pure function of (seed, ID), so
// a deferred node re-enters at exactly its canonical position.
func (eq *ElectionQueue) Push(v graph.NodeID) {
	if eq.pending[v] {
		return
	}
	eq.pending[v] = true
	heap.Push(&eq.q, prioItem{prio: eq.prio(v), v: v})
}

// CanonicalElect runs the election loop to fixpoint over cache in
// increasing (CanonicalPriority, ID) order. test supplies the deletability
// verdict of a node on the current residual — cache.Deletable for the
// batch engine, the replayed and fingerprint-memoized variant for the
// streaming engine — and MUST equal VertexDeletable on the materialized
// live graph, or the fixpoint diverges from the canonical one. Returns the deleted nodes in
// deletion order and the number of tests.
//
// The loop body is shared by both engines on purpose: the convergence
// contract ("streaming state equals the batch schedule of the materialized
// topology") then reduces to the equality of the two verdict functions,
// which the dccdebug cross-checks and the differential suite verify. The
// shard engine shares the ElectionQueue instead and batches independent
// tests (pairwise more than ⌈τ/2⌉ hops apart), which DESIGN.md §15 proves
// commutes with this sequential loop.
func CanonicalElect(net Network, seed int64, cache *vpt.Cache, test func(v graph.NodeID) bool) (deleted []graph.NodeID, tests int) {
	return elect(net, NewElectionQueue(seed, net.InternalNodes()), cache, test)
}

// elect is the election loop: pop, skip the dead, test, commit a deletable
// node and re-push the internal survivors Commit dirtied, until empty.
func elect(net Network, eq *ElectionQueue, cache *vpt.Cache, test func(v graph.NodeID) bool) (deleted []graph.NodeID, tests int) {
	for {
		v, ok := eq.Pop()
		if !ok {
			return deleted, tests
		}
		if !cache.Alive(v) {
			continue
		}
		tests++
		if !test(v) {
			continue
		}
		deleted = append(deleted, v)
		for _, w := range cache.Commit([]graph.NodeID{v}) {
			if !net.Boundary[w] {
				eq.Push(w)
			}
		}
	}
}

// electSchedule runs elect over a fresh cache of net.G at tau with the
// given queue and packages the outcome as a one-round Result.
func electSchedule(net Network, tau int, reg *telemetry.Registry, eq *ElectionQueue) Result {
	cache := vpt.NewCache(net.G, tau)
	cache.Instrument(reg)
	deleted, tests := elect(net, eq, cache, cache.Deletable)
	return finishResult(net, cache.LiveGraph(), deleted, Stats{Rounds: 1, Tests: tests})
}

// shuffled shuffles nodes in place with a rand.Rand seeded by seed.
func shuffled(nodes []graph.NodeID, seed int64) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	return nodes
}
