package core

import (
	"reflect"
	"testing"

	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// TestCanonicalPreservesCriterion: the canonical engine is still a maximal
// vertex deletion under the void-preserving transformation — the criterion
// survives and the result is non-redundant.
func TestCanonicalPreservesCriterion(t *testing.T) {
	net := denseNet(t, 41, 7, 7, 1.6)
	for _, tau := range []int{3, 4, 5} {
		res, err := Schedule(net, Options{Tau: tau, Seed: 9, Mode: Canonical})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := VerifyConfine(res.Final, net.BoundaryCycles, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("tau %d: canonical schedule broke the criterion", tau)
		}
		nr, v, err := VerifyNonRedundant(net, res.Final, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !nr {
			t.Fatalf("tau %d: canonical result redundant at node %d", tau, v)
		}
		if res.Stats.Rounds != 1 || res.Stats.Tests == 0 || res.Stats.Deletions != len(res.Deleted) {
			t.Fatalf("tau %d: implausible stats %+v", tau, res.Stats)
		}
	}
}

// TestCanonicalIsPureFunctionOfTopology pins the property the streaming
// convergence contract stands on: the canonical schedule depends only on
// (topology, tau, seed) — identical across repeated runs, and identical on
// a structurally equal graph rebuilt through a different code path.
func TestCanonicalIsPureFunctionOfTopology(t *testing.T) {
	net := denseNet(t, 43, 6, 6, 1.6)
	opts := Options{Tau: 4, Seed: 17, Mode: Canonical}
	a, err := Schedule(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Kept, b.Kept) || !reflect.DeepEqual(a.Deleted, b.Deleted) {
		t.Fatal("canonical schedule differs across identical runs")
	}

	// Rebuild the same topology through the overlay materialization path
	// (a different constructor than the deployment used) and re-schedule.
	rebuilt := net
	rebuilt.G = graph.NewDeleteView(net.G).Materialize()
	c, err := Schedule(rebuilt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Kept, c.Kept) || !reflect.DeepEqual(a.Deleted, c.Deleted) {
		t.Fatal("canonical schedule differs on a structurally equal rebuilt graph")
	}

	// A different seed is allowed (and on dense nets, expected) to elect a
	// different deletion order.
	d, err := Schedule(net, Options{Tau: 4, Seed: 18, Mode: Canonical})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Kept) == 0 {
		t.Fatal("schedule with alternate seed kept nothing")
	}
}

// TestCanonicalElectMatchesSchedule: the exported loop with cache.Deletable
// as the verdict function is exactly the Canonical mode — the identity the
// streaming engine's memoized re-election builds on.
func TestCanonicalElectMatchesSchedule(t *testing.T) {
	net := denseNet(t, 47, 6, 6, 1.6)
	opts := Options{Tau: 3, Seed: 5, Mode: Canonical}
	res, err := Schedule(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := vpt.NewCache(net.G, opts.Tau)
	deleted, tests := CanonicalElect(net, opts.Seed, cache, cache.Deletable)
	if !reflect.DeepEqual(deleted, res.Deleted) {
		t.Fatalf("CanonicalElect deleted %v, Schedule deleted %v", deleted, res.Deleted)
	}
	if tests != res.Stats.Tests {
		t.Fatalf("CanonicalElect tests = %d, Schedule reported %d", tests, res.Stats.Tests)
	}
	if !reflect.DeepEqual(cache.LiveNodes(), res.Kept) {
		t.Fatal("CanonicalElect live set differs from Schedule kept set")
	}
}

// TestCanonicalPriorityTotalOrder: priorities pair with IDs into a total
// order — distinct nodes never compare equal under (priority, ID), and the
// function is stable across calls.
func TestCanonicalPriorityTotalOrder(t *testing.T) {
	seen := make(map[uint64]graph.NodeID)
	for v := graph.NodeID(0); v < 4096; v++ {
		p := CanonicalPriority(7, v)
		if p != CanonicalPriority(7, v) {
			t.Fatalf("priority of %d unstable", v)
		}
		if prev, dup := seen[p]; dup {
			// Equal priorities are tolerated (the ID breaks the tie) but at
			// 4096 draws from a 64-bit space any collision means the
			// derivation is degenerate.
			t.Fatalf("priority collision between nodes %d and %d", prev, v)
		}
		seen[p] = v
	}
}

// TestElectionQueueContract: the exported queue's dedup/stale-skip
// semantics, which the shard coordinator's replay validation builds on —
// Pop and Peek agree, skip stale entries, and Push while pending is a
// no-op so a node is tested at most once per dirtying.
func TestElectionQueueContract(t *testing.T) {
	nodes := []graph.NodeID{0, 1, 2, 3, 4}
	eq := NewElectionQueue(3, nodes)
	if eq.Len() != len(nodes) {
		t.Fatalf("Len = %d, want %d", eq.Len(), len(nodes))
	}

	// Peek must agree with the next Pop without consuming it.
	prio, pv, ok := eq.Peek()
	if !ok || prio != CanonicalPriority(3, pv) {
		t.Fatalf("Peek = (%d, %d, %v), want the canonical head", prio, pv, ok)
	}
	v, ok := eq.Pop()
	if !ok || v != pv {
		t.Fatalf("Pop = (%d, %v) after Peek returned node %d", v, ok, pv)
	}

	// Re-pushing the popped node re-enqueues at its canonical priority;
	// pushing it again while pending must be a no-op (no duplicate test).
	eq.Push(v)
	eq.Push(v)
	order := []graph.NodeID{v}
	seen := map[graph.NodeID]int{v: 1}
	for {
		w, ok := eq.Pop()
		if !ok {
			break
		}
		order = append(order, w)
		seen[w]++
	}
	if len(order) != len(nodes)+1 {
		t.Fatalf("popped %d nodes, want %d (the re-pushed head plus the rest)", len(order), len(nodes)+1)
	}
	if seen[v] != 2 {
		t.Fatalf("re-pushed node %d popped %d times, want exactly 2", v, seen[v])
	}
	if order[0] != v {
		t.Fatalf("re-pushed head popped as %d, want %d first (priority is a pure function of seed and ID)", order[0], v)
	}
	// order[0] and order[1] are both v (the re-pushed head), so strict
	// (priority, ID) ascent starts at the second pop.
	for i := 2; i < len(order); i++ {
		pi, pj := CanonicalPriority(3, order[i-1]), CanonicalPriority(3, order[i])
		if pi > pj || (pi == pj && order[i-1] >= order[i]) {
			t.Fatalf("pop order violates (priority, ID) at %d: %v", i, order)
		}
	}

	// Exhausted queue: both accessors must report ok = false.
	if _, ok := eq.Pop(); ok {
		t.Fatal("Pop on an exhausted queue returned ok")
	}
	if _, _, ok := eq.Peek(); ok {
		t.Fatal("Peek on an exhausted queue returned ok")
	}

	// Stale entries are invisible to Peek: push a node, pop it via a
	// fresh higher-priority path, and confirm Peek discards the stale
	// heap entry rather than returning it.
	eq2 := NewElectionQueue(3, []graph.NodeID{1, 2})
	first, _ := eq2.Pop()
	eq2.Push(first) // heap now holds a live entry for first and one other
	second, _ := eq2.Pop()
	if second != first {
		t.Fatalf("re-pushed head popped as %d, want %d", second, first)
	}
	// The other node's original entry is live; first has no pending flag,
	// so any duplicate entry for it is stale and must be skipped.
	if _, w, ok := eq2.Peek(); !ok || w == first {
		t.Fatalf("Peek = (%d, %v), want the remaining pending node", w, ok)
	}

	t.Run("fifo", func(t *testing.T) {
		// The FIFO order Sequential and Rotate run on: nodes pop in the
		// order given, a re-pushed node pops after every node still
		// pending, and pushing a pending node does nothing.
		eq := newFIFOQueue([]graph.NodeID{4, 0, 3, 1, 2})
		var order []graph.NodeID
		pop := func() {
			t.Helper()
			v, ok := eq.Pop()
			if !ok {
				t.Fatalf("Pop on a non-empty FIFO queue failed after %v", order)
			}
			order = append(order, v)
		}
		pop()
		pop()
		eq.Push(4) // popped: re-enters behind 3, 1, 2
		eq.Push(3) // still pending: no-op
		eq.Push(4) // pending again: no-op
		pop()
		eq.Push(0) // popped: re-enters behind 1, 2, 4
		for eq.Len() > 0 {
			pop()
		}
		want := []graph.NodeID{4, 0, 3, 1, 2, 4, 0}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("FIFO pop order = %v, want %v", order, want)
		}
		if _, ok := eq.Pop(); ok {
			t.Fatal("Pop on an exhausted FIFO queue returned ok")
		}
	})
}
