package stream

import (
	"bytes"
	"slices"
	"testing"

	"dcc/internal/core"
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// replayStep applies ev through Step, re-elects, and checks the replay
// invariants of that election: every node whose k-hop start ball differs
// from the previous election's was dirty, the cover equals the canonical
// schedule of the materialized network, every test is a memo hit or a
// miss, the replayed tests are a subset of the hits, and some test was
// replayed. The engine must have elected on its current topology before
// the call. It returns the stats after the election.
func replayStep(t *testing.T, e *Engine, cfg Config, ev Event) Stats {
	t.Helper()
	before := e.Stats()
	start := graph.NewDeleteView(e.MaterializedNetwork().G)
	if err := e.Step(ev); err != nil {
		t.Fatalf("%s of %d: %v", ev.Kind, ev.Node, err)
	}
	assertCanonicalCover(t, e, cfg)
	// The fingerprint pins a start ball, so a node whose fingerprint moved
	// must not have been offered the previous election's records.
	now := e.MaterializedNetwork().G
	nowView, sa, sb := graph.NewDeleteView(now), graph.NewScratch(nil), graph.NewScratch(nil)
	for i := 0; i < now.NumNodes(); i++ {
		v := now.NodeAt(i)
		if start.NeighborhoodFingerprint(v, e.k, sa) != nowView.NeighborhoodFingerprint(v, e.k, sb) && e.replay.look[i] >= 0 {
			t.Fatalf("%s of %d: node %d's start ball changed, but the election treated it as clean", ev.Kind, ev.Node, v)
		}
	}
	s := e.Stats()
	if s.Elections != before.Elections+1 {
		t.Fatalf("%s of %d: %d elections, want one", ev.Kind, ev.Node, s.Elections-before.Elections)
	}
	if s.MemoHits+s.MemoMisses != s.Tests {
		t.Fatalf("%s of %d: MemoHits %d + MemoMisses %d != Tests %d", ev.Kind, ev.Node, s.MemoHits, s.MemoMisses, s.Tests)
	}
	if s.Replayed > s.MemoHits {
		t.Fatalf("%s of %d: Replayed %d > MemoHits %d", ev.Kind, ev.Node, s.Replayed, s.MemoHits)
	}
	if s.Replayed == before.Replayed {
		t.Fatalf("%s of %d: the election replayed no test (%d tests)", ev.Kind, ev.Node, s.Tests-before.Tests)
	}
	return s
}

// TestElectionReplay drives every event kind through the stepped path —
// new join, in-place fast revival, structural revival, leave, crash and
// geometric move on a unit-disk engine; edge-up, edge-down and revival on
// an explicit one — then recovers from a snapshot plus the WAL tail, and
// checks after every election that every node whose start ball changed
// was dirty and that replaying the previous election's verdicts kept the
// cover canonical. A long run of unelected events must
// leave the touched record bounded. Under -tags dccdebug every replayed
// verdict is also re-derived from scratch.
func TestElectionReplay(t *testing.T) {
	net, pos := testDeploy(t, 70, 10, 10, 1.6)
	in := net.InternalNodes()
	a, b, c := in[11], in[30], in[52]

	t.Run("geometric", func(t *testing.T) {
		var wal bytes.Buffer
		cfg := Config{Tau: 4, Seed: 3, Positions: pos, Radius: 1.6, WAL: &wal}
		e, err := New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s := e.Stats(); s.Replayed != 0 {
			t.Fatalf("replayed %d tests before any election", s.Replayed)
		}
		e.Cover()
		if s := e.Stats(); s.Replayed != 0 {
			t.Fatalf("genesis election replayed %d tests with nothing to replay", s.Replayed)
		}
		var seq uint64
		step := func(ev Event) Stats {
			seq++
			ev.Seq = seq
			return replayStep(t, e, cfg, ev)
		}
		step(Event{Kind: KindLeave, Node: a})
		step(Event{Kind: KindCrash, Node: b})
		s := step(Event{Kind: KindJoin, Node: a, X: pos[a].X, Y: pos[a].Y})
		if s.FastRestores != 1 || s.Rebuilds != 0 {
			t.Fatalf("revival in place was not a fast restore: %+v", s)
		}
		s = step(Event{Kind: KindJoin, Node: b, X: pos[b].X + 0.4, Y: pos[b].Y - 0.3})
		if s.FastRestores != 1 || s.Rebuilds != 1 {
			t.Fatalf("revival elsewhere was not structural: %+v", s)
		}
		step(Event{Kind: KindMove, Node: c, X: pos[c].X - 0.5, Y: pos[c].Y + 0.2})
		var snap bytes.Buffer
		if _, err := e.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		s = step(Event{Kind: KindJoin, Node: 1000, X: 5.2, Y: 5.3})
		if s.Rebuilds != 3 {
			t.Fatalf("new join was not structural: %+v", s)
		}
		step(Event{Kind: KindMove, Node: 1000, X: 4.6, Y: 5.1})

		rcfg := cfg
		rcfg.WAL = nil
		rec, info, err := Recover(net, rcfg, bytes.NewReader(snap.Bytes()), bytes.NewReader(wal.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !info.FromSnapshot || info.Replayed != 2 {
			t.Fatalf("recovery did not replay the two-event tail onto the snapshot: %+v", info)
		}
		assertCanonicalCover(t, rec, rcfg)
		if got, want := rec.Cover(), e.Cover(); !slices.Equal(got, want) {
			t.Fatalf("recovered cover %v, original %v", got, want)
		}
		if s := rec.Stats(); s.Replayed != 0 || s.MemoHits+s.MemoMisses != s.Tests {
			t.Fatalf("recovered engine's first election: %+v, want no replay and hits+misses == tests", s)
		}
		seq++
		replayStep(t, rec, rcfg, Event{Seq: seq, Kind: KindLeave, Node: c})
	})

	t.Run("bounded", func(t *testing.T) {
		// Events applied with no election in between grow the touched
		// record only up to one entry per universe node; past that every
		// node is dirty, and the next election replays again.
		cfg := Config{Tau: 4, Seed: 5, Positions: pos, Radius: 1.6}
		e, err := New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Cover()
		m := NewMutator(net, cfg, 71)
		var ev Event
		for i := 0; i < 60; i++ {
			ev = m.Next()
			if err := e.Step(ev); err != nil {
				t.Fatal(err)
			}
			if len(e.topo.touched) > len(e.topo.ids) {
				t.Fatalf("after %d events: %d touched entries over %d universe nodes", i+1, len(e.topo.touched), len(e.topo.ids))
			}
		}
		if !e.topo.allTouched {
			t.Fatal("60 unelected events left the touched record a list")
		}
		before := e.Stats()
		assertCanonicalCover(t, e, cfg)
		if s := e.Stats(); s.Replayed != before.Replayed {
			t.Fatalf("an all-dirty election replayed %d tests", s.Replayed-before.Replayed)
		}
		ev = m.Next()
		replayStep(t, e, cfg, ev)
	})

	t.Run("explicit", func(t *testing.T) {
		cfg := Config{Tau: 4, Seed: 4, Positions: pos}
		e, err := New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Cover()
		// first is the internal node the canonical loop tests first, so
		// its test has digest 0 in every election. An edge to a distant
		// node leaves Γ²(first) disconnected: first's verdict flips at the
		// same digest, and only the touched record keeps the replay from
		// serving the stale one.
		first := in[0]
		for _, v := range in {
			if core.CanonicalPriority(cfg.Seed, v) < core.CanonicalPriority(cfg.Seed, first) {
				first = v
			}
		}
		far := in[0]
		for _, v := range in {
			if net.G.ShortestPathLen(first, v) > net.G.ShortestPathLen(first, far) {
				far = v
			}
		}
		if !vpt.VertexDeletable(net.G, first, cfg.Tau) || net.G.ShortestPathLen(first, far) < 5 {
			t.Fatalf("test setup: node %d must start deletable and %d lie ≥ 5 hops away", first, far)
		}
		peer := net.G.Neighbors(a)[0]
		var seq uint64
		for _, ev := range []Event{
			{Kind: KindEdgeUp, Node: first, Peer: far},
			{Kind: KindEdgeDown, Node: a, Peer: peer},
			{Kind: KindLeave, Node: b},
			{Kind: KindJoin, Node: b, X: pos[b].X, Y: pos[b].Y},
			{Kind: KindEdgeUp, Node: a, Peer: peer},
			{Kind: KindEdgeDown, Node: first, Peer: far},
		} {
			seq++
			ev.Seq = seq
			replayStep(t, e, cfg, ev)
			if seq == 1 && vpt.VertexDeletable(e.MaterializedNetwork().G, first, cfg.Tau) {
				t.Fatalf("edge %d-%d left node %d deletable", first, far, first)
			}
		}
		// The last edge-down undid every structural change: the cover is
		// the genesis schedule again.
		res, err := core.Schedule(net, core.Options{Tau: cfg.Tau, Seed: cfg.Seed, Mode: core.Canonical})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Cover(); !slices.Equal(got, res.KeptInternal) {
			t.Fatalf("cover %v after undoing every event, genesis schedule keeps %v", got, res.KeptInternal)
		}
	})
}
