package stream

import (
	"bytes"
	"reflect"
	"testing"

	"dcc/internal/core"
	"dcc/internal/graph"
	"dcc/internal/telemetry"
)

// rebuildSpans is the number of CSR compiles the engine has timed.
func rebuildSpans(reg *telemetry.Registry) int64 {
	return reg.TimingHistogram("stream.rebuild").Count()
}

// assertCanonicalCover checks the convergence contract directly: the
// engine's cover equals the Canonical batch schedule of its materialized
// topology.
func assertCanonicalCover(t *testing.T, e *Engine, cfg Config) {
	t.Helper()
	net := e.MaterializedNetwork()
	res, err := core.Schedule(net, core.Options{Tau: cfg.Tau, Seed: cfg.Seed, Mode: core.Canonical})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Cover(); !reflect.DeepEqual(got, res.KeptInternal) {
		t.Fatalf("cover %v, canonical schedule of the materialized network keeps %v", got, res.KeptInternal)
	}
}

// TestStaleWindowOneCompile: structural events between two elections mark
// the base stale instead of recompiling it, so N of them cost one compile
// (one stream.rebuild span) while Stats.Rebuilds still counts all N.
func TestStaleWindowOneCompile(t *testing.T) {
	net, pos := testDeploy(t, 60, 6, 6, 1.6)
	in := net.InternalNodes()
	for _, mode := range []struct {
		name   string
		radius float64
		events func(seq uint64) []Event
	}{
		{"geometric-moves", 1.6, func(seq uint64) []Event {
			var evs []Event
			for i, v := range in[:6] {
				p := pos[v]
				evs = append(evs, Event{Seq: seq + uint64(i), Kind: KindMove, Node: v, X: p.X + 0.05, Y: p.Y - 0.05})
			}
			return evs
		}},
		{"explicit-edges-and-joins", 0, func(seq uint64) []Event {
			fresh := graph.NodeID(1000)
			return []Event{
				{Seq: seq, Kind: KindEdgeDown, Node: in[0], Peer: net.G.Neighbors(in[0])[0]},
				{Seq: seq + 1, Kind: KindJoin, Node: fresh, X: 2.5, Y: 2.5},
				{Seq: seq + 2, Kind: KindEdgeUp, Node: fresh, Peer: in[1]},
				{Seq: seq + 3, Kind: KindEdgeUp, Node: fresh, Peer: in[2]},
				{Seq: seq + 4, Kind: KindEdgeDown, Node: fresh, Peer: in[2]},
			}
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			reg := telemetry.NewWithClock(&telemetry.ManualClock{Tick: 1})
			cfg := Config{Tau: 4, Seed: 21, Positions: pos, Radius: mode.radius, Telemetry: reg}
			e, err := New(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Cover()
			if n := rebuildSpans(reg); n != 0 {
				t.Fatalf("genesis compiled %d times; the genesis graph is its own compilation", n)
			}
			evs := mode.events(1)
			for _, ev := range evs {
				if err := e.Step(ev); err != nil {
					t.Fatalf("%s: %v", ev.Kind, err)
				}
			}
			// Observers read the universe slices; they must not compile.
			e.LiveCount()
			e.Stats()
			if n := rebuildSpans(reg); n != 0 {
				t.Fatalf("%d compiles before the election; structural events must only mark the base stale", n)
			}
			e.Cover()
			e.Cover()
			e.MaterializedNetwork()
			if n := rebuildSpans(reg); n != 1 {
				t.Fatalf("%d compiles for one stale window, want 1", n)
			}
			if s := e.Stats(); s.Rebuilds != len(evs) {
				t.Fatalf("Stats.Rebuilds = %d, want one per structural event (%d)", s.Rebuilds, len(evs))
			}
			if got := reg.Counter("stream.rebuilds").Value(); got != int64(len(evs)) {
				t.Fatalf("stream.rebuilds counter %d, want %d", got, len(evs))
			}
			assertCanonicalCover(t, e, cfg)
		})
	}
}

// TestStaleWindowMixedEvents: inside one stale window, liveness flips
// (leave, crash, rejoin — the explicit-mode rejoin and the geometric
// in-place fast path) only touch the universe slices. LiveCount is exact
// before the compile, and the election afterwards sees every flip.
func TestStaleWindowMixedEvents(t *testing.T) {
	net, pos := testDeploy(t, 61, 6, 6, 1.6)
	in := net.InternalNodes()
	for _, radius := range []float64{0, 1.6} {
		reg := telemetry.NewWithClock(&telemetry.ManualClock{Tick: 1})
		cfg := Config{Tau: 4, Seed: 5, Positions: pos, Radius: radius, Telemetry: reg}
		e, err := New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Cover()
		u, w, x := in[3], in[7], in[12]
		opener := Event{Kind: KindMove, Node: x, X: pos[x].X + 0.1, Y: pos[x].Y}
		if radius == 0 {
			// Explicit-mode moves are metadata; an edge-down is structural.
			opener = Event{Kind: KindEdgeDown, Node: x, Peer: net.G.Neighbors(x)[0]}
		}
		live := net.G.NumNodes()
		for i, ev := range []Event{
			opener,
			{Kind: KindLeave, Node: u},
			{Kind: KindCrash, Node: w},
			{Kind: KindJoin, Node: u, X: pos[u].X, Y: pos[u].Y},
			{Kind: KindMove, Node: x, X: pos[x].X, Y: pos[x].Y + 0.1},
		} {
			ev.Seq = uint64(i + 1)
			if err := e.Step(ev); err != nil {
				t.Fatalf("radius %v: %s of %d: %v", radius, ev.Kind, ev.Node, err)
			}
			switch ev.Kind {
			case KindLeave, KindCrash:
				live--
			case KindJoin:
				live++
			}
			if got := e.LiveCount(); got != live {
				t.Fatalf("radius %v: after %s LiveCount = %d, want %d", radius, ev.Kind, got, live)
			}
		}
		if !e.topo.stale {
			t.Fatalf("radius %v: structural events left the base compiled", radius)
		}
		if n := rebuildSpans(reg); n != 0 {
			t.Fatalf("radius %v: %d compiles inside the stale window", radius, n)
		}
		if s := e.Stats(); s.FastRestores != 1 {
			t.Fatalf("radius %v: rejoin in place must keep the edge set: %+v", radius, s)
		}
		assertCanonicalCover(t, e, cfg)
		if got := e.MaterializedNetwork().G.NumNodes(); got != live {
			t.Fatalf("radius %v: materialized %d nodes, LiveCount said %d", radius, got, live)
		}
		if n := rebuildSpans(reg); n != 1 {
			t.Fatalf("radius %v: %d compiles, want 1", radius, n)
		}
	}
}

// TestSnapshotInstallIsStale: installing a snapshot marks the base stale
// without counting a structural event; the WAL tail then replays onto the
// stale universe, and one compile at the next election converges to the
// original engine.
func TestSnapshotInstallIsStale(t *testing.T) {
	net, pos := testDeploy(t, 62, 6, 6, 1.6)
	cfg := Config{Tau: 4, Seed: 8, Positions: pos, Radius: 1.6}
	var wal bytes.Buffer
	cfg.WAL = &wal
	e, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutator(net, cfg, 63)
	var snap bytes.Buffer
	var atSnap Stats
	for i := 0; i < 40; i++ {
		if err := e.Step(m.Next()); err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			if _, err := e.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			atSnap = e.Stats()
		}
	}

	reg := telemetry.NewWithClock(&telemetry.ManualClock{Tick: 1})
	rcfg := cfg
	rcfg.WAL, rcfg.Telemetry = nil, reg
	only, _, err := Recover(net, rcfg, bytes.NewReader(snap.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !only.topo.stale || only.Stats().Rebuilds != 0 {
		t.Fatalf("snapshot install: stale=%v rebuilds=%d, want stale and uncounted", only.topo.stale, only.Stats().Rebuilds)
	}

	reg = telemetry.NewWithClock(&telemetry.ManualClock{Tick: 1})
	rcfg.Telemetry = reg
	rec, info, err := Recover(net, rcfg, bytes.NewReader(snap.Bytes()), bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromSnapshot || info.Replayed == 0 {
		t.Fatalf("recovery did not replay a tail onto the snapshot: %+v", info)
	}
	if got, want := rec.Stats().Rebuilds, e.Stats().Rebuilds-atSnap.Rebuilds; got != want {
		t.Fatalf("replayed tail counted %d structural events, the original %d", got, want)
	}
	if got, want := rec.LiveCount(), e.LiveCount(); got != want {
		t.Fatalf("LiveCount before the compile %d, original %d", got, want)
	}
	if n := rebuildSpans(reg); n != 0 {
		t.Fatalf("%d compiles before the first election", n)
	}
	if rec.StateFingerprint() != e.StateFingerprint() {
		t.Fatal("snapshot+tail recovery diverged from the original state")
	}
	if rec.CoverFingerprint() != e.CoverFingerprint() {
		t.Fatal("snapshot+tail recovery diverged from the original cover")
	}
	if n := rebuildSpans(reg); n != 1 {
		t.Fatalf("%d compiles after the first election, want 1", n)
	}
	assertConverged(t, rec, cfg)
}
