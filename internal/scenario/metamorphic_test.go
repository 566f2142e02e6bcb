package scenario

import (
	"math"
	"testing"

	"dcc"
	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
)

// relabel maps every node of a network through φ(v) = 7v + 3 — sparse, so
// hidden assumptions of contiguous IDs surface, and monotone, so the
// scheduler's sorted internal-node queue keeps its order and the whole
// deletion trace must map node-for-node through φ.
func relabel(net core.Network) (core.Network, func(graph.NodeID) graph.NodeID) {
	phi := func(v graph.NodeID) graph.NodeID { return 7*v + 3 }
	b := graph.NewBuilder(0, 0)
	for _, v := range net.G.Nodes() {
		b.AddNode(phi(v))
	}
	for _, e := range net.G.Edges() {
		b.AddEdge(phi(e.U), phi(e.V))
	}
	boundary := make(map[graph.NodeID]bool, len(net.Boundary))
	for _, v := range net.G.Nodes() {
		if net.Boundary[v] {
			boundary[phi(v)] = true
		}
	}
	cyc := make([][]graph.NodeID, len(net.BoundaryCycles))
	for i, c := range net.BoundaryCycles {
		cyc[i] = make([]graph.NodeID, len(c))
		for j, v := range c {
			cyc[i][j] = phi(v)
		}
	}
	return core.Network{G: b.MustBuild(), Boundary: boundary, BoundaryCycles: cyc}, phi
}

// TestRelabelInvariance holds the graph pipeline to node-ID independence:
// under a monotone sparse relabeling, the achievable τ is unchanged and the
// scheduled set is exactly the φ-image of the original one.
func TestRelabelInvariance(t *testing.T) {
	for _, sc := range mustCatalogue(t) {
		sc := sc
		if !sc.Oracle.Connected {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			net := sc.Dep.Network()
			relab, phi := relabel(net)

			repairedA, _, err := core.RepairBoundaries(net)
			if err != nil {
				t.Fatal(err)
			}
			repairedB, _, err := core.RepairBoundaries(relab)
			if err != nil {
				t.Fatalf("relabeled: %v", err)
			}
			tauA, err := core.AchievableTau(repairedA, 8)
			if err != nil {
				t.Fatal(err)
			}
			tauB, err := core.AchievableTau(repairedB, 8)
			if err != nil {
				t.Fatalf("relabeled: %v", err)
			}
			if tauA != tauB {
				t.Fatalf("achievable τ changed under relabeling: %d vs %d", tauA, tauB)
			}

			resA, err := core.Schedule(repairedA, core.Options{Tau: tauA, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			resB, err := core.Schedule(repairedB, core.Options{Tau: tauA, Seed: 7})
			if err != nil {
				t.Fatalf("relabeled: %v", err)
			}
			if len(resA.KeptInternal) != len(resB.KeptInternal) {
				t.Fatalf("schedule size changed under relabeling: %d vs %d",
					len(resA.KeptInternal), len(resB.KeptInternal))
			}
			// Repair apexes get fresh IDs outside φ's range; compare only the
			// real nodes, which must correspond exactly.
			want := make(map[graph.NodeID]bool)
			for _, v := range resA.KeptInternal {
				if int(v) < len(sc.Dep.Points) {
					want[phi(v)] = true
				}
			}
			for _, v := range resB.KeptInternal {
				if int(v) < len(sc.Dep.Points)*7+3 && (v-3)%7 == 0 {
					if !want[v] {
						t.Fatalf("relabeled schedule kept %d, not the φ-image of the original set", v)
					}
					delete(want, v)
				}
			}
			if len(want) != 0 {
				t.Fatalf("%d original kept nodes missing from the relabeled schedule", len(want))
			}
		})
	}
}

// transform applies a point map to a scenario, scaling radii and obstacle
// sizes by k and mapping the target rectangle through the same motion, and
// returns the rebuilt scenario (same node order, fresh UDG).
func transform(sc *Scenario, f func(geom.Point) geom.Point, mapRect func(geom.Rect) geom.Rect, k float64) *Scenario {
	pts := make([]geom.Point, len(sc.Dep.Points))
	for i, p := range sc.Dep.Points {
		pts[i] = f(p)
	}
	obstacles := make([]geom.Circle, len(sc.Dep.Obstacles))
	for i, ob := range sc.Dep.Obstacles {
		obstacles[i] = geom.Circle{Center: f(ob.Center), R: k * ob.R}
	}
	var radii []float64
	if sc.Radii != nil {
		radii = make([]float64, len(sc.Radii))
		for i, r := range sc.Radii {
			radii[i] = k * r
		}
	}
	dep := &dcc.Deployment{
		Points:        pts,
		G:             geom.UDG(pts, k*sc.Dep.Rc),
		Target:        mapRect(sc.Dep.Target),
		Rc:            k * sc.Dep.Rc,
		Rs:            k * sc.Dep.Rs,
		BoundaryNodes: sc.Dep.BoundaryNodes,
		OuterCycle:    sc.Dep.OuterCycle,
		InnerCycles:   sc.Dep.InnerCycles,
		Obstacles:     obstacles,
	}
	out := *sc
	out.Dep = dep
	out.Spacing = k * sc.Spacing
	out.Radii = radii
	return &out
}

func sameGraph(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// TestRigidMotionInvariance holds the geometric pipeline to coordinate-frame
// independence: translating, rotating by 90°, or uniformly scaling a
// deployment (with radii scaled along) must leave the connectivity graph,
// the scheduled set, the coverage verdict, and the hole count unchanged.
// The motions are FP-benign (exact negation/swap/power-of-two scale; a
// translation offset with a short binary expansion), so any drift they
// surface is a genuine coordinate dependence, not rounding.
func TestRigidMotionInvariance(t *testing.T) {
	motions := []struct {
		name    string
		f       func(geom.Point) geom.Point
		mapRect func(geom.Rect) geom.Rect
		k       float64
	}{
		{
			"translate",
			func(p geom.Point) geom.Point { return geom.Point{X: p.X + 37.25, Y: p.Y - 18.5} },
			func(r geom.Rect) geom.Rect {
				return geom.Rect{MinX: r.MinX + 37.25, MinY: r.MinY - 18.5, MaxX: r.MaxX + 37.25, MaxY: r.MaxY - 18.5}
			},
			1,
		},
		{
			"rotate90",
			func(p geom.Point) geom.Point { return geom.Point{X: -p.Y, Y: p.X} },
			func(r geom.Rect) geom.Rect {
				return geom.Rect{MinX: -r.MaxY, MinY: r.MinX, MaxX: -r.MinY, MaxY: r.MaxX}
			},
			1,
		},
		{
			"scale2x",
			func(p geom.Point) geom.Point { return geom.Point{X: 2 * p.X, Y: 2 * p.Y} },
			func(r geom.Rect) geom.Rect {
				return geom.Rect{MinX: 2 * r.MinX, MinY: 2 * r.MinY, MaxX: 2 * r.MaxX, MaxY: 2 * r.MaxY}
			},
			2,
		},
	}
	for _, sc := range mustCatalogue(t) {
		sc := sc
		if !sc.Oracle.Connected {
			continue
		}
		repBase := sc.Coverage(nil)
		resBase, err := sc.Dep.ScheduleDCC(sc.Oracle.AchievableTau, dcc.ScheduleOptions{Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, m := range motions {
			m := m
			t.Run(sc.Name+"/"+m.name, func(t *testing.T) {
				moved := transform(sc, m.f, m.mapRect, m.k)
				if !sameGraph(sc.Dep.G, moved.Dep.G) {
					t.Fatal("connectivity graph changed under a rigid motion")
				}
				rep := moved.Coverage(nil)
				if rep.FullyCovered() != repBase.FullyCovered() {
					t.Errorf("coverage verdict changed: %v vs %v", rep.FullyCovered(), repBase.FullyCovered())
				}
				if len(rep.Holes) != len(repBase.Holes) {
					t.Errorf("hole count changed: %d vs %d", len(rep.Holes), len(repBase.Holes))
				}
				if m.k != 1 {
					// Hole diameters must scale with the motion.
					if len(rep.Holes) > 0 && math.Abs(rep.MaxHoleDiameter()-m.k*repBase.MaxHoleDiameter()) > 1e-6*m.k {
						t.Errorf("max hole diameter %.6f does not scale to %.6f", rep.MaxHoleDiameter(), m.k*repBase.MaxHoleDiameter())
					}
				}
				res, err := moved.Dep.ScheduleDCC(sc.Oracle.AchievableTau, dcc.ScheduleOptions{Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.KeptInternal) != len(resBase.KeptInternal) {
					t.Fatalf("schedule size changed: %d vs %d", len(res.KeptInternal), len(resBase.KeptInternal))
				}
				kept := make(map[graph.NodeID]bool, len(resBase.KeptInternal))
				for _, v := range resBase.KeptInternal {
					kept[v] = true
				}
				for _, v := range res.KeptInternal {
					if !kept[v] {
						t.Fatalf("scheduled set changed under a rigid motion (node %d)", v)
					}
				}
			})
		}
	}
}
