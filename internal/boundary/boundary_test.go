package boundary

import (
	"math/rand"
	"testing"

	"dcc/internal/geom"
	"dcc/internal/graph"
)

func TestBand(t *testing.T) {
	target := geom.Square(10)
	pts := []geom.Point{
		{X: 0.5, Y: 5},  // in band (width 1)
		{X: 5, Y: 5},    // interior
		{X: 9.5, Y: 9},  // in band
		{X: 5, Y: 0.99}, // in band
		{X: 2, Y: 2},    // interior
	}
	got := Band(pts, target, 1)
	want := map[graph.NodeID]bool{0: true, 2: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("Band = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected boundary node %d", v)
		}
	}
}

func TestSet(t *testing.T) {
	s := Set([]graph.NodeID{1, 4})
	if !s[1] || !s[4] || s[2] {
		t.Fatalf("Set = %v", s)
	}
}

func TestHeuristicPrecisionRecall(t *testing.T) {
	// On a dense uniform deployment the k-hop-population heuristic must
	// recover the geometric band with reasonable accuracy.
	rng := rand.New(rand.NewSource(11))
	target := geom.Square(20)
	n := 800
	pts := geom.UniformPoints(rng, n, target)
	rc := geom.RcForAvgDegree(n, target.Area(), 18)
	g := geom.UDG(pts, rc)

	truth := Set(Band(pts, target, rc))
	detected := Set(Heuristic(g, HeuristicOptions{}))

	tp, fp, fn := 0, 0, 0
	for _, v := range g.Nodes() {
		switch {
		case truth[v] && detected[v]:
			tp++
		case !truth[v] && detected[v]:
			fp++
		case truth[v] && !detected[v]:
			fn++
		}
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	if precision < 0.5 {
		t.Fatalf("precision %.2f too low (tp=%d fp=%d fn=%d)", precision, tp, fp, fn)
	}
	if recall < 0.5 {
		t.Fatalf("recall %.2f too low (tp=%d fp=%d fn=%d)", recall, tp, fp, fn)
	}
}

func TestHeuristicEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, 0).MustBuild()
	if got := Heuristic(g, HeuristicOptions{}); got != nil {
		t.Fatalf("Heuristic on empty graph = %v", got)
	}
}

func TestHeuristicDefaults(t *testing.T) {
	o := HeuristicOptions{}.withDefaults()
	if o.Hops != 2 || o.Ratio != 0.75 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := HeuristicOptions{Hops: 3, Ratio: 0.5}.withDefaults()
	if o2.Hops != 3 || o2.Ratio != 0.5 {
		t.Fatalf("explicit options overridden: %+v", o2)
	}
}
