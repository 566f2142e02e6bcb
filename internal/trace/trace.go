// Package trace synthesises a GreenOrbs-like sensor-network trace and
// extracts connectivity graphs from it, reproducing the pipeline of the
// paper's §VI-B.
//
// The paper uses real packet logs from the GreenOrbs forest deployment
// (~300 motes): every packet carries up to ten records naming the
// neighbours with the best received signal strength (RSSI); records are
// accumulated over two days, directed edges are dropped, and the undirected
// edges whose average RSSI clears a threshold (≈ −85 dBm, retaining ≈80% of
// edges) form the communication graph.
//
// The proprietary trace is unavailable, so this package substitutes a
// synthetic radio model that reproduces the two properties the paper
// credits for its trace results (§VI-B): long-range links (log-normal
// shadowing outliers) and a long, narrow, boundary-dominated deployment
// shape. The packet → best-RSSI-record → accumulate → threshold pipeline is
// then exercised unchanged. See DESIGN.md §5 for the substitution record.
package trace

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
)

// Config parameterises trace synthesis. ApplyDefaults fills zero fields
// with values calibrated to resemble the GreenOrbs deployment.
type Config struct {
	// Seed drives deployment, shadowing and per-packet fading.
	Seed int64
	// InteriorNodes is the number of randomly deployed motes (excluding
	// the boundary ring).
	InteriorNodes int
	// Region is the deployment strip.
	Region geom.Rect
	// RingSpacing is the distance between consecutive boundary-ring motes.
	RingSpacing float64

	// TxPowerDBm, PathLoss0, PathLossExp and ShadowSigmaDB define the
	// log-distance path-loss model:
	//   RSSI(d) = TxPowerDBm − PathLoss0 − 10·PathLossExp·log10(d) + N(0,σ)
	// with a static per-link shadowing term (symmetric) plus per-packet
	// temporal fading of FadingSigmaDB.
	TxPowerDBm    float64
	PathLoss0     float64
	PathLossExp   float64
	ShadowSigmaDB float64
	FadingSigmaDB float64
	// SensitivityDBm is the radio floor below which packets are inaudible.
	SensitivityDBm float64
	// ShadowFullDist is the distance (metres) at which shadowing reaches
	// its full σ; shorter links see proportionally less obstruction
	// variance (σ_eff = σ·min(1, d/ShadowFullDist)).
	ShadowFullDist float64

	// Epochs is the number of collection epochs ("two days" of packets).
	Epochs int
	// RecordsPerPacket bounds the best-RSSI records per packet (10 in
	// GreenOrbs).
	RecordsPerPacket int
}

// ApplyDefaults returns the configuration with zero fields defaulted.
func (c Config) ApplyDefaults() Config {
	if c.InteriorNodes == 0 {
		c.InteriorNodes = 270
	}
	if c.Region == (geom.Rect{}) {
		c.Region = geom.Rect{MaxX: 100, MaxY: 14}
	}
	if c.RingSpacing == 0 {
		c.RingSpacing = 2.5
	}
	if c.TxPowerDBm == 0 {
		c.TxPowerDBm = 0
	}
	if c.PathLoss0 == 0 {
		c.PathLoss0 = 65
	}
	if c.PathLossExp == 0 {
		c.PathLossExp = 3.0
	}
	if c.ShadowSigmaDB == 0 {
		c.ShadowSigmaDB = 6
	}
	if c.FadingSigmaDB == 0 {
		c.FadingSigmaDB = 2
	}
	if c.SensitivityDBm == 0 {
		c.SensitivityDBm = -95
	}
	if c.ShadowFullDist == 0 {
		c.ShadowFullDist = 10
	}
	if c.Epochs == 0 {
		c.Epochs = 288 // two days of 10-minute epochs
	}
	if c.RecordsPerPacket == 0 {
		c.RecordsPerPacket = 10
	}
	return c
}

// Trace holds a synthesised packet log in accumulated form.
type Trace struct {
	cfg Config
	// Pts maps node ID (= index) to position; ring nodes come last.
	Pts []geom.Point
	// Ring lists the boundary-ring node IDs in cycle order.
	Ring []graph.NodeID

	// rssiSum / rssiN accumulate the per-directed-edge record statistics.
	rssiSum map[[2]graph.NodeID]float64
	rssiN   map[[2]graph.NodeID]int

	// logErr records a failure while streaming the packet log.
	logErr error
}

// Generate synthesises a trace: it deploys the motes, simulates the epochs
// and accumulates the best-RSSI records.
func Generate(cfg Config) *Trace {
	return generate(cfg.ApplyDefaults(), nil)
}

// generate is the shared implementation; when logW is non-nil every packet
// is also streamed to it in the textual log format.
func generate(cfg Config, logW io.Writer) *Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))

	interior := geom.UniformPoints(rng, cfg.InteriorNodes, cfg.Region.Shrink(cfg.RingSpacing/2))
	ringPts := geom.RingPoints(cfg.Region, cfg.RingSpacing)
	pts := append(interior, ringPts...)
	ring := make([]graph.NodeID, len(ringPts))
	for i := range ringPts {
		ring[i] = graph.NodeID(cfg.InteriorNodes + i)
	}

	t := &Trace{
		cfg:     cfg,
		Pts:     pts,
		Ring:    ring,
		rssiSum: make(map[[2]graph.NodeID]float64),
		rssiN:   make(map[[2]graph.NodeID]int),
	}

	// Static per-link shadowing, symmetric: shadow[{i,j}] ~ N(0, σ).
	n := len(pts)
	shadow := make(map[[2]int]float64)
	staticRSSI := func(i, j int) (float64, bool) {
		d := geom.Dist(pts[i], pts[j])
		if d < 1 {
			d = 1
		}
		base := cfg.TxPowerDBm - cfg.PathLoss0 - 10*cfg.PathLossExp*math.Log10(d)
		if base < cfg.SensitivityDBm-3*cfg.ShadowSigmaDB {
			return 0, false // hopelessly out of range; skip for speed
		}
		key := [2]int{i, j}
		if i > j {
			key = [2]int{j, i}
		}
		s, ok := shadow[key]
		if !ok {
			sigma := cfg.ShadowSigmaDB * math.Min(1, d/cfg.ShadowFullDist)
			s = rng.NormFloat64() * sigma
			shadow[key] = s
		}
		return base + s, true
	}

	// Precompute each receiver's audible neighbour list once (static part).
	type link struct {
		peer graph.NodeID
		rssi float64
	}
	audible := make([][]link, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r, ok := staticRSSI(i, j)
			if ok && r >= cfg.SensitivityDBm {
				audible[i] = append(audible[i], link{peer: graph.NodeID(j), rssi: r})
			}
		}
	}

	if logW != nil {
		if err := writeHeader(logW, cfg, t); err != nil {
			t.logErr = fmt.Errorf("trace: write log header: %w", err)
			return t
		}
	}

	// Epoch loop: every node emits one packet per epoch carrying its
	// current best-RSSI records (static RSSI + temporal fading).
	scratch := make([]link, 0, 64)
	var line strings.Builder
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := 0; i < n; i++ {
			scratch = scratch[:0]
			for _, l := range audible[i] {
				inst := l.rssi + rng.NormFloat64()*cfg.FadingSigmaDB
				if inst >= cfg.SensitivityDBm {
					scratch = append(scratch, link{peer: l.peer, rssi: inst})
				}
			}
			sort.Slice(scratch, func(a, b int) bool { return scratch[a].rssi > scratch[b].rssi })
			top := scratch
			if len(top) > cfg.RecordsPerPacket {
				top = top[:cfg.RecordsPerPacket]
			}
			for _, l := range top {
				key := [2]graph.NodeID{graph.NodeID(i), l.peer}
				t.rssiSum[key] += l.rssi
				t.rssiN[key]++
			}
			if logW != nil && len(top) > 0 && t.logErr == nil {
				line.Reset()
				fmt.Fprintf(&line, "pkt %d %d", epoch, i)
				for _, l := range top {
					fmt.Fprintf(&line, " %d:%.1f", l.peer, l.rssi)
				}
				line.WriteByte('\n')
				if _, err := io.WriteString(logW, line.String()); err != nil {
					t.logErr = fmt.Errorf("trace: write log: %w", err)
				}
			}
		}
	}
	return t
}

// EdgeRSSI is an undirected edge with its accumulated average RSSI.
type EdgeRSSI struct {
	Edge graph.Edge
	RSSI float64
}

// UndirectedEdges drops one-directional records (as the paper does) and
// returns the undirected edges observed in both directions with their
// average RSSI, sorted by decreasing RSSI.
func (t *Trace) UndirectedEdges() []EdgeRSSI {
	var out []EdgeRSSI
	for key, sum := range t.rssiSum {
		i, j := key[0], key[1]
		if i >= j {
			continue // handled from the (smaller, larger) direction
		}
		rev := [2]graph.NodeID{j, i}
		revSum, ok := t.rssiSum[rev]
		if !ok {
			continue // directed-only: eliminated
		}
		avg := (sum/float64(t.rssiN[key]) + revSum/float64(t.rssiN[rev])) / 2
		out = append(out, EdgeRSSI{Edge: graph.Edge{U: i, V: j}, RSSI: avg})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].RSSI != out[b].RSSI {
			return out[a].RSSI > out[b].RSSI
		}
		if out[a].Edge.U != out[b].Edge.U {
			return out[a].Edge.U < out[b].Edge.U
		}
		return out[a].Edge.V < out[b].Edge.V
	})
	return out
}

// RSSIValues returns the average RSSI of every undirected edge (the data of
// the paper's Figure 5 CDF).
func (t *Trace) RSSIValues() []float64 {
	edges := t.UndirectedEdges()
	out := make([]float64, len(edges))
	for i, e := range edges {
		out[i] = e.RSSI
	}
	return out
}

// ThresholdForFraction returns the RSSI threshold that retains the given
// fraction of undirected edges (the paper picks ≈ −85 dBm to retain 80%).
func (t *Trace) ThresholdForFraction(frac float64) float64 {
	edges := t.UndirectedEdges()
	if len(edges) == 0 {
		return 0
	}
	keep := int(frac * float64(len(edges)))
	if keep <= 0 {
		keep = 1
	}
	if keep > len(edges) {
		keep = len(edges)
	}
	return edges[keep-1].RSSI
}

// ExtractGraph builds the communication graph from edges whose average
// RSSI clears the threshold. All deployed nodes appear (possibly isolated).
func (t *Trace) ExtractGraph(thresholdDBm float64) *graph.Graph {
	b := graph.NewBuilder(len(t.Pts), 0)
	for i := range t.Pts {
		b.AddNode(graph.NodeID(i))
	}
	for _, e := range t.UndirectedEdges() {
		if e.RSSI >= thresholdDBm {
			b.AddEdge(e.Edge.U, e.Edge.V)
		}
	}
	return b.MustBuild()
}

// Network extracts the communication graph at the given threshold and
// packages it as a scheduling input: the boundary ring nodes are the
// boundary set and the ring order is the outer cycle. It errors if the ring
// is not closed in the extracted graph (threshold too aggressive) or if the
// graph is disconnected after dropping isolated motes.
func (t *Trace) Network(thresholdDBm float64) (core.Network, error) {
	g := t.ExtractGraph(thresholdDBm)
	for i := range t.Ring {
		u, v := t.Ring[i], t.Ring[(i+1)%len(t.Ring)]
		if !g.HasEdge(u, v) {
			return core.Network{}, fmt.Errorf(
				"trace: ring edge {%d,%d} below threshold %.1f dBm", u, v, thresholdDBm)
		}
	}
	// Drop motes disconnected from the ring (dead spots), as a deployment
	// would.
	comp := componentOf(g, t.Ring[0])
	g = g.InducedSubgraph(comp)
	net := core.Network{
		G:              g,
		Boundary:       make(map[graph.NodeID]bool, len(t.Ring)),
		BoundaryCycles: [][]graph.NodeID{t.Ring},
	}
	for _, v := range t.Ring {
		net.Boundary[v] = true
	}
	if err := net.Validate(); err != nil {
		return core.Network{}, fmt.Errorf("trace: %w", err)
	}
	return net, nil
}

func componentOf(g *graph.Graph, v graph.NodeID) []graph.NodeID {
	for _, comp := range g.ConnectedComponents() {
		for _, u := range comp {
			if u == v {
				return comp
			}
		}
	}
	return nil
}
