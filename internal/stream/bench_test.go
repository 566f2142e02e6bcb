package stream_test

import (
	"bytes"
	"testing"

	"dcc"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/stream"
)

// BenchmarkEngineStep measures the stepped path at the stream-churn shape
// (about 2000 interior nodes at degree 10, τ = 4, unit-disk edges, WAL in
// memory): one Step and one Cover per op over a Mutator event stream
// generated before the timer starts. tests/op is the number of
// deletability tests each re-election ran, replayed/op the number it
// answered from the previous election's records.
func BenchmarkEngineStep(b *testing.B) {
	dep, err := dcc.Deploy(dcc.DeployOptions{Nodes: 2000, AvgDegree: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pos := make(map[graph.NodeID]geom.Point, len(dep.Points))
	for i, p := range dep.Points {
		pos[graph.NodeID(i)] = p
	}
	net := dep.Network()
	cfg := stream.Config{Tau: 4, Seed: 2, Radius: dep.Rc, Positions: pos, WAL: new(bytes.Buffer)}
	e, err := stream.New(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.Cover()
	mut := stream.NewMutator(net, cfg, 3)
	events := make([]stream.Event, b.N)
	for i := range events {
		events[i] = mut.Next()
	}
	before := e.Stats()
	b.ResetTimer()
	for _, ev := range events {
		if err := e.Step(ev); err != nil {
			b.Fatal(err)
		}
		e.Cover()
	}
	b.StopTimer()
	s := e.Stats()
	b.ReportMetric(float64(s.Tests-before.Tests)/float64(b.N), "tests/op")
	b.ReportMetric(float64(s.Replayed-before.Replayed)/float64(b.N), "replayed/op")
}
