package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"dcc"
	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/stats"
	"dcc/internal/stream"
	"dcc/internal/telemetry"
)

// streamingThroughput is the wall-clock half of the streaming figure (the
// convergence/recovery half is experiments.Streaming, which is
// deterministic and timing-free). It replays one mutation stream twice:
//
//   - stepped: every event is applied and the cover re-elected immediately
//     under a dccsim.stream_step span — the per-event update-latency
//     profile (exact p50/p99 of the sorted per-event span durations);
//   - batched: events are ingested under the engine's coalescing
//     backpressure with a bounded-staleness consumer polling every 50
//     events — the sustained events/sec figure (dccsim.stream_batch span).
//
// A from-scratch canonical schedule of the final topology is timed as the
// baseline an operator would pay per poll without incremental maintenance
// (dccsim.batch_schedule span). All timing flows through the registry's
// clock. The [stream-bench] line is machine-readable;
// scripts/bench.sh turns it into BENCH_stream.json.
func streamingThroughput(w io.Writer, reg *telemetry.Registry, seed int64, nodes, events int) error {
	if reg == nil {
		// -telemetry=false: the bench still needs a clock, so it runs on a
		// private registry instead of silently reporting zeros.
		reg = telemetry.NewWithClock(telemetry.WallClock{})
	}
	dep, err := dcc.Deploy(dcc.DeployOptions{
		Nodes: nodes, AvgDegree: 25, Gamma: math.Sqrt(3), Seed: seed,
	})
	if err != nil {
		return err
	}
	net := dep.Network()
	pos := make(map[graph.NodeID]geom.Point, len(dep.Points))
	for i, p := range dep.Points {
		pos[graph.NodeID(i)] = p
	}
	cfg := stream.Config{Tau: 4, Seed: seed, Radius: dep.Rc, Positions: pos, Telemetry: reg}

	// Pre-generate the stream so synthesis cost stays out of the timings.
	mut := stream.NewMutator(net, cfg, seed+1)
	evs := make([]stream.Event, events)
	for i := range evs {
		evs[i] = mut.Next()
	}

	// Stepped replay: per-event latency including re-election.
	eng, err := stream.New(net, cfg)
	if err != nil {
		return err
	}
	steps := make([]float64, len(evs))
	for i, ev := range evs {
		sp := reg.StartSpan("dccsim.stream_step")
		if err := eng.Step(ev); err != nil {
			return fmt.Errorf("streaming bench: %w", err)
		}
		eng.Cover()
		steps[i] = float64(sp.End())
	}
	stepCDF := stats.NewCDF(steps)
	p50 := time.Duration(stepCDF.Quantile(0.5))
	p99 := time.Duration(stepCDF.Quantile(0.99))

	// Batched replay: sustained ingest with a bounded-staleness consumer.
	eng2, err := stream.New(net, cfg)
	if err != nil {
		return err
	}
	spBatch := reg.StartSpan("dccsim.stream_batch")
	for i, ev := range evs {
		if err := eng2.Ingest(ev); err != nil {
			return fmt.Errorf("streaming bench: %w", err)
		}
		if (i+1)%50 == 0 {
			eng2.Cover()
		}
	}
	eng2.Cover()
	batched := time.Duration(spBatch.End())
	perSec := float64(events) / batched.Seconds()

	// Baseline: one from-scratch canonical schedule of the final topology —
	// the per-poll cost without incremental maintenance.
	final := eng2.MaterializedNetwork()
	spSched := reg.StartSpan("dccsim.batch_schedule")
	if _, err := core.Schedule(final, core.Options{
		Tau: 4, Seed: seed, Mode: core.Canonical, Telemetry: reg,
	}); err != nil {
		return err
	}
	batch := time.Duration(spSched.End())

	st := eng2.Stats()
	fmt.Fprintf(w, "  throughput: %.0f events/sec sustained (batched, coalesced %d of %d)\n",
		perSec, st.Coalesced, events)
	fmt.Fprintf(w, "  per-event latency (stepped, with re-election): p50 %v  p99 %v\n",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	fmt.Fprintf(w, "  from-scratch canonical schedule of the final topology: %v\n",
		batch.Round(time.Microsecond))
	fmt.Fprintf(w, "  [stream-bench] events_per_sec=%.0f p50_event_us=%.0f p99_event_us=%.0f batch_schedule_us=%.0f events=%d nodes=%d\n",
		perSec,
		float64(p50.Nanoseconds())/1e3,
		float64(p99.Nanoseconds())/1e3,
		float64(batch.Nanoseconds())/1e3,
		events, nodes)
	return nil
}
