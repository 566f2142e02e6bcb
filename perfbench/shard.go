package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"dcc"
	"dcc/internal/core"
	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/shard"
	"dcc/internal/telemetry"
	"dcc/internal/vpt"
)

// shard-sparse: the ROADMAP shard headline — a Deploy of 10⁵ interior
// nodes at average degree 8 — scheduled by ScheduleDCCSharded at τ = 4.
const (
	shardNodes  = 100_000
	shardDegree = 8
	shardTau    = 4
	shardSetups = 3
	// shardSample kept internal nodes are re-tested for deletability on
	// the final graph (Theorem 6, checked locally).
	shardSample = 200
)

// shardSeeds derives the canonical-priority seed of the schedule and the
// seed of the deletability sample from the run's seed.
func shardSeeds(seed int64) (schedule, sample int64) {
	return runner.DeriveSeed(seed, streamShardSchedule, 0), runner.DeriveSeed(seed, streamShardSample, 0)
}

func shardDeploy(seed int64) (*dcc.Deployment, error) {
	return dcc.Deploy(dcc.DeployOptions{
		Nodes: shardNodes, AvgDegree: shardDegree, Seed: runner.DeriveSeed(seed, streamShardDeploy, 0),
	})
}

// shardCheck verifies one sharded schedule: kept and deleted nodes
// partition the deployment, every boundary node is kept, and a seeded
// sample of kept internal nodes is not deletable on the final graph. It
// returns the checks made and how many failed.
func shardCheck(dep *dcc.Deployment, res core.Result, seed int64) (attempted, failed int) {
	seen := make([]int8, dep.G.NumNodes())
	ok := true
	for _, list := range [][]graph.NodeID{res.Kept, res.Deleted} {
		for _, v := range list {
			i, in := dep.G.IndexOf(v)
			if !in || seen[i] != 0 {
				ok = false
				continue
			}
			seen[i] = 1
		}
	}
	ok = ok && len(res.Kept)+len(res.Deleted) == dep.G.NumNodes()
	for _, b := range dep.BoundaryNodes {
		ok = ok && res.Final.HasNode(b)
	}
	attempted++
	if !ok {
		failed++
	}
	rng := rand.New(rand.NewSource(seed))
	internal := res.KeptInternal
	for i := 0; i < shardSample && len(internal) > 0; i++ {
		v := internal[rng.Intn(len(internal))]
		attempted++
		if vpt.VertexDeletable(res.Final, v, shardTau) {
			failed++
		}
	}
	return attempted, failed
}

func shardMeasure(cfg config) (report, error) {
	dep, setupS, err := repeatSetup(shardSetups, func() (*dcc.Deployment, error) { return shardDeploy(cfg.seed) })
	if err != nil {
		return report{}, err
	}
	schedSeed, sampleSeed := shardSeeds(cfg.seed)
	opts := dcc.ShardOptions{Seed: schedSeed, Workers: cfg.workers}

	// Schedule repeatedly while the next schedule is predicted to end
	// within the budget; at least once.
	var (
		results []core.Result
		errs    []error
		lat     []float64
	)
	runtime.GC()
	start := time.Now()
	for len(lat) == 0 || time.Since(start)+time.Since(start)/time.Duration(len(lat)) <= cfg.seconds {
		t0 := time.Now()
		res, err := dep.ScheduleDCCSharded(shardTau, opts)
		lat = append(lat, sinceMS(t0))
		results = append(results, res)
		errs = append(errs, err)
	}
	wall := time.Since(start)

	// Correctness, outside the timed region: the first schedule passes
	// shardCheck, every later one repeats it exactly.
	attempted, failed := 0, 0
	if errs[0] == nil {
		attempted, failed = shardCheck(dep, results[0], sampleSeed)
	}
	for i := range results {
		attempted++
		if errs[i] != nil || errs[0] != nil || !slices.Equal(results[i].Deleted, results[0].Deleted) {
			failed++
		}
	}

	l, err := summarize(lat, 1)
	if err != nil {
		return report{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return report{}, err
	}
	interior := dep.G.NumNodes() - len(dep.BoundaryNodes)
	fmt.Fprintf(cfg.out, "shard-sparse: %d interior + %d boundary nodes, τ=%d, %d workers, %d schedules in %.2f s\n",
		interior, len(dep.BoundaryNodes), shardTau, cfg.workers, len(lat), wall.Seconds())
	fmt.Fprintf(cfg.out, "  schedule latency %s\n", l)
	fmt.Fprintf(cfg.out, "  setup_s is the median of %d deployments\n", shardSetups)
	return report{
		attempted: attempted,
		failed:    failed,
		values: map[string]float64{
			"setup_s":          setupS,
			"throughput_per_s": float64(interior*len(lat)) / wall.Seconds(),
			"op_p50_ms":        l.P50,
			"op_tail_ms":       l.Tail,
			"peak_rss_mb":      rss,
		},
	}, nil
}

func shardTraced(cfg config) (report, error) {
	dep, err := shardDeploy(cfg.seed)
	if err != nil {
		return report{}, err
	}
	seed, sampleSeed := shardSeeds(cfg.seed)
	// The engine pass calls shard.Schedule with the input
	// ScheduleDCCSharded builds, because only the internal entry point
	// returns shard.Stats.
	boundary := make([]bool, len(dep.Points))
	for _, v := range dep.BoundaryNodes {
		boundary[v] = true
	}
	input := shard.Input{Points: dep.Points, Rc: dep.Rc, Boundary: boundary, G: dep.G}
	var st shard.Stats
	prepare := func(reg *telemetry.Registry) (func() (pass, error), error) {
		return func() (pass, error) {
			res, stats, err := shard.Schedule(input, shard.Options{Tau: shardTau, Seed: seed, Workers: cfg.workers, Telemetry: reg})
			if err != nil {
				return pass{}, err
			}
			st = stats
			return pass{
				label:     "shard.Schedule",
				spanRows:  []string{"shard.partition", "shard.elect", "shard.assemble"},
				elections: []election{{net: dep.Network(), tau: shardTau, seed: seed, want: res.KeptInternal}},
				check: func() (int, int) {
					return shardCheck(dep, res, sampleSeed)
				},
			}, nil
		}, nil
	}
	tr := &tracer{cfg: cfg}
	if err := tr.run(prepare); err != nil {
		return report{}, err
	}
	tr.udgBuild([]udgInput{{pts: dep.Points, rc: dep.Rc}})
	ms := func(name string) float64 { return float64(tr.delta(name).Sum) / 1e6 }
	extra := map[string]float64{
		"shard.batches":        float64(st.Batches),
		"shard.batch_width":    ratio(float64(st.Tests), float64(st.Batches)),
		"shard.deferred_ratio": ratio(float64(st.Deferred), float64(st.Tests+st.Deferred)),
		"shard.replica_ratio":  ratio(float64(st.Replicas), float64(len(dep.Points))),
		"shard.max_local":      float64(st.MaxLocal),
		"shard.halo_deltas":    float64(st.HaloDeltas),
		"shard.partition_ms":   ms("shard.partition"),
		"shard.elect_ms":       ms("shard.elect"),
		"shard.assemble_ms":    ms("shard.assemble"),
	}
	return tr.report("shard-sparse", extra), nil
}
