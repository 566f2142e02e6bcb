package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dcc"
	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/stream"
	"dcc/internal/telemetry"
)

// stream-churn: a streaming engine over a deployment of about 2000 nodes
// at degree 10 and τ = 4, its WAL in memory without fsync, fed a
// pre-generated Mutator event stream two ways — stepped (Step then Cover
// per event) and batched (Ingest, with a Cover poll every 50 events) —
// and finally checked against a from-scratch canonical schedule of the
// materialized topology.
//
// The amount of work is fixed by --seconds, not by the clock: a run makes
// one slice per churnSliceTime of budget. The verdict memo grows with the
// events applied, so a clock-bounded run would make peak memory depend on
// the machine's speed.
const (
	churnNodes  = 2000
	churnDegree = 10
	churnTau    = 4
	churnPoll   = 50
	churnSetups = 5
	// A slice is churnSliceSteps stepped events followed by one batched
	// poll; the two modes alternate so that both see the same machine.
	// On a 2-vCPU VM a slice takes about churnSliceTime.
	churnSliceSteps = 24
	churnSliceTime  = 2 * time.Second
	// churnTailQ is the tail quantile reported: 15 slices give 360
	// stepped events, 18 of them beyond p95.
	churnTailQ = 0.95
	// The traced run replays fixed prefixes of the stream (the batched
	// one a whole number of polls).
	churnTraceStepped = 200
	churnTraceBatched = 1000
)

// churnInput is the workload's generated input.
type churnInput struct {
	net    core.Network
	cfg    stream.Config
	events []stream.Event
}

func churnGenerate(seed int64, events int) (*churnInput, error) {
	dep, err := dcc.Deploy(dcc.DeployOptions{
		Nodes: churnNodes, AvgDegree: churnDegree, Seed: runner.DeriveSeed(seed, streamChurnDeploy, 0),
	})
	if err != nil {
		return nil, err
	}
	pos := make(map[graph.NodeID]geom.Point, len(dep.Points))
	for i, p := range dep.Points {
		pos[graph.NodeID(i)] = p
	}
	in := &churnInput{
		net: dep.Network(),
		cfg: stream.Config{
			Tau:       churnTau,
			Seed:      runner.DeriveSeed(seed, streamChurnElect, 0),
			Radius:    dep.Rc,
			Positions: pos,
		},
		events: make([]stream.Event, events),
	}
	mut := stream.NewMutator(in.net, in.cfg, runner.DeriveSeed(seed, streamChurnEvents, 0))
	for i := range in.events {
		in.events[i] = mut.Next()
	}
	return in, nil
}

// genesis starts an engine with an in-memory WAL and runs its genesis
// election.
func (in *churnInput) genesis(reg *telemetry.Registry) (*stream.Engine, error) {
	c := in.cfg
	c.WAL = new(bytes.Buffer)
	c.Telemetry = reg
	eng, err := stream.New(in.net, c)
	if err != nil {
		return nil, err
	}
	eng.Cover()
	return eng, nil
}

// churnSetup is the workload's set-up: deployment, event generation and
// two engines (stepped and batched) through their genesis elections.
type churnSetup struct {
	in               *churnInput
	stepped, batched *stream.Engine
}

func newChurnSetup(seed int64, events int) (churnSetup, error) {
	in, err := churnGenerate(seed, events)
	if err != nil {
		return churnSetup{}, err
	}
	s := churnSetup{in: in}
	if s.stepped, err = in.genesis(nil); err != nil {
		return churnSetup{}, err
	}
	if s.batched, err = in.genesis(nil); err != nil {
		return churnSetup{}, err
	}
	return s, nil
}

// stepOne applies ev through Step then Cover and returns the latency in
// milliseconds.
func stepOne(eng *stream.Engine, ev stream.Event) (float64, error) {
	t0 := time.Now()
	err := eng.Step(ev)
	eng.Cover()
	return sinceMS(t0), err
}

// ingestPoll feeds one poll's events through Ingest, then polls Cover,
// and returns the number of events Ingest refused.
func ingestPoll(eng *stream.Engine, evs []stream.Event) (failed int) {
	for _, ev := range evs {
		if eng.Ingest(ev) != nil {
			failed++
		}
	}
	eng.Cover()
	return failed
}

func churnMeasure(cfg config) (report, error) {
	nSlices := max(1, int(cfg.seconds/churnSliceTime))
	s, setupS, err := repeatSetup(churnSetups, func() (churnSetup, error) {
		return newChurnSetup(cfg.seed, nSlices*max(churnSliceSteps, churnPoll))
	})
	if err != nil {
		return report{}, err
	}
	events := s.in.events

	// Each engine walks the event list on its own. Batched throughput is
	// the median over the slices' polls, so a stall of the machine during
	// a few slices does not move it.
	var (
		lat, rates               []float64
		stepFailed, ingestFailed int
	)
	runtime.GC()
	for i := 0; i < nSlices; i++ {
		for _, ev := range events[i*churnSliceSteps : (i+1)*churnSliceSteps] {
			ms, err := stepOne(s.stepped, ev)
			lat = append(lat, ms)
			if err != nil {
				stepFailed++
			}
		}
		t0 := time.Now()
		ingestFailed += ingestPoll(s.batched, events[i*churnPoll:(i+1)*churnPoll])
		rates = append(rates, churnPoll/time.Since(t0).Seconds())
	}
	stepped, fed := nSlices*churnSliceSteps, nSlices*churnPoll

	// Correctness, outside the timed regions: each engine's cover equals
	// the canonical schedule of its materialized topology (the convergence
	// contract), and no event was rejected. Step reports every rejection
	// it causes; batched rejections can also surface after Ingest
	// returned, so they are read from Stats.
	attempted, failed := stepped+fed, stepFailed+max(ingestFailed, s.batched.Stats().Rejected)
	var canonMS []float64
	for _, eng := range []*stream.Engine{s.stepped, s.batched} {
		net := eng.MaterializedNetwork()
		t := time.Now()
		res, err := core.Schedule(net, core.Options{Tau: churnTau, Seed: s.in.cfg.Seed, Mode: core.Canonical})
		canonMS = append(canonMS, sinceMS(t))
		attempted++
		if err != nil || !slices.Equal(res.KeptInternal, eng.Cover()) {
			failed++
		}
	}

	l, err := summarize(lat, churnTailQ)
	if err != nil {
		return report{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return report{}, err
	}
	out := cfg.out
	fmt.Fprintf(out, "stream-churn: n=%d, degree %d, τ=%d, %d live nodes at the end\n",
		churnNodes, churnDegree, churnTau, s.stepped.LiveCount())
	fmt.Fprintf(out, "  stepped: %d events, step+cover latency %s\n", len(lat), l)
	fmt.Fprintf(out, "  batched: %d events in %d polls of %d, median %.1f events/s\n",
		fed, len(rates), churnPoll, median(rates))
	fmt.Fprintf(out, "  canonical_ms %.3f (median of %d from-scratch canonical schedules of the final topologies)\n",
		median(canonMS), len(canonMS))
	fmt.Fprintf(out, "  setup_s is the median of %d set-ups (deploy, %d events, two genesis elections)\n", churnSetups, len(events))
	return report{
		attempted: attempted,
		failed:    failed,
		values: map[string]float64{
			"setup_s":          setupS,
			"throughput_per_s": median(rates),
			"op_p50_ms":        l.P50,
			"op_tail_ms":       l.Tail,
			"peak_rss_mb":      rss,
		},
	}, nil
}

func churnTraced(cfg config) (report, error) {
	in, err := churnGenerate(cfg.seed, max(churnTraceStepped, churnTraceBatched))
	if err != nil {
		return report{}, err
	}
	prepare := func(reg *telemetry.Registry) (func() (pass, error), error) {
		stepped, err := in.genesis(reg)
		if err != nil {
			return nil, err
		}
		batched, err := in.genesis(reg)
		if err != nil {
			return nil, err
		}
		return func() (pass, error) {
			stepFailed, ingestFailed := 0, 0
			for _, ev := range in.events[:churnTraceStepped] {
				if _, err := stepOne(stepped, ev); err != nil {
					stepFailed++
				}
			}
			for i := 0; i < churnTraceBatched; i += churnPoll {
				ingestFailed += ingestPoll(batched, in.events[i:i+churnPoll])
			}
			p := pass{
				attempted: churnTraceStepped + churnTraceBatched,
				failed:    stepFailed + max(ingestFailed, batched.Stats().Rejected),
				label:     "stepped and batched events",
				spanRows:  []string{"stream.election", "stream.rebuild", "stream.wal_append"},
			}
			for _, eng := range []*stream.Engine{stepped, batched} {
				p.elections = append(p.elections, election{
					net: eng.MaterializedNetwork(), tau: churnTau, seed: in.cfg.Seed, want: eng.Cover(),
				})
			}
			return p, nil
		}, nil
	}
	tr := &tracer{cfg: cfg}
	if err := tr.run(prepare); err != nil {
		return report{}, err
	}
	tr.udgBuild([]udgInput{{pts: positions(in), rc: in.cfg.Radius}})

	f := func(name string) float64 { return float64(tr.delta(name).Value) }
	mean := func(name string, unit float64) float64 {
		d := tr.delta(name)
		return ratio(float64(d.Sum), float64(d.Count)) / unit
	}
	hits, misses := f("stream.memo_hits"), f("stream.memo_misses")
	extra := map[string]float64{
		"stream.election_ms_mean":    mean("stream.election", 1e6),
		"stream.rebuild_ms_mean":     mean("stream.rebuild", 1e6),
		"stream.wal_append_us_mean":  mean("stream.wal_append", 1e3),
		"stream.tests_per_election":  ratio(f("stream.tests"), f("stream.elections")),
		"stream.memo_hit_ratio":      ratio(hits, hits+misses),
		"stream.rebuilds_per_event":  ratio(f("stream.rebuilds"), f("stream.applied")),
		"stream.coalesced_ratio":     ratio(f("stream.coalesced"), f("stream.admitted")),
		"stream.wal_bytes_per_event": ratio(f("stream.wal_bytes"), f("stream.admitted")),
	}
	return tr.report("stream-churn", extra), nil
}

// positions returns the genesis positions in node-ID order.
func positions(in *churnInput) []geom.Point {
	pts := make([]geom.Point, len(in.cfg.Positions))
	for v, p := range in.cfg.Positions {
		pts[v] = p
	}
	return pts
}
