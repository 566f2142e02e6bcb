package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dcc/internal/core"
	"dcc/internal/cycles"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/telemetry"
	"dcc/internal/vpt"
)

// A traced run (--trace 1) makes two passes over the same inputs:
//
//   - the untraced pass runs the workload's engine with no registry, then a
//     plain canonical core.Schedule of each network the engine left behind;
//   - the traced pass runs the engine with a clocked telemetry registry
//     (spans and counters inside the program, the runner pool
//     instrumented), then drives the same networks through
//     core.CanonicalElect with a test callback that times the layers the
//     election reaches only from inside: graph extraction and
//     fingerprinting, the cycles kernel and the vpt verdict.
//
// The time-share table splits the traced pass's wall time into rows that
// sum to it, and the tracing overhead is the traced minus the untraced
// wall time.

// election is one network to elect canonically in both passes.
type election struct {
	net  core.Network
	tau  int
	seed int64
	// want, when non-nil, is the kept internal set the canonical schedule
	// must reproduce (the stream engine's convergence contract).
	want []graph.NodeID
}

// pass is what an engine pass reports.
type pass struct {
	// label names the engine work in the time-share table.
	label             string
	attempted, failed int
	elections         []election
	// spanRows name span series of engine phases that run one after
	// another inside the pass; each becomes a row of the time-share table.
	spanRows []string
	// check, when set, verifies the pass's outputs; it runs after the
	// timed region.
	check func() (attempted, failed int)
}

// row is one line of the time-share table.
type row struct {
	name string
	ns   int64
}

// prepareFunc builds a pass's state outside any timing (for example, a
// fresh engine at genesis) and returns the timed engine pass. reg is nil
// for the untraced pass.
type prepareFunc func(reg *telemetry.Registry) (func() (pass, error), error)

// layerTimes accumulates the timed drive's per-layer measurements.
type layerTimes struct {
	extractNs, extractCalls, ballNodes int64
	fingerprintNs, fingerprintCalls    int64
	kernelNs, kernelCalls, kernelEdges int64
	deletableNs, compNs, computes      int64
	callbackNs, electNs, driveNs       int64
	tests, deletions                   int64
	// disagreements counts verdicts where Cache.Deletable said deletable
	// but the kernel probe said the cycle space is not short-spanned —
	// impossible if both layers are right.
	disagreements int64
}

// tracer runs one traced workload and assembles its report.
type tracer struct {
	cfg               config
	uWall, tWall      time.Duration
	engineT           time.Duration
	lt                layerTimes
	label             string
	spanRows          []string
	attempted, failed int
	udgMS             float64
	// base and final are the registry before and after the traced pass;
	// metrics are their difference, so work done while preparing the
	// pass (a stream engine's genesis election) is not counted.
	base, final map[string]series
}

// run makes the untraced and the traced pass.
func (tr *tracer) run(prepare prepareFunc) error {
	// Untraced pass.
	engine, err := prepare(nil)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	up, err := engine()
	if err != nil {
		return err
	}
	var ref [][]graph.NodeID
	for _, e := range up.elections {
		res, err := core.Schedule(e.net, core.Options{Tau: e.tau, Seed: e.seed, Mode: core.Canonical})
		if err != nil {
			return fmt.Errorf("canonical schedule: %w", err)
		}
		ref = append(ref, res.Deleted)
		tr.attempted++
		if e.want != nil && !slices.Equal(res.KeptInternal, e.want) {
			tr.failed++
		}
	}
	tr.uWall = time.Since(t0)
	tr.count(up)

	// Traced pass.
	reg := telemetry.NewWithClock(telemetry.WallClock{})
	engine, err = prepare(reg)
	if err != nil {
		return err
	}
	if tr.base, err = snapshot(reg); err != nil {
		return err
	}
	runtime.GC()
	t0 = time.Now()
	runner.Instrument(reg)
	tp, err := engine()
	runner.Instrument(nil)
	if err != nil {
		return err
	}
	tr.engineT = time.Since(t0)
	d0 := time.Now()
	for i, e := range tp.elections {
		deleted := drive(e, &tr.lt)
		tr.attempted++
		if i >= len(ref) || !slices.Equal(deleted, ref[i]) {
			tr.failed++
		}
	}
	tr.lt.driveNs = int64(time.Since(d0))
	tr.tWall = time.Since(t0)
	if tr.final, err = snapshot(reg); err != nil {
		return err
	}
	tr.count(tp)
	tr.label, tr.spanRows = tp.label, tp.spanRows
	tr.failed += int(tr.lt.disagreements)
	return nil
}

// delta returns how much the named series grew during the traced pass.
func (tr *tracer) delta(name string) series {
	a, b := tr.base[name], tr.final[name]
	return series{Value: b.Value - a.Value, Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
}

// count adds a pass's own operations and its output check.
func (tr *tracer) count(p pass) {
	tr.attempted += p.attempted
	tr.failed += p.failed
	if p.check != nil {
		a, f := p.check()
		tr.attempted += a
		tr.failed += f
	}
}

// drive runs the canonical election of e through a timed test callback.
// The callback's verdict is Cache.Deletable's, so the election is the
// canonical schedule; the extraction, fingerprint and kernel calls around
// it are probes on the same Γ^k(v) that time those layers on the exact
// inputs the election tests.
func drive(e election, lt *layerTimes) []graph.NodeID {
	cache := vpt.NewCache(e.net.G, e.tau)
	view := cache.View()
	k := vpt.NeighborhoodRadius(e.tau)
	sx, sf := graph.NewScratch(e.net.G), graph.NewScratch(e.net.G)
	ws := cycles.NewWorkspace()
	var callbackNs int64
	test := func(v graph.NodeID) bool {
		c0 := time.Now()
		sub, _ := view.ExtractNeighborhood(v, k, sx)
		c1 := time.Now()
		view.NeighborhoodFingerprint(v, k, sf)
		c2 := time.Now()
		probe := sub != nil && sub.NumNodes() > 0 && sub.IsConnected()
		c3 := time.Now()
		spanned := false
		if probe {
			spanned = cycles.SpannedByShortWS(sub, e.tau, ws)
		}
		c4 := time.Now()
		before := cache.Stats().Computes
		ok := cache.Deletable(v)
		c5 := time.Now()

		lt.extractNs += int64(c1.Sub(c0))
		lt.extractCalls++
		if sub != nil {
			lt.ballNodes += int64(sub.NumNodes())
		}
		lt.fingerprintNs += int64(c2.Sub(c1))
		lt.fingerprintCalls++
		if probe {
			lt.kernelNs += int64(c4.Sub(c3))
			lt.kernelCalls++
			lt.kernelEdges += int64(sub.NumEdges())
		}
		lt.deletableNs += int64(c5.Sub(c4))
		if cache.Stats().Computes > before {
			lt.computes++
			lt.compNs += int64(c5.Sub(c4))
		}
		if ok && !spanned {
			lt.disagreements++
		}
		callbackNs += int64(time.Since(c0))
		return ok
	}
	t0 := time.Now()
	deleted, tests := core.CanonicalElect(e.net, e.seed, cache, test)
	lt.electNs += int64(time.Since(t0))
	lt.callbackNs += callbackNs
	lt.tests += int64(tests)
	lt.deletions += int64(len(deleted))
	return deleted
}

// udgInput is one point set to connect with geom.UDG.
type udgInput struct {
	pts []geom.Point
	rc  float64
}

// udgBuild times geom.UDG over the workload's point sets: the median of
// three builds of all of them, in milliseconds.
func (tr *tracer) udgBuild(in []udgInput) {
	var times []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, u := range in {
			geom.UDG(u.pts, u.rc)
		}
		times = append(times, sinceMS(t0))
	}
	tr.udgMS = median(times)
}

// series is one exported telemetry series.
type series struct {
	Value, Count, Sum int64
}

// snapshot reads every series of reg through its NDJSON export.
func snapshot(reg *telemetry.Registry) (map[string]series, error) {
	var buf bytes.Buffer
	if err := reg.WriteNDJSON(&buf); err != nil {
		return nil, err
	}
	out := make(map[string]series)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		// Fields a series kind does not export stay zero.
		var line struct {
			Name              string
			Value, Count, Sum int64
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("telemetry export: %w", err)
		}
		out[line.Name] = series{Value: line.Value, Count: line.Count, Sum: line.Sum}
	}
	return out, sc.Err()
}

// report assembles the per-layer metrics (extra carries the workload's
// shard.* or stream.* values) and prints the time-share table.
func (tr *tracer) report(name string, extra map[string]float64) report {
	lt := tr.lt
	f := func(x int64) float64 { return float64(x) }
	lookups, computes := f(tr.delta("vpt.lookups").Value), f(tr.delta("vpt.computes").Value)
	dirty := tr.delta("vpt.dirty_ball")
	loopSelf := lt.electNs - lt.callbackNs
	v := map[string]float64{
		"cycles.calls":                  f(lt.kernelCalls),
		"cycles.ns_per_call":            ratio(f(lt.kernelNs), f(lt.kernelCalls)),
		"cycles.input_edges_mean":       ratio(f(lt.kernelEdges), f(lt.kernelCalls)),
		"cycles.time_share":             ratio(f(lt.kernelNs), f(lt.compNs)),
		"graph.extract_ns_per_call":     ratio(f(lt.extractNs), f(lt.extractCalls)),
		"graph.ball_nodes_mean":         ratio(f(lt.ballNodes), f(lt.extractCalls)),
		"graph.fingerprint_ns_per_call": ratio(f(lt.fingerprintNs), f(lt.fingerprintCalls)),
		"graph.udg_build_ms":            tr.udgMS,
		"vpt.lookups":                   lookups,
		"vpt.computes":                  computes,
		"vpt.hit_ratio":                 ratio(lookups-computes, lookups),
		"vpt.invalidated":               f(tr.delta("vpt.invalidated").Value),
		"vpt.dirty_ball_mean":           ratio(f(dirty.Sum), f(dirty.Count)),
		"vpt.verdict_ns_per_compute":    ratio(f(lt.compNs), f(lt.computes)),
		"core.tests":                    f(lt.tests),
		"core.deletions":                f(lt.deletions),
		"core.useful_ratio":             ratio(f(lt.deletions), f(lt.tests)),
		"core.loop_self_ms":             f(loopSelf) / 1e6,
		"runner.occupancy":              ratio(f(tr.delta("runner.job").Sum), float64(tr.cfg.workers)*f(int64(tr.engineT))),
		"trace.overhead_ms":             msOf(tr.tWall - tr.uWall),
	}
	for _, d := range perLayer {
		if _, ok := v[d.Name]; !ok {
			v[d.Name] = extra[d.Name] // 0 when the workload never reaches the layer
		}
	}

	// Time-share table: the traced pass, split into rows that sum to its
	// wall time.
	var rows []row
	var spanSum int64
	for _, s := range tr.spanRows {
		ns := tr.delta(s).Sum
		rows = append(rows, row{s + " (span)", ns})
		spanSum += ns
	}
	rest := tr.label
	if len(rows) > 0 {
		rest += ", outside the spans above"
	}
	rows = append(rows, row{rest, int64(tr.engineT) - spanSum})
	probes := lt.extractNs + lt.fingerprintNs + lt.kernelNs + lt.deletableNs
	rows = append(rows,
		row{"core   CanonicalElect loop (self)", loopSelf},
		row{"vpt    Cache.Deletable", lt.deletableNs},
		row{"cycles SpannedByShortWS (probe)", lt.kernelNs},
		row{"graph  ExtractNeighborhood (probe)", lt.extractNs},
		row{"graph  NeighborhoodFingerprint (probe)", lt.fingerprintNs},
		row{"drive  callback rest (IsConnected, timers)", lt.callbackNs - probes},
		row{"drive  set-up (cache, scratch)", lt.driveNs - lt.electNs},
	)
	var sum int64
	for _, r := range rows {
		sum += r.ns
	}
	rows = append(rows, row{"other", int64(tr.tWall) - sum})
	out := tr.cfg.out
	fmt.Fprintf(out, "%s traced pass: per-layer time share\n", name)
	for _, r := range rows {
		fmt.Fprintf(out, "  %-54s %12.3f ms %6.1f%%\n", r.name, float64(r.ns)/1e6, 100*ratio(float64(r.ns), float64(tr.tWall)))
	}
	fmt.Fprintf(out, "  %-54s %12.3f ms\n", "traced wall (sum of rows)", msOf(tr.tWall))
	fmt.Fprintf(out, "  %-54s %12.3f ms\n", "untraced wall, same inputs", msOf(tr.uWall))
	fmt.Fprintf(out, "  %-54s %12.3f ms (%.1f%%)\n", "tracing overhead", msOf(tr.tWall-tr.uWall),
		100*ratio(f(int64(tr.tWall-tr.uWall)), f(int64(tr.uWall))))
	return report{attempted: tr.attempted, failed: tr.failed, values: v}
}
