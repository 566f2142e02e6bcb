package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"dcc"
	"dcc/internal/core"
	"dcc/internal/runner"
	"dcc/internal/telemetry"
)

// fig3-dense: the paper's Figure 3 configuration — n=150 interior nodes at
// average degree 25 — scheduled by ScheduleDCC (Sequential mode) at
// τ = 3..6 over a fixed set of seeded deployments. One operation is one
// deployment's sweep over the four τ, the series Figure 3 plots. A single
// schedule is not the operation because half the schedules (τ = 3, 4) are
// several times faster than the other half, which puts the median of
// single schedules in the gap between the two groups, where it jumps.
const (
	fig3Nodes     = 150
	fig3Degree    = 25
	fig3Deploys   = 30
	fig3Setups    = 5
	fig3MinRounds = 3
	// fig3TailQ is the tail quantile reported. With 30 sweeps per run only
	// three samples lie beyond p90; ten would need more deployments than
	// three rounds can schedule in the run's time.
	fig3TailQ = 0.9
	// fig3TraceDeploys deployments (all four τ each) make up a traced run.
	fig3TraceDeploys = 8
)

var fig3Taus = []int{3, 4, 5, 6}

// fig3Job is one schedule of a round: a deployment at one τ. Jobs come
// in sweeps: len(fig3Taus) consecutive jobs share a deployment.
type fig3Job struct {
	dep  *dcc.Deployment
	tau  int
	seed int64
}

// fig3Setup deploys the workload's networks. Each deployment is
// resampled until its boundary is 3-partitionable, the precondition of
// Theorem 5 at every τ ≥ 3, so every kept set must pass VerifyConfine.
func fig3Setup(seed int64) ([]fig3Job, error) {
	var jobs []fig3Job
	for i := 0; i < fig3Deploys; i++ {
		dep, err := deployAchievable(runner.DeriveSeed(seed, streamFig3Deploy, i), fig3Nodes, fig3Degree)
		if err != nil {
			return nil, err
		}
		for _, tau := range fig3Taus {
			jobs = append(jobs, fig3Job{dep: dep, tau: tau, seed: runner.DeriveSeed(seed, streamFig3Schedule, len(jobs))})
		}
	}
	return jobs, nil
}

// deployAchievable deploys n nodes at the given degree, resampling the
// seed until the full deployment is 3-confine (at most 25 attempts).
func deployAchievable(seed int64, n int, degree float64) (*dcc.Deployment, error) {
	for attempt := 0; attempt < 25; attempt++ {
		dep, err := dcc.Deploy(dcc.DeployOptions{Nodes: n, AvgDegree: degree, Seed: seed + int64(attempt)*1_000_003})
		if err != nil {
			return nil, err
		}
		if tau, err := dep.AchievableTau(3); err == nil && tau == 3 {
			return dep, nil
		}
	}
	return nil, fmt.Errorf("no 3-confine deployment of %d nodes after 25 attempts from seed %d", n, seed)
}

// fig3Out is one schedule's outcome.
type fig3Out struct {
	res core.Result
	ms  float64
	err error
}

// fig3Round schedules every job once on the worker pool, timing each
// schedule. reg is passed to ScheduleDCC.
func fig3Round(jobs []fig3Job, workers int, reg *telemetry.Registry) []fig3Out {
	outs, _ := runner.Map(len(jobs), workers, func(i int) (fig3Out, error) {
		j := jobs[i]
		t0 := time.Now()
		res, err := j.dep.ScheduleDCC(j.tau, dcc.ScheduleOptions{Seed: j.seed, Telemetry: reg})
		return fig3Out{res: res, ms: sinceMS(t0), err: err}, nil
	})
	return outs
}

func fig3Measure(cfg config) (report, error) {
	jobs, setupS, err := repeatSetup(fig3Setups, func() ([]fig3Job, error) { return fig3Setup(cfg.seed) })
	if err != nil {
		return report{}, err
	}

	// Whole rounds, at least fig3MinRounds, while the next round is
	// predicted to end within the budget.
	var (
		rounds [][]fig3Out
		rates  []float64
	)
	runtime.GC()
	start := time.Now()
	for len(rounds) < fig3MinRounds || time.Since(start)+time.Since(start)/time.Duration(len(rounds)) <= cfg.seconds {
		t0 := time.Now()
		outs := fig3Round(jobs, cfg.workers, nil)
		rates = append(rates, float64(len(jobs))/time.Since(t0).Seconds())
		rounds = append(rounds, outs)
	}
	wall := time.Since(start)

	// Correctness, outside the timed region: every kept set of the first
	// round passes VerifyConfine at its τ (Theorem 5), and every later
	// round reproduces the first round's schedule exactly.
	attempted, failed := 0, 0
	for ji, j := range jobs {
		first := rounds[0][ji]
		ok := first.err == nil
		if ok {
			ok, err = j.dep.VerifyConfine(first.res.Final, j.tau)
			ok = ok && err == nil
		}
		for _, r := range rounds {
			attempted++
			o := r[ji]
			if !ok || o.err != nil || !slices.Equal(o.res.Deleted, first.res.Deleted) {
				failed++
			}
		}
	}

	// A sweep's latency is the sum of its schedules' latencies (the
	// schedules run as separate jobs so the pool stays balanced), and the
	// reported latency of each deployment is its median over the rounds,
	// so a stall of the machine during one round does not reach the
	// quantiles.
	n := len(fig3Taus)
	lat := make([]float64, len(jobs)/n)
	for d := range lat {
		per := make([]float64, len(rounds))
		for ri, r := range rounds {
			for _, o := range r[d*n : (d+1)*n] {
				per[ri] += o.ms
			}
		}
		lat[d] = median(per)
	}
	l, err := summarize(lat, fig3TailQ)
	if err != nil {
		return report{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(cfg.out, "fig3-dense: %d deployments × τ %v = %d schedules per round, %d rounds in %.2f s on %d workers\n",
		fig3Deploys, fig3Taus, len(jobs), len(rounds), wall.Seconds(), cfg.workers)
	fmt.Fprintf(cfg.out, "  schedules per second by round: %.3f, median %.3f\n", rates, median(rates))
	fmt.Fprintf(cfg.out, "  τ-sweep latency, median over rounds per deployment: %s\n", l)
	fmt.Fprintf(cfg.out, "  setup_s is the median of %d set-ups\n", fig3Setups)
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

// fig3Networks returns each job's scheduler input, as ScheduleDCC builds it.
func fig3Networks(jobs []fig3Job) ([]core.Network, error) {
	nets := make([]core.Network, len(jobs))
	for i, j := range jobs {
		net, _, err := core.RepairBoundaries(j.dep.Network())
		if err != nil {
			return nil, err
		}
		nets[i] = net
	}
	return nets, nil
}

// fig3Points returns the deployments' point sets and radii, once per
// deployment, for the UDG build timing.
func fig3Points(jobs []fig3Job) []udgInput {
	var in []udgInput
	var last *dcc.Deployment
	for _, j := range jobs {
		if j.dep != last {
			in = append(in, udgInput{pts: j.dep.Points, rc: j.dep.Rc})
			last = j.dep
		}
	}
	return in
}

func fig3Traced(cfg config) (report, error) {
	jobs, err := fig3Setup(cfg.seed)
	if err != nil {
		return report{}, err
	}
	// The traced run covers the first fig3TraceDeploys deployments: the
	// single-threaded canonical passes over all of them would not fit in
	// one run's time limit.
	jobs = jobs[:fig3TraceDeploys*len(fig3Taus)]
	nets, err := fig3Networks(jobs)
	if err != nil {
		return report{}, err
	}
	// The engine pass is one round of ScheduleDCC on the pool; the
	// canonical elections run over the same networks at the same τ.
	prepare := func(reg *telemetry.Registry) (func() (pass, error), error) {
		return func() (pass, error) {
			outs := fig3Round(jobs, cfg.workers, reg)
			p := pass{label: "ScheduleDCC round on the pool", check: func() (attempted, failed int) {
				for i, o := range outs {
					attempted++
					if o.err != nil {
						failed++
					} else if ok, err := jobs[i].dep.VerifyConfine(o.res.Final, jobs[i].tau); !ok || err != nil {
						failed++
					}
				}
				return attempted, failed
			}}
			for i, j := range jobs {
				p.elections = append(p.elections, election{net: nets[i], tau: j.tau, seed: j.seed})
			}
			return p, nil
		}, nil
	}
	tr := &tracer{cfg: cfg}
	if err := tr.run(prepare); err != nil {
		return report{}, err
	}
	tr.udgBuild(fig3Points(jobs))
	return tr.report("fig3-dense", nil), nil
}
