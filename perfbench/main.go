// Command perfbench is the repository's layered benchmark. It runs one of
// three workloads — fig3-dense, stream-churn, shard-sparse — against the
// library in this module, checks every output for correctness, and
// prints the metrics as one JSON object on the last line of standard
// output:
//
//	bash perfbench/run.sh --workload fig3-dense --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is a separate run that times calls into each layer (geom,
// graph, cycles, vpt, core, shard, stream, runner) from this package's
// own code and prints a per-layer time-share table plus the per-layer
// metrics. README.md documents the workloads, the metrics and what each
// layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Seed streams: every input is derived from --seed through
// runner.DeriveSeed with one of these stream constants, so the same seed
// always gives the same inputs and distinct inputs never share a stream.
// Stream ids are unique across the whole tree (the dcclint streamid
// analyzer checks it); these spell "pb" in their high bytes, clear of the
// experiment registry (small integers) and core's ASCII-named streams.
const (
	streamFig3Deploy    uint64 = 0x70620001
	streamFig3Schedule  uint64 = 0x70620002
	streamChurnDeploy   uint64 = 0x70620003
	streamChurnEvents   uint64 = 0x70620004
	streamChurnElect    uint64 = 0x70620005
	streamShardDeploy   uint64 = 0x70620006
	streamShardSchedule uint64 = 0x70620007
	streamShardSample   uint64 = 0x70620008
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	workers int
	out     io.Writer // human-readable report lines
}

// report is a workload's outcome: operations attempted, how many failed
// or produced a wrong result, and the metric values.
type report struct {
	attempted, failed int
	values            map[string]float64
}

// workload is one benchmark input family.
type workload struct {
	name string
	// why is the one-line reason the workload exists (also in README.md
	// and BENCHMARK.json).
	why     string
	measure func(config) (report, error)
	traced  func(config) (report, error)
}

var workloads = []workload{
	{
		name:    "fig3-dense",
		why:     "paper Figure 3 (n=150, degree 25, tau 3..6): kernel-bound, cycles.SpannedByShortWS dominates verdict time",
		measure: fig3Measure,
		traced:  fig3Traced,
	},
	{
		name:    "stream-churn",
		why:     "stream engine at n~2000, degree 10, tau 4 under churn: memo-dominated, bypasses the kernel, targets stream changes",
		measure: churnMeasure,
		traced:  churnTraced,
	},
	{
		name:    "shard-sparse",
		why:     "sharded schedule of ~1e5 nodes at degree 8, tau 4: the only workload on the shard coordinator and memory at scale",
		measure: shardMeasure,
		traced:  shardTraced,
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s ≥ 1> --trace <0|1>")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: min(2, runtime.NumCPU()),
		out:     stdout,
	}
	m := collectMeta(root)
	m.Workload, m.Seed, m.Seconds, m.Trace, m.Workers = w.name, *seed, *seconds, *trace, cfg.workers
	mj, _ := json.Marshal(m)
	fmt.Fprintf(stdout, "meta %s\n", mj)
	fmt.Fprintf(stdout, "workload %s: %s\n", w.name, w.why)

	defs, fn := endToEnd, w.measure
	if *trace == 1 {
		defs, fn = perLayer, w.traced
	}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	metrics, err := buildMetrics(defs, rep.values)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if rep.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation attempted\n", w.name)
		return 1
	}
	printMetrics(stdout, defs, metrics)
	fmt.Fprintf(stdout, "fail_ratio %d/%d = %g\n", rep.failed, rep.attempted, float64(rep.failed)/float64(rep.attempted))
	line, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printMetrics writes one "name value unit" line per metric, in
// declaration order.
func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

// sinceMS converts a duration to float milliseconds.
func sinceMS(t0 time.Time) float64 { return msOf(time.Since(t0)) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repeatSetup runs setup reps times and returns the last result with the
// median set-up time in seconds, so that setup_s is a median rather than
// one reading. Earlier results are dropped before the next set-up starts.
func repeatSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		var zero T
		last = zero
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}
