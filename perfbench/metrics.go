package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one reported metric: its name, unit and which
// direction is an improvement. The two tables below are the benchmark's
// contract with BENCHMARK.json at the repository root (metrics_test.go
// checks that the file lists exactly these).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports all of them; README.md says what "operation", "throughput" and
// the tail quantile mean on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1), named
// <layer>.<quantity> after the repository's internal packages. A layer a
// workload never reaches reports 0.
var perLayer = []metricDef{
	{"cycles.calls", "count", "lower"},
	{"cycles.ns_per_call", "ns", "lower"},
	{"cycles.input_edges_mean", "count", "lower"},
	{"cycles.time_share", "ratio", "lower"},
	{"graph.extract_ns_per_call", "ns", "lower"},
	{"graph.ball_nodes_mean", "count", "lower"},
	{"graph.fingerprint_ns_per_call", "ns", "lower"},
	{"graph.udg_build_ms", "ms", "lower"},
	{"vpt.lookups", "count", "lower"},
	{"vpt.computes", "count", "lower"},
	{"vpt.hit_ratio", "ratio", "higher"},
	{"vpt.invalidated", "count", "lower"},
	{"vpt.dirty_ball_mean", "count", "lower"},
	{"vpt.verdict_ns_per_compute", "ns", "lower"},
	{"core.tests", "count", "lower"},
	{"core.deletions", "count", "higher"},
	{"core.useful_ratio", "ratio", "higher"},
	{"core.loop_self_ms", "ms", "lower"},
	{"shard.batches", "count", "lower"},
	{"shard.batch_width", "count", "higher"},
	{"shard.deferred_ratio", "ratio", "lower"},
	{"shard.replica_ratio", "ratio", "lower"},
	{"shard.max_local", "count", "lower"},
	{"shard.halo_deltas", "count", "lower"},
	{"shard.partition_ms", "ms", "lower"},
	{"shard.elect_ms", "ms", "lower"},
	{"shard.assemble_ms", "ms", "lower"},
	{"stream.election_ms_mean", "ms", "lower"},
	{"stream.rebuild_ms_mean", "ms", "lower"},
	{"stream.wal_append_us_mean", "us", "lower"},
	{"stream.tests_per_election", "count", "lower"},
	{"stream.memo_hit_ratio", "ratio", "higher"},
	{"stream.rebuilds_per_event", "ratio", "lower"},
	{"stream.coalesced_ratio", "ratio", "higher"},
	{"stream.wal_bytes_per_event", "B", "lower"},
	{"runner.occupancy", "ratio", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validDefs checks a metric table: well-formed names and units, no name
// used twice, and a known improvement direction.
func validDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not 1-64 of [A-Za-z0-9_.-] starting alphanumeric", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q is not 1-16 of [A-Za-z0-9_/%%.-]", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, not %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildMetrics turns measured values into the result line's metrics
// object. It fails unless values holds exactly the declared names, each a
// finite number.
func buildMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return out, nil
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
