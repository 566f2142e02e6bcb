package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestMetricTablesAreValid(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := validDefs(defs); err != nil {
			t.Error(err)
		}
	}
}

func TestValidDefsRejectsBadNames(t *testing.T) {
	bad := [][]metricDef{
		{{"_leading", "ms", "lower"}},
		{{"has space", "ms", "lower"}},
		{{"a", "", "lower"}},
		{{"a", "ms", "sideways"}},
		{{"a", "ms", "lower"}, {"a", "s", "lower"}},
		{{"x23456789012345678901234567890123456789012345678901234567890123456", "ms", "lower"}},
	}
	for _, defs := range bad {
		if err := validDefs(defs); err == nil {
			t.Errorf("validDefs(%v) accepted an invalid table", defs)
		}
	}
}

func TestBuildMetrics(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms", "lower"}, {"b", "count", "higher"}}
	m, err := buildMetrics(defs, map[string]float64{"a_ms": 1.5, "b": 0})
	if err != nil {
		t.Fatal(err)
	}
	if m["a_ms"] != (metricValue{1.5, "ms"}) || m["b"] != (metricValue{0, "count"}) {
		t.Errorf("buildMetrics = %v", m)
	}
	for _, vals := range []map[string]float64{
		{"a_ms": 1},                     // missing
		{"a_ms": 1, "b": 2, "c": 3},     // undeclared
		{"a_ms": math.NaN(), "b": 2},    // not finite
		{"a_ms": math.Inf(1), "b": 2.0}, // not finite
	} {
		if _, err := buildMetrics(defs, vals); err == nil {
			t.Errorf("buildMetrics(%v) succeeded, want an error", vals)
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := spec.EndToEnd[i]
		if (metricDef{e.Name, e.Unit, e.Better}) != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if spec.PerLayer[i] != d {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, spec.PerLayer[i], d)
		}
	}
}
