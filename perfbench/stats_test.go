package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.95, 9.55},
	}
	for _, c := range cases {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{42}, 0.95); got != 42 {
		t.Errorf("quantile of one sample = %v, want 42", got)
	}
}

// A quantile must come from the samples themselves, not from bucket
// edges: a sample set far from any 1-2-5 edge keeps its exact median.
func TestQuantileIsNotABucketEdge(t *testing.T) {
	s := []float64{37.1, 38.4, 38.9, 41.2, 44.0}
	if got := quantile(s, 0.5); got != 38.9 {
		t.Errorf("median = %v, want the middle sample 38.9", got)
	}
}

func TestSummarizeCountsSamplesBeyondTheTail(t *testing.T) {
	var s []float64
	for i := 1000; i >= 1; i-- { // unsorted input
		s = append(s, float64(i))
	}
	l, err := summarize(s, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if l.N != 1000 || l.P50 != 500.5 || math.Abs(l.Tail-950.05) > 1e-9 || l.Beyond != 50 {
		t.Errorf("summarize(1..1000) = %+v", l)
	}
	if s[0] != 1000 {
		t.Error("summarize sorted its input in place")
	}
	if !strings.Contains(l.String(), "n=1000, 50 beyond p95") {
		t.Errorf("String() = %q, want the sample count beside the quantiles", l.String())
	}
	if l, _ := summarize(s, 0.9); l.Beyond != 100 || !strings.Contains(l.String(), "p90 900.100 ms (n=1000, 100 beyond p90)") {
		t.Errorf("summarize at 0.9 = %+v, String() = %q", l, l.String())
	}
	if _, err := summarize(nil, 0.95); err == nil {
		t.Error("summarize(nil) succeeded, want an error")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Error("median modified its input")
	}
}
