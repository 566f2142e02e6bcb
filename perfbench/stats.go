package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of samples, computed
// exactly from the sorted raw values by linear interpolation between the
// two closest ranks (the "type 7" rule of R and NumPy). samples must be
// sorted ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples strictly greater than x.
func beyond(sorted []float64, x float64) int {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })
	return len(sorted) - i
}

// latency summarizes a set of per-operation latencies: the median and
// one tail quantile, both exact, with the sample counts they stand on.
type latency struct {
	N      int     // samples
	P50    float64 // median
	TailQ  float64 // the tail quantile's level, e.g. 0.95
	Tail   float64 // the tail quantile
	Beyond int     // samples above Tail
}

// summarize sorts a copy of samples and reads the median and the tailQ
// quantile off it. It fails on an empty sample set rather than inventing
// a value.
func summarize(samples []float64, tailQ float64) (latency, error) {
	if len(samples) == 0 {
		return latency{}, fmt.Errorf("no samples")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	tail := quantile(s, tailQ)
	return latency{N: len(s), P50: quantile(s, 0.5), TailQ: tailQ, Tail: tail, Beyond: beyond(s, tail)}, nil
}

// String prints both quantiles with the sample count beside them, so a
// reader can see how many samples the tail quantile stands on.
func (l latency) String() string {
	name := fmt.Sprintf("p%g", 100*l.TailQ)
	return fmt.Sprintf("p50 %.3f ms, %s %.3f ms (n=%d, %d beyond %s)", l.P50, name, l.Tail, l.N, l.Beyond, name)
}

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
