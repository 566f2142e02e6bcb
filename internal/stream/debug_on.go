//go:build dccdebug

package stream

import (
	"fmt"

	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// debugMemoCheckLimit caps the number of memo and replay hits each engine
// cross-checks: enough to catch a fingerprint collision, a digest
// collision or an under-approximated dirty region in any test, cheap
// enough to leave on for the whole dccdebug suite.
const debugMemoCheckLimit = 4096

// memoCheckBudget counts the hits an engine has re-derived. It lives in
// the engine and is only touched under e.mu, so engines running on
// parallel workers neither race on it nor spend each other's budget.
type memoCheckBudget struct{ used int }

// debugCheckMemoVerdict re-derives a memoized or replayed deletability
// verdict from the residual neighborhood and panics on disagreement — the
// soundness check behind both shortcuts: fingerprint equality, and a clean
// start ball with an equal deletion digest, must each imply verdict
// equality.
func debugCheckMemoVerdict(e *Engine, cache *vpt.Cache, v graph.NodeID, memoized bool, s *graph.Scratch) {
	if e.memoChecks.used >= debugMemoCheckLimit {
		return
	}
	e.memoChecks.used++
	if fresh := cache.ComputeFresh(v, s, e.tester); fresh != memoized {
		panic(fmt.Sprintf("stream: memoized or replayed verdict for node %d is %v, fresh computation says %v (collision, stale memo or missed dirt)",
			v, memoized, fresh))
	}
}

// debugCheckTelemetryMirror asserts that the amounts published into the
// telemetry registry equal the engine's Stats, field for field — the
// cross-check that no Stats field is missing from publish and no delta
// was dropped. Runs after every publish, under e.mu.
func debugCheckTelemetryMirror(e *Engine) {
	if e.tel == nil {
		return
	}
	if e.telPub != e.stats {
		panic(fmt.Sprintf("stream: telemetry mirror diverged from Stats: published %+v, stats %+v",
			e.telPub, e.stats))
	}
}
