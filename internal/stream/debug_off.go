//go:build !dccdebug

package stream

import (
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// memoCheckBudget is empty in release builds; the dccdebug build counts
// the hits an engine has re-derived (debug_on.go).
type memoCheckBudget struct{}

// debugCheckMemoVerdict is a no-op in release builds; the dccdebug build
// re-derives memoized and replayed verdicts from scratch (debug_on.go).
func debugCheckMemoVerdict(*Engine, *vpt.Cache, graph.NodeID, bool, *graph.Scratch) {}

// debugCheckTelemetryMirror is a no-op in release builds; the dccdebug
// build asserts published telemetry mirrors Stats (debug_on.go).
func debugCheckTelemetryMirror(*Engine) {}
