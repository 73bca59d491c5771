// Package validation implements the Output Validator of the
// Graphalytics architecture (Figure 2): it "checks the outcome of the
// benchmark to ensure correctness" by comparing every platform result
// against the output of the sequential reference implementation.
//
// The package only compares. Each CheckX takes the reference output as
// an argument instead of computing it, so a campaign can compute one
// reference per (graph, workload) — as LDBC Graphalytics fixes one
// reference output per (dataset, algorithm) — and check every platform
// against it. Computing references is the workload registry's job
// (workload.Spec.Reference).
//
// The package provides the per-workload checks the workload registry
// (internal/workload) binds to its workloads. Every built-in check is
// exact: each element must match the reference bit-identically. The
// LDBC Graphalytics specification allows a tolerance for PR and LCC
// because it validates platforms it did not write; every engine here
// shares algo's arithmetic (PR sums fixed-point mass, each LCC value is
// an integer count divided by d(d−1), and every engine folds its LCC
// output into the STATS mean with algo.StatsFromLCC in vertex order),
// so any difference is a defect.
//
// Dispatch from an algo.Kind to its check lives in the workload
// registry, not here, so adding a workload does not edit this package.
package validation

import (
	"fmt"
	"math"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
)

// Result is one validation outcome.
type Result struct {
	Valid  bool
	Detail string // human-readable failure description ("" when valid)
}

func ok() Result { return Result{Valid: true} }

func fail(format string, args ...any) Result {
	return Result{Valid: false, Detail: fmt.Sprintf(format, args...)}
}

// Fail builds an invalid Result with a formatted detail message. It is
// exported for the workload registry's own dispatch errors.
func Fail(format string, args ...any) Result { return fail(format, args...) }

// ---------------------------------------------------------------------
// Float comparison.

// ExactFloats compares two float vectors element-wise for bit equality
// (+Inf equals +Inf; NaN equals nothing). It is the comparison of every
// float-valued workload: SSSP distances, PR ranks and LCC coefficients.
func ExactFloats(got, want []float64) Result {
	if len(got) != len(want) {
		return fail("output has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] && !(math.IsInf(got[i], 1) && math.IsInf(want[i], 1)) {
			return fail("vertex %d: value %v, want %v", i, got[i], want[i])
		}
	}
	return ok()
}

// ---------------------------------------------------------------------
// Per-workload checks. Each compares a platform output got against want,
// the reference implementation's output for the same graph and
// parameters, which the caller computes once and may share across
// platforms: no check calls the reference or modifies want.

// CheckStats checks a STATS output.
func CheckStats(_ *graph.Graph, got, want algo.StatsOutput) Result {
	if got.Vertices != want.Vertices {
		return fail("vertices = %d, want %d", got.Vertices, want.Vertices)
	}
	if got.Edges != want.Edges {
		return fail("edges = %d, want %d", got.Edges, want.Edges)
	}
	// A NaN mean differs from every value, so != rejects it.
	if got.MeanLCC != want.MeanLCC {
		return fail("mean LCC = %v, want %v", got.MeanLCC, want.MeanLCC)
	}
	return ok()
}

// CheckBFS checks a BFS output.
func CheckBFS(g *graph.Graph, got, want algo.BFSOutput) Result {
	if len(got) != g.NumVertices() {
		return fail("output has %d entries, want %d", len(got), g.NumVertices())
	}
	for v := range want {
		if got[v] != want[v] {
			return fail("vertex %d: depth %d, want %d", v, got[v], want[v])
		}
	}
	return ok()
}

// CheckConn checks a CONN output.
func CheckConn(g *graph.Graph, got, want algo.ConnOutput) Result {
	if len(got) != g.NumVertices() {
		return fail("output has %d entries, want %d", len(got), g.NumVertices())
	}
	for v := range want {
		if got[v] != want[v] {
			return fail("vertex %d: label %d, want %d", v, got[v], want[v])
		}
	}
	return ok()
}

// CheckCD checks a CD output: exact label match plus structural sanity
// (labels must be existing vertex IDs). Equal labels give equal
// modularity, so modularity needs no comparison of its own.
func CheckCD(g *graph.Graph, got, want algo.CDOutput) Result {
	if len(got) != g.NumVertices() {
		return fail("output has %d entries, want %d", len(got), g.NumVertices())
	}
	for v, l := range got {
		if l < 0 || l >= int64(g.NumVertices()) {
			return fail("vertex %d: label %d outside vertex ID domain", v, l)
		}
	}
	for v := range want {
		if got[v] != want[v] {
			return fail("vertex %d: label %d, want %d", v, got[v], want[v])
		}
	}
	return ok()
}

// CheckEvo checks an EVO output: exact new-edge-set match plus
// structural sanity (sources are new vertices, targets are older).
func CheckEvo(g *graph.Graph, got, want algo.EvoOutput) Result {
	n := graph.VertexID(g.NumVertices())
	for _, e := range got.Edges {
		if e[0] < n {
			return fail("edge source %d is not a new vertex", e[0])
		}
		if e[1] >= e[0] {
			return fail("edge (%d,%d) does not point to an older vertex", e[0], e[1])
		}
	}
	if got.NewVertices != want.NewVertices {
		return fail("new vertices = %d, want %d", got.NewVertices, want.NewVertices)
	}
	if len(got.Edges) != len(want.Edges) {
		return fail("new edges = %d, want %d", len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			return fail("edge %d: %v, want %v", i, got.Edges[i], want.Edges[i])
		}
	}
	return ok()
}

// CheckPageRank checks a PR output: per-vertex bit equality with the
// reference (every engine sums algo's fixed-point mass, so ranks do not
// depend on summation order).
func CheckPageRank(g *graph.Graph, got, want algo.PROutput) Result {
	if len(got) != g.NumVertices() {
		return fail("output has %d entries, want %d", len(got), g.NumVertices())
	}
	return ExactFloats(got, want)
}

// CheckSSSP checks an SSSP output: exact distance agreement with the
// Dijkstra reference (distances are deterministic path sums).
func CheckSSSP(g *graph.Graph, got, want algo.SSSPOutput) Result {
	if len(got) != g.NumVertices() {
		return fail("output has %d entries, want %d", len(got), g.NumVertices())
	}
	return ExactFloats(got, want)
}

// CheckLCC checks an LCC output: every coefficient in [0, 1], and
// per-vertex bit equality with the reference.
func CheckLCC(g *graph.Graph, got, want algo.LCCOutput) Result {
	if len(got) != g.NumVertices() {
		return fail("output has %d entries, want %d", len(got), g.NumVertices())
	}
	for v, c := range got {
		if c < 0 || c > 1 || math.IsNaN(c) {
			return fail("vertex %d: LCC %v outside [0, 1]", v, c)
		}
	}
	return ExactFloats(got, want)
}
