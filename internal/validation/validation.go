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
// The package provides the per-workload checks and the three comparison
// policies the workload registry (internal/workload) binds them with:
//
//   - exact: every element must match bit-identically (BFS, CONN, CD,
//     EVO, SSSP, LCC, STATS — their specifications are deterministic
//     across platforms: each LCC value is an integer count divided by
//     d(d−1), and every engine folds its LCC output into the STATS mean
//     with algo.StatsFromLCC in vertex order);
//   - epsilon: float vectors must match within a per-element tolerance
//     (PR — platforms sum floats in different orders);
//   - rank-tolerant: the ordering induced by a float vector must match
//     up to ties within a tolerance (a looser PR acceptance criterion,
//     checked in addition to epsilon).
//
// Dispatch from an algo.Kind to its check lives in the workload
// registry, not here, so adding a workload does not edit this package.
package validation

import (
	"fmt"
	"math"
	"sort"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
)

// Epsilon is the floating-point tolerance for PageRank values and CD
// modularity.
const Epsilon = 1e-9

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
// Comparison policies.

// ExactFloats compares two float vectors element-wise for bit equality
// (+Inf equals +Inf). It is the policy for SSSP distances, which are
// deterministic path sums.
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

// EpsilonFloats compares two float vectors element-wise within an
// absolute tolerance eps (+Inf matches +Inf). NaN never validates:
// a NaN comparison is false both ways, so without the explicit check a
// broken platform emitting NaN would slip through.
func EpsilonFloats(got, want []float64, eps float64) Result {
	if len(got) != len(want) {
		return fail("output has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) {
			return fail("vertex %d: value NaN", i)
		}
		if math.IsInf(want[i], 1) {
			if !math.IsInf(got[i], 1) {
				return fail("vertex %d: value %v, want +Inf", i, got[i])
			}
			continue
		}
		if math.Abs(got[i]-want[i]) > eps {
			return fail("vertex %d: value %.12g, want %.12g (|Δ| > %g)", i, got[i], want[i], eps)
		}
	}
	return ok()
}

// RankTolerant checks that the descending ordering induced by got is
// consistent with want up to ties within eps: walking got's order, each
// next reference value may exceed its predecessor's by at most eps.
// It accepts any permutation among near-equal values while rejecting
// genuine rank inversions — the tolerant acceptance criterion for
// ranking workloads like PageRank.
func RankTolerant(got, want []float64, eps float64) Result {
	if len(got) != len(want) {
		return fail("output has %d entries, want %d", len(got), len(want))
	}
	idx := make([]int, len(got))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if got[idx[a]] != got[idx[b]] {
			return got[idx[a]] > got[idx[b]]
		}
		return idx[a] < idx[b]
	})
	for k := 0; k+1 < len(idx); k++ {
		hi, lo := idx[k], idx[k+1]
		if want[lo] > want[hi]+eps {
			return fail("rank inversion: vertex %d (ref %.12g) ordered above vertex %d (ref %.12g)",
				hi, want[hi], lo, want[lo])
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
// (labels must be existing vertex IDs) and modularity agreement.
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
	if qGot, qWant := algo.Modularity(g, got), algo.Modularity(g, want); math.Abs(qGot-qWant) > Epsilon {
		return fail("modularity %.9f, want %.9f", qGot, qWant)
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

// CheckPageRank checks a PR output: structural sanity (ranks sum to 1),
// per-vertex epsilon agreement with the reference, and rank-order
// consistency.
func CheckPageRank(g *graph.Graph, got, want algo.PROutput) Result {
	if len(got) != g.NumVertices() {
		return fail("output has %d entries, want %d", len(got), g.NumVertices())
	}
	var sum float64
	for _, r := range got {
		sum += r
	}
	if g.NumVertices() > 0 && math.Abs(sum-1) > 1e-6 {
		return fail("ranks sum to %.9f, want 1", sum)
	}
	if r := EpsilonFloats(got, want, Epsilon); !r.Valid {
		return r
	}
	return RankTolerant(got, want, Epsilon)
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
