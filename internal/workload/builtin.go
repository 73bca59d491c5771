package workload

import (
	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/validation"
)

// The built-in workload suite: the source paper's five algorithms in
// its reporting order, then the three LDBC Graphalytics v1.0.1
// additions. Registration order is the report row order.
//
// Aliases follow the LDBC naming: WCC for CONN, CDLP for CD, PAGERANK
// for PR.
func init() {
	Register(Spec{
		Kind:        algo.BFS,
		Description: "breadth-first search depths from a seed vertex",
		Policy:      PolicyExact,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunBFS(g, p.Source)
		},
		Check: check(validation.CheckBFS),
	})
	Register(Spec{
		Kind:         algo.CD,
		Aliases:      []string{"CDLP"},
		Description:  "community detection by Leung label propagation",
		Policy:       PolicyExact,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunCD(g, p)
		},
		Check: check(validation.CheckCD),
	})
	Register(Spec{
		Kind:         algo.CONN,
		Aliases:      []string{"WCC"},
		Description:  "connected components (weak, labels = component minima)",
		Policy:       PolicyExact,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunConn(g)
		},
		Check: check(validation.CheckConn),
	})
	Register(Spec{
		Kind:         algo.EVO,
		Description:  "forest-fire graph evolution prediction",
		Policy:       PolicyExact,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunEvo(g, p)
		},
		Check: check(validation.CheckEvo),
	})
	Register(Spec{
		Kind:         algo.STATS,
		Description:  "vertex/edge counts and mean local clustering coefficient",
		Policy:       PolicyExact,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunStats(g)
		},
		Check: check(validation.CheckStats),
	})
	Register(Spec{
		Kind:        algo.PR,
		Aliases:     []string{"PAGERANK"},
		Description: "PageRank, damping 0.85, fixed iteration count",
		Policy:      PolicyExact,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunPageRank(g, p)
		},
		Check: check(validation.CheckPageRank),
	})
	Register(Spec{
		Kind:         algo.SSSP,
		Description:  "single-source shortest paths over float64 edge weights",
		Policy:       PolicyExact,
		NeedsWeights: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunSSSP(g, p.Source)
		},
		Check: check(validation.CheckSSSP),
	})
	Register(Spec{
		Kind:         algo.LCC,
		Description:  "per-vertex local clustering coefficient",
		Policy:       PolicyExact,
		NeedsReverse: true,
		Reference: func(g *graph.Graph, p algo.Params) any {
			return algo.RunLCC(g)
		},
		Check: check(validation.CheckLCC),
	})
}

// check adapts a typed comparison to Spec.Check. It asserts both the
// platform output and the reference output to T before comparing, so a
// platform returning the wrong type is an invalid result, not a panic.
func check[T any](fn func(g *graph.Graph, got, want T) validation.Result) func(*graph.Graph, algo.Params, any, any) validation.Result {
	return func(g *graph.Graph, _ algo.Params, output, want any) validation.Result {
		got, okT := output.(T)
		if !okT {
			return validation.Fail("output has type %T, want %T", output, got)
		}
		ref, okT := want.(T)
		if !okT {
			return validation.Fail("reference output has type %T, want %T", want, ref)
		}
		return fn(g, got, ref)
	}
}
