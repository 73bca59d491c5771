package algo

import (
	"runtime"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
)

// RunLCC computes the LCC workload: the local clustering coefficient of
// every vertex, under the same specification STATS uses for its mean
// (see RunStats): with N(v) = (out ∪ in) \ {v} and d = |N(v)|, LCC(v)
// is the number of ordered pairs (u, w) ∈ N(v)², u ≠ w, with an arc
// u→w, divided by d(d−1); vertices with d < 2 have LCC 0.
//
// Each per-vertex value is an exact int64 triangle count divided by
// d(d−1), so the reference is deterministic and the Output Validator
// compares bit for bit. (The LDBC policy allows an epsilon for LCC, for
// platforms that accumulate the numerator in floating point; every
// engine here counts it as an integer.)
func RunLCC(g *graph.Graph) LCCOutput {
	n := g.NumVertices()
	lcc := make(LCCOutput, n)
	par.Ranges(n, runtime.GOMAXPROCS(0), func(_, lo, hi int) error {
		var nbuf []graph.VertexID
		cp := NewClosedPairs(n)
		for v := lo; v < hi; v++ {
			nbuf = g.Neighborhood(graph.VertexID(v), nbuf[:0])
			lcc[v] = lccOf(g, cp, nbuf)
		}
		return nil
	})
	return lcc
}

// lccOf computes the LCC of a vertex given its sorted neighborhood nbh,
// counting closed pairs with cp.
func lccOf(g *graph.Graph, cp *ClosedPairs, nbh []graph.VertexID) float64 {
	d := len(nbh)
	if d < 2 {
		return 0
	}
	cp.Mark(nbh)
	var links int64
	for _, u := range nbh {
		links += cp.Count(g.OutNeighbors(u), u)
	}
	return float64(links) / (float64(d) * float64(d-1))
}
