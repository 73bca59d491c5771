package algo

import "graphalytics/internal/graph"

// prScale is the fixed-point scale of PageRank mass: a rank r is summed
// as the integer ⌊r·2⁶⁰⌋. Ranks sum to 1, so every sum of shares into
// one vertex, and the dangling mass, is at most about 2⁶⁰: an eighth of
// the int64 range.
const prScale = 0x1p60

// PRMass returns rank as fixed-point mass, the unit of the dangling sum.
func PRMass(rank float64) int64 { return int64(rank * prScale) }

// PRShare returns the fixed-point mass d·rank/outdeg that a vertex of
// out-degree outdeg sends along each of its out-arcs.
func PRShare(d, rank float64, outdeg int) int64 {
	return PRMass(d * rank / float64(outdeg))
}

// PRBase returns the rank every vertex of an n-vertex graph receives
// before its in-shares, (1-d)/n + d·D/n, where dangling is the
// fixed-point mass D held by vertices of out-degree 0.
func PRBase(d float64, n int, dangling int64) float64 {
	inv := 1 / float64(n)
	return (1-d)*inv + d*(float64(dangling)/prScale)*inv
}

// PRRank returns the new rank of a vertex whose in-shares sum to the
// fixed-point mass sum.
func PRRank(base float64, sum int64) float64 { return base + float64(sum)/prScale }

// RunPageRank computes the PR workload under the LDBC Graphalytics
// specification: starting from rank 1/|V|, run exactly PRIterations
// synchronous updates of
//
//	PR(v) = (1-d)/|V| + d·( Σ_{u→v} PR(u)/outdeg(u) + D/|V| )
//
// where d is the damping factor and D the total rank held by dangling
// vertices (outdeg 0) in the previous iteration — the dangling mass is
// redistributed uniformly, so ranks sum to 1.
//
// Ranks are float64, but every sum is an integer sum of fixed-point
// mass (PRShare, PRMass), rebased into a rank by PRBase and PRRank.
// Integer addition is associative, so every engine that calls these
// helpers produces the reference's bits whatever order it sums in, and
// the Output Validator compares ranks exactly. Truncation loses less
// than 2⁻⁶⁰ per share.
func RunPageRank(g *graph.Graph, p Params) PROutput {
	n := g.NumVertices()
	ranks := make(PROutput, n)
	if n == 0 {
		return ranks
	}
	p = p.WithDefaults(n)
	d := p.PRDamping
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	sums := make([]int64, n)
	for iter := 0; iter < p.PRIterations; iter++ {
		clear(sums)
		var dangling int64
		for u := 0; u < n; u++ {
			adj := g.OutNeighbors(graph.VertexID(u))
			if len(adj) == 0 {
				dangling += PRMass(ranks[u])
				continue
			}
			share := PRShare(d, ranks[u], len(adj))
			for _, v := range adj {
				sums[v] += share
			}
		}
		base := PRBase(d, n, dangling)
		for v := range ranks {
			ranks[v] = PRRank(base, sums[v])
		}
	}
	return ranks
}
