package algo

import (
	"runtime"
	"sort"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
	"graphalytics/internal/xrand"
)

// The EVO workload predicts graph evolution with the forest-fire model
// (Leskovec, Kleinberg, Faloutsos, KDD 2005), the model the paper cites.
//
// Deterministic specification (all platforms must follow it exactly):
//
//   - k new vertices n, n+1, ..., n+k−1 are added. All k fires burn
//     simultaneously and independently over the ORIGINAL graph; the new
//     edges materialize only after every fire has finished. (Independent
//     fires are what makes the workload executable as level-synchronous
//     job waves on every platform — one wave per fire level, not per
//     fire.)
//   - New vertex v picks its ambassador among the original vertices,
//     uniformly: a = Mix3(seed, v, 0) mod n.
//   - A fire spreads level-synchronously. Level 0 burns {a}. In each
//     level, every vertex u burning in that level draws
//     x = Geometric(pf) and y = Geometric(pf·rb) from the stream
//     (seed, v, u) — x first, then y — and targets its x smallest-ID
//     out-neighbors and y smallest-ID in-neighbors, regardless of burn
//     state; requests to already-burned vertices are absorbed. The union
//     of targeted unburned vertices burns in the next level; if the burn
//     cap would be exceeded, the smallest-ID candidates burn first until
//     the cap. The fire stops when a level burns nothing new or the cap
//     is hit.
//   - v creates an edge to every vertex its fire burned.
//
// Targeting "regardless of burn state" (rather than skipping burned
// neighbors) is what lets a vertex-centric implementation make its picks
// from local adjacency alone, with burn-state resolution happening at
// the receiver — identical results on every platform.
func RunEvo(g *graph.Graph, p Params) EvoOutput {
	p = p.WithDefaults(g.NumVertices())
	n := g.NumVertices()
	k := p.EvoNewVertices

	out := EvoOutput{NewVertices: k}
	type fireResult struct {
		newV    graph.VertexID
		targets []graph.VertexID
	}
	results := make([]fireResult, k)

	par.Ranges(k, runtime.GOMAXPROCS(0), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			newV := graph.VertexID(n + i)
			results[i] = fireResult{newV: newV, targets: BurnFire(g, newV, p)}
		}
		return nil
	})

	for _, r := range results {
		for _, w := range r.targets {
			out.Edges = append(out.Edges, [2]graph.VertexID{r.newV, w})
		}
	}
	sortEdges(out.Edges)
	return out
}

// BurnFire runs the forest fire of new vertex newV over g and returns
// the burned vertices in ascending ID order. It is exported so platform
// tests can compare level-by-level burning against the reference.
func BurnFire(g *graph.Graph, newV graph.VertexID, p Params) []graph.VertexID {
	n := g.NumVertices()
	a := graph.VertexID(xrand.Mix3(p.Seed, uint64(newV), 0) % uint64(n))

	burned := map[graph.VertexID]bool{a: true}
	level := []graph.VertexID{a}
	for len(level) > 0 && len(burned) < p.EvoMaxBurn {
		next := FireLevel(g, newV, level, burned, p)
		if room := p.EvoMaxBurn - len(burned); len(next) > room {
			next = next[:room]
		}
		for _, w := range next {
			burned[w] = true
		}
		level = next
	}
	targets := make([]graph.VertexID, 0, len(burned))
	for w := range burned {
		targets = append(targets, w)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return targets
}

// FireLevel computes one fire level: the sorted, deduplicated set of
// unburned vertices targeted by the burning vertices. Platforms reuse it
// per-vertex (pass a single burning vertex) or whole-level; the rule is
// identical either way.
func FireLevel(g *graph.Graph, newV graph.VertexID, level []graph.VertexID, burned map[graph.VertexID]bool, p Params) []graph.VertexID {
	inNext := make(map[graph.VertexID]bool)
	next := make([]graph.VertexID, 0)
	for _, u := range level {
		for _, w := range FirePicks(g, newV, u, p) {
			if burned[w] || inNext[w] {
				continue
			}
			inNext[w] = true
			next = append(next, w)
		}
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	return next
}

// FirePicks returns the neighbors vertex u targets when burning in the
// fire of newV: its x smallest out-neighbors and y smallest in-neighbors
// with x = Geometric(pf), y = Geometric(pf·rb) drawn from the stream
// (seed, newV, u). Burn-state filtering happens at the caller.
func FirePicks(g *graph.Graph, newV, u graph.VertexID, p Params) []graph.VertexID {
	outN := g.OutNeighbors(u)
	inN := outN
	if g.Directed() && g.HasReverse() {
		inN = g.InNeighbors(u)
	}
	return FirePicksFromLists(newV, u, outN, inN, p)
}

// FirePicksFromLists is FirePicks for callers that carry adjacency in
// records instead of a Graph (the MapReduce and column-store paths).
// outN and inN must be sorted ascending.
func FirePicksFromLists(newV, u graph.VertexID, outN, inN []graph.VertexID, p Params) []graph.VertexID {
	rng := xrand.New(p.Seed, uint64(newV), uint64(u))
	x := rng.Geometric(p.EvoPForward)
	y := rng.Geometric(p.EvoPForward * p.EvoRBackward)
	if x > len(outN) {
		x = len(outN)
	}
	picks := make([]graph.VertexID, 0, x+y)
	picks = append(picks, outN[:x]...)
	if y > len(inN) {
		y = len(inN)
	}
	picks = append(picks, inN[:y]...)
	return picks
}

// ApplyEvo returns the evolved graph: g plus the new vertices and edges.
func ApplyEvo(g *graph.Graph, out EvoOutput) *graph.Graph {
	grown := graph.AddVertices(g, out.NewVertices)
	srcs := make([]graph.VertexID, len(out.Edges))
	dsts := make([]graph.VertexID, len(out.Edges))
	for i, e := range out.Edges {
		srcs[i], dsts[i] = e[0], e[1]
	}
	return graph.WithEdges(grown, srcs, dsts)
}

func sortEdges(edges [][2]graph.VertexID) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
}
