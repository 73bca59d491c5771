package algo

import "graphalytics/internal/graph"

// RunStats computes the STATS workload: |V|, |E| and the mean local
// clustering coefficient.
//
// Specification (identical across all platforms): for vertex v let
// N(v) = (out-neighbors ∪ in-neighbors) \ {v} and d = |N(v)|. The LCC of
// v is the number of ordered pairs (u, w) ∈ N(v)², u ≠ w, with an arc
// u→w, divided by d(d−1); vertices with d < 2 have LCC 0. On a
// symmetrized undirected graph this equals the classic undirected LCC.
// MeanLCC averages over every vertex.
func RunStats(g *graph.Graph) StatsOutput {
	return StatsFromLCC(g, RunLCC(g))
}

// StatsFromLCC folds per-vertex coefficients into the STATS output,
// summing in vertex order so every platform that derives STATS from its
// LCC output reports the reference's bits. The graph is never empty:
// every input path refuses one with graph.ErrEmptyGraph.
func StatsFromLCC(g *graph.Graph, lcc LCCOutput) StatsOutput {
	var total float64
	for _, c := range lcc {
		total += c
	}
	n := g.NumVertices()
	return StatsOutput{Vertices: n, Edges: g.NumEdges(), MeanLCC: total / float64(n)}
}

// ClosedPairs is the STATS/LCC arithmetic kernel shared by every
// platform implementation, so numerators are identical everywhere. It
// counts the IDs that a probe list shares with a marked list, against
// a bitset over the vertex IDs: a caller that intersects one list with
// many others marks it once and probes each of the others, in time
// linear in the probe.
//
// Contract:
//   - the marked side is any list of IDs below n; repeats are harmless;
//   - the probe is sorted, so a repeated ID (a parallel arc of a
//     multigraph in an out-adjacency) is adjacent and counts once;
//   - Count returns the number of distinct IDs in both lists, minus one
//     when skip is in both (no self-pairs).
//
// N(·) is always a set, so with out(u) and N(v) on either side this is
// the count a sorted merge of the two lists gives.
// A ClosedPairs is not safe for concurrent use; parallel callers keep
// one per worker. It holds n/8 bytes of bitset plus a copy of the
// marked list.
type ClosedPairs struct {
	bits   []uint64
	marked []graph.VertexID
}

// NewClosedPairs returns a counter for vertex IDs below n.
func NewClosedPairs(n int) *ClosedPairs {
	return &ClosedPairs{bits: make([]uint64, (n+63)/64)}
}

// Mark makes list the marked side, replacing the previous one. It
// copies list, so the caller may reuse its buffer.
func (c *ClosedPairs) Mark(list []graph.VertexID) {
	for _, x := range c.marked {
		c.bits[x>>6] = 0
	}
	c.marked = append(c.marked[:0], list...)
	for _, x := range list {
		c.bits[x>>6] |= 1 << (x & 63)
	}
}

// Count returns the number of distinct IDs of the sorted probe that
// are marked, skip excluded.
func (c *ClosedPairs) Count(probe []graph.VertexID, skip graph.VertexID) int64 {
	var cnt int64
	prev := graph.NoVertex
	for _, x := range probe {
		if x != prev && x != skip {
			cnt += int64(c.bits[x>>6] >> (x & 63) & 1)
		}
		prev = x
	}
	return cnt
}
