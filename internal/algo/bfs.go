package algo

import "graphalytics/internal/graph"

// RunBFS computes the BFS workload: the depth of every vertex from
// source following out-edges, level-synchronously. Unreachable vertices
// get depth −1. This is the reference implementation; it matches the
// Graph500-style definition the paper inherits.
func RunBFS(g *graph.Graph, source graph.VertexID) BFSOutput {
	n := g.NumVertices()
	depth := make(BFSOutput, n)
	for i := range depth {
		depth[i] = -1
	}
	if int(source) >= n {
		return depth
	}
	depth[source] = 0
	frontier := []graph.VertexID{source}
	next := make([]graph.VertexID, 0, 64)
	for level := int64(1); len(frontier) > 0; level++ {
		next = next[:0]
		for _, v := range frontier {
			for _, u := range g.OutNeighbors(v) {
				if depth[u] == -1 {
					depth[u] = level
					next = append(next, u)
				}
			}
		}
		frontier, next = next, frontier
	}
	return depth
}
