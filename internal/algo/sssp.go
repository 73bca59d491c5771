package algo

import (
	"container/heap"
	"math"

	"graphalytics/internal/graph"
)

// RunSSSP computes the SSSP workload: the shortest-path distance of
// every vertex from the source along out-edges, using the graph's
// float64 edge weights (unit weights when the graph is unweighted).
// Unreachable vertices get +Inf.
//
// The reference is Dijkstra's algorithm with a binary heap. Because a
// distance is the float64 sum of the weights along its shortest path,
// evaluated in path order, and the min-plus fixpoint is unique, every
// correct platform implementation (label-correcting BSP, iterated
// MapReduce relaxation, dataflow joins, store traversal) converges to
// bit-identical distances — so the Output Validator checks SSSP exactly.
// Weights must be non-negative (the loader enforces this).
func RunSSSP(g *graph.Graph, source graph.VertexID) SSSPOutput {
	n := g.NumVertices()
	dist := make(SSSPOutput, n)
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = inf
	}
	if int(source) >= n {
		return dist
	}
	dist[source] = 0
	pq := &DistHeap{{V: source, D: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(DistItem)
		if it.D > dist[it.V] {
			continue // stale entry
		}
		adj := g.OutNeighbors(it.V)
		ws := g.OutWeights(it.V)
		for i, u := range adj {
			nd := it.D + graph.WeightAt(ws, i)
			if nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, DistItem{V: u, D: nd})
			}
		}
	}
	return dist
}

// DistItem is one (vertex, tentative distance) entry of a Dijkstra
// frontier.
type DistItem struct {
	V graph.VertexID
	D float64
}

// DistHeap is a Dijkstra frontier for container/heap: a binary min-heap
// over distance, vertex-ID tie-broken for a deterministic pop order.
// The reference and the graph database's store traversal share it.
type DistHeap []DistItem

func (h DistHeap) Len() int { return len(h) }
func (h DistHeap) Less(i, j int) bool {
	if h[i].D != h[j].D {
		return h[i].D < h[j].D
	}
	return h[i].V < h[j].V
}
func (h DistHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *DistHeap) Push(x any)   { *h = append(*h, x.(DistItem)) }
func (h *DistHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
