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
	pq := &distHeap{{v: source, d: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue // stale entry
		}
		adj := g.OutNeighbors(it.v)
		ws := g.OutWeights(it.v)
		for i, u := range adj {
			nd := it.d + graph.WeightAt(ws, i)
			if nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, distItem{v: u, d: nd})
			}
		}
	}
	return dist
}

// distItem is one (vertex, tentative distance) heap entry.
type distItem struct {
	v graph.VertexID
	d float64
}

// distHeap is a binary min-heap over distance, vertex-ID tie-broken for
// a deterministic pop order.
type distHeap []distItem

func (h distHeap) Len() int { return len(h) }
func (h distHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].v < h[j].v
}
func (h distHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)   { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
