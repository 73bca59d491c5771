package graphdb

// The three LDBC Graphalytics workloads (PR, SSSP, LCC) as
// single-threaded traversals over the record store, following the
// idioms of platform.go: every adjacency and property access flows
// through the page cache, so the cache counters keep exposing the
// access-locality choke point on the new workloads too.

import (
	"container/heap"
	"context"
	"math"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// runPageRank: fixed-iteration LDBC PageRank over the store. Out-degrees
// are gathered once through the relationship chains (a full store scan,
// like a Cypher aggregation), then each iteration scatters algo's
// fixed-point rank shares along out-relationships.
func (l *loaded) runPageRank(ctx context.Context, p algo.Params) (algo.PROutput, error) {
	n := l.store.NumNodes()
	d := p.PRDamping
	outdeg := make([]int, n)
	for v := 0; v < n; v++ {
		l.store.Expand(graph.VertexID(v), func(_ graph.VertexID, outgoing bool) {
			if outgoing {
				outdeg[v]++
			}
		})
	}
	ranks := make(algo.PROutput, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	sums := make([]int64, n)
	for iter := 0; iter < p.PRIterations; iter++ {
		if err := platform.CheckContextPhase(ctx, "graphdb/pagerank"); err != nil {
			return nil, err
		}
		clear(sums)
		var dangling int64
		for v := 0; v < n; v++ {
			if v%platform.CheckStride == 0 && v > 0 {
				if err := platform.CheckContextPhase(ctx, "graphdb/pagerank"); err != nil {
					return nil, err
				}
			}
			if outdeg[v] == 0 {
				dangling += algo.PRMass(ranks[v])
				continue
			}
			share := algo.PRShare(d, ranks[v], outdeg[v])
			l.store.Expand(graph.VertexID(v), func(other graph.VertexID, outgoing bool) {
				if outgoing {
					sums[other] += share
				}
			})
		}
		base := algo.PRBase(d, n, dangling)
		for v := range ranks {
			ranks[v] = algo.PRRank(base, sums[v])
		}
	}
	return ranks, nil
}

// runSSSP: Dijkstra over the store, reading each relationship's weight
// property through the page cache.
func (l *loaded) runSSSP(ctx context.Context, p algo.Params) (algo.SSSPOutput, error) {
	n := l.store.NumNodes()
	dist := make(algo.SSSPOutput, n)
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = inf
	}
	if int(p.Source) >= n {
		return dist, nil
	}
	dist[p.Source] = 0
	pq := &algo.DistHeap{{V: p.Source, D: 0}}
	pops := 0
	for pq.Len() > 0 {
		// Counter-based amortization: the old pq.Len()%1024 probe could
		// starve when the heap size oscillated across the boundary.
		if pops%1024 == 0 {
			if err := platform.CheckContextPhase(ctx, "graphdb/sssp"); err != nil {
				return nil, err
			}
		}
		pops++
		it := heap.Pop(pq).(algo.DistItem)
		if it.D > dist[it.V] {
			continue // stale entry
		}
		l.store.ExpandW(it.V, func(other graph.VertexID, w float64, outgoing bool) {
			if !outgoing {
				return
			}
			if nd := it.D + w; nd < dist[other] {
				dist[other] = nd
				heap.Push(pq, algo.DistItem{V: other, D: nd})
			}
		})
	}
	return dist, nil
}

// runLCC: per-vertex neighborhood intersections through the store. It
// serves STATS too, whose mean Run folds with algo.StatsFromLCC.
func (l *loaded) runLCC(ctx context.Context, _ algo.Params) (algo.LCCOutput, error) {
	n := l.store.NumNodes()
	lcc := make(algo.LCCOutput, n)
	var nbh, out []graph.VertexID
	cp := algo.NewClosedPairs(n)
	for v := 0; v < n; v++ {
		if v%platform.CheckStride == 0 {
			if err := platform.CheckContextPhase(ctx, "graphdb/lcc"); err != nil {
				return nil, err
			}
		}
		nbh = l.store.Neighborhood(graph.VertexID(v), nbh[:0])
		d := len(nbh)
		if d < 2 {
			continue
		}
		cp.Mark(nbh)
		var links int64
		for _, u := range nbh {
			out = l.store.OutNeighbors(u, out[:0])
			links += cp.Count(out, u)
		}
		lcc[v] = float64(links) / (float64(d) * float64(d-1))
	}
	return lcc, nil
}
