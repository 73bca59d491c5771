package graph

import (
	"runtime"
	"slices"
	"sort"

	"graphalytics/internal/par"
	"graphalytics/internal/telemetry"
)

// CSR construction: the one builder behind Builder.Build, FromArcs, the
// text loader and the reverse rebuild of a GALB read, at every worker
// count. It is the textbook parallel counting sort:
//
//  1. the arc array is split into one contiguous chunk per worker and
//     each worker builds a private degree histogram;
//  2. the histograms are merged into the prefix-sum index, and each
//     worker's histogram becomes its first scatter position per vertex,
//     giving every (worker, vertex) pair a disjoint region;
//  3. workers scatter their chunk's arcs (and weights) into the shared
//     edge array without synchronization — regions never overlap;
//  4. vertices are partitioned into arc-balanced ranges and each range
//     worker sorts its adjacency lists by (target, weight) and, with
//     dedup, compacts each list in place to the first entry of every
//     target, which is its smallest weight;
//  5. with dedup, one ascending pass moves each vertex's survivors down
//     to the vertex's new start. A move never overwrites a run not yet
//     read, because a vertex's new start is at most its old one.
//
// Chunks are contiguous and their regions follow chunk order, so every
// adjacency list holds its arcs in input order before the sort, whatever
// the worker count: index, edges and weights come out byte-identical for
// any worker count.
//
// Counts and positions are int64, so a build of 2³¹ arcs or more (or a
// vertex of that degree) runs the same code without overflow; the price
// is 8 instead of 4 bytes per vertex and worker in the histograms.

// arcsPerWorker is the fewest arcs a CSR build gives each worker: below
// it, starting a worker costs more than its share of the work saves.
const arcsPerWorker = 1 << 13

// buildWorkers resolves a worker-count option: <= 0 means GOMAXPROCS.
func buildWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// csrWorkers is the worker count of a build of arcs arcs under the
// worker-count option workers: at most one worker per arcsPerWorker
// arcs, and at least one.
func csrWorkers(workers, arcs int) int {
	return max(1, min(buildWorkers(workers), arcs/arcsPerWorker))
}

// buildCSR builds a CSR (index, edges, weights) triple from parallel
// src/dst/weight arrays with exactly workers (>= 1) workers; callers size
// it with csrWorkers. A nil ws builds an unweighted CSR (nil weights
// returned). Each adjacency list is sorted by (target, weight); with
// dedup, duplicate arcs keep the smallest weight. The inputs are only
// read.
func buildCSR(n int, srcs, dsts []VertexID, ws []float64, dedup bool, workers int) ([]int64, []VertexID, []float64) {
	m := len(srcs)
	hsp := telemetry.StartSpan("ingest", "csr-histogram")
	hsp.SetAttr("arcs", m)
	hsp.SetAttr("workers", workers)
	// 1. Per-worker degree histograms over contiguous arc chunks.
	next := make([][]int64, workers)
	for w := range next {
		next[w] = make([]int64, n)
	}
	par.Ranges(m, workers, func(w, lo, hi int) error {
		hist := next[w]
		for _, s := range srcs[lo:hi] {
			hist[s]++
		}
		return nil
	})

	// 2. Merge histograms into the prefix-sum index, then rewrite each
	// histogram into the worker's first scatter position per vertex.
	index := make([]int64, n+1)
	par.Ranges(n, workers, func(_, lo, hi int) error {
		for v := lo; v < hi; v++ {
			var t int64
			for w := range next {
				t += next[w][v]
			}
			index[v+1] = t
		}
		return nil
	})
	for v := 0; v < n; v++ {
		index[v+1] += index[v]
	}
	par.Ranges(n, workers, func(_, lo, hi int) error {
		for v := lo; v < hi; v++ {
			at := index[v]
			for w := range next {
				c := next[w][v]
				next[w][v] = at
				at += c
			}
		}
		return nil
	})
	hsp.End()

	// 3. Parallel scatter: worker w owns [next[w][v], …) per vertex.
	ssp := telemetry.StartSpan("ingest", "csr-scatter")
	edges := make([]VertexID, m)
	var weights []float64
	if ws != nil {
		weights = make([]float64, m)
	}
	par.Ranges(m, workers, func(w, lo, hi int) error {
		at := next[w]
		for i := lo; i < hi; i++ {
			p := at[srcs[i]]
			at[srcs[i]] = p + 1
			edges[p] = dsts[i]
			if weights != nil {
				weights[p] = ws[i]
			}
		}
		return nil
	})
	ssp.End()

	// 4. Per-vertex sort, and in-place compaction with dedup, over
	// arc-balanced vertex ranges. The histograms are dead after the
	// scatter; the first one holds each vertex's surviving degree.
	sosp := telemetry.StartSpan("ingest", "csr-sort")
	kept := next[0]
	ranges := balancedVertexRanges(index, n, workers)
	par.Do(len(ranges), func(r int) error {
		var byWeight edgeWeightSort
		for v := ranges[r][0]; v < ranges[r][1]; v++ {
			s, e := index[v], index[v+1]
			if weights == nil {
				slices.Sort(edges[s:e])
			} else {
				byWeight.adj, byWeight.ws = edges[s:e], weights[s:e]
				sort.Sort(&byWeight)
			}
			if !dedup {
				continue
			}
			k := s
			for i := s; i < e; i++ {
				if i == s || edges[i] != edges[k-1] {
					edges[k] = edges[i]
					if weights != nil {
						weights[k] = weights[i]
					}
					k++
				}
			}
			kept[v] = k - s
		}
		return nil
	})
	sosp.End()
	if !dedup {
		return index, edges, weights
	}

	// 5. Move each vertex's survivors down to its new start.
	dsp := telemetry.StartSpan("ingest", "csr-dedup")
	defer dsp.End()
	var at int64
	for v := 0; v < n; v++ {
		s, k := index[v], kept[v]
		if at != s {
			copy(edges[at:at+k], edges[s:s+k])
			if weights != nil {
				copy(weights[at:at+k], weights[s:s+k])
			}
		}
		index[v] = at
		at += k
	}
	index[n] = at
	if weights != nil {
		weights = weights[:at:at]
	}
	return index, edges[:at:at], weights
}

// edgeWeightSort sorts an adjacency slice and its parallel weights by
// (target, weight).
type edgeWeightSort struct {
	adj []VertexID
	ws  []float64
}

func (s *edgeWeightSort) Len() int { return len(s.adj) }
func (s *edgeWeightSort) Less(i, j int) bool {
	if s.adj[i] != s.adj[j] {
		return s.adj[i] < s.adj[j]
	}
	return s.ws[i] < s.ws[j]
}
func (s *edgeWeightSort) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}

// balancedVertexRanges partitions [0, n) into up to parts contiguous
// ranges of roughly equal arc mass (by the CSR index), so adjacency
// sort/dedup work divides evenly even on skewed degree distributions.
func balancedVertexRanges(index []int64, n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	out := make([][2]int, 0, parts)
	start := 0
	for p := 1; p <= parts && start < n; p++ {
		end := n
		if p < parts {
			target := index[n] * int64(p) / int64(parts)
			end = sort.Search(n, func(v int) bool { return index[v] >= target })
		}
		if end <= start {
			continue
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out
}
