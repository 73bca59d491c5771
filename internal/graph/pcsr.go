package graph

import (
	"runtime"
	"sort"

	"graphalytics/internal/par"
	"graphalytics/internal/telemetry"
)

// Parallel CSR construction: the multi-worker counterpart of buildCSRW.
//
// The pipeline is the textbook parallel counting sort, kept bit-exact
// with the sequential builder:
//
//  1. the arc array is split into one contiguous chunk per worker and
//     each worker builds a private degree histogram;
//  2. the histograms are merged into the global prefix-sum index, and
//     in the same pass each worker's histogram is turned into its
//     exclusive within-vertex offset, giving every (worker, vertex)
//     pair a disjoint scatter region;
//  3. workers scatter their chunk's arcs (and weights) into the shared
//     edge array without synchronization — regions never overlap;
//  4. vertices are partitioned into arc-balanced ranges and each range
//     worker sorts its adjacency lists by (target, weight), exactly the
//     sequential comparator;
//  5. with dedup, each range worker compacts duplicates in place and a
//     final parallel pass copies the surviving prefix of every vertex
//     into freshly sized arrays.
//
// Scatter order differs from the sequential builder, but the per-vertex
// sort normalizes it (equal keys are identical values), and dedup keeps
// the first entry of each equal-target run — the smallest weight, same
// as the sequential path — so index/edges/weights come out byte-identical.

// parallelArcThreshold is the arc count below which buildCSRWP falls
// back to the sequential builder: fan-out overhead dominates under it.
// A var so tests can force the parallel path onto tiny graphs.
var parallelArcThreshold = 1 << 15

// buildWorkers resolves a worker-count option: <= 0 means GOMAXPROCS.
func buildWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// buildCSRWP is buildCSRW executed by a worker pool. workers <= 0 uses
// GOMAXPROCS; workers == 1, tiny inputs, and inputs too large for the
// int32 scatter offsets take the sequential path unchanged.
func buildCSRWP(n int, srcs, dsts []VertexID, ws []float64, dedup bool, workers int) ([]int64, []VertexID, []float64) {
	workers = buildWorkers(workers)
	if m := len(srcs); workers > m/(parallelArcThreshold/4+1) {
		workers = m / (parallelArcThreshold/4 + 1)
	}
	if workers <= 1 || n == 0 || len(srcs) < parallelArcThreshold || int64(len(srcs)) >= 1<<31 {
		return buildCSRW(n, srcs, dsts, ws, dedup)
	}
	m := len(srcs)

	hsp := telemetry.StartSpan("ingest", "csr-histogram")
	hsp.SetAttr("arcs", m)
	hsp.SetAttr("workers", workers)
	// 1. Per-worker degree histograms over contiguous arc chunks.
	// int32 is enough: a within-vertex offset is bounded by the arc
	// count, which the gate above keeps under 1<<31.
	counts := make([][]int32, workers)
	for w := range counts {
		counts[w] = make([]int32, n)
	}
	par.Ranges(m, workers, func(w, lo, hi int) error {
		hist := counts[w]
		for _, s := range srcs[lo:hi] {
			hist[s]++
		}
		return nil
	})

	// 2. Merge histograms into the prefix-sum index, then rewrite each
	// histogram into the worker's exclusive within-vertex offset.
	index := make([]int64, n+1)
	par.Ranges(n, workers, func(_, lo, hi int) error {
		for v := lo; v < hi; v++ {
			var t int64
			for w := 0; w < workers; w++ {
				t += int64(counts[w][v])
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
			var run int32
			for w := 0; w < workers; w++ {
				c := counts[w][v]
				counts[w][v] = run
				run += c
			}
		}
		return nil
	})

	hsp.End()

	// 3. Parallel scatter: worker w owns [index[v]+off, …) per vertex.
	ssp := telemetry.StartSpan("ingest", "csr-scatter")
	edges := make([]VertexID, m)
	var weights []float64
	if ws != nil {
		weights = make([]float64, m)
	}
	par.Ranges(m, workers, func(w, lo, hi int) error {
		off, wsPart := counts[w], wsSlice(ws, lo, hi)
		for i, s := range srcs[lo:hi] {
			at := index[s] + int64(off[s])
			off[s]++
			edges[at] = dsts[lo+i]
			if weights != nil {
				weights[at] = wsPart[i]
			}
		}
		return nil
	})
	ssp.End()

	// 4. Per-vertex adjacency sort over arc-balanced vertex ranges.
	sosp := telemetry.StartSpan("ingest", "csr-sort")
	ranges := balancedVertexRanges(index, n, workers)
	par.Do(len(ranges), func(r int) error {
		for v := ranges[r][0]; v < ranges[r][1]; v++ {
			s, e := index[v], index[v+1]
			adj := edges[s:e]
			if weights == nil {
				sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
				continue
			}
			sort.Sort(&edgeWeightSort{adj: adj, ws: weights[s:e]})
		}
		return nil
	})
	sosp.End()
	if !dedup {
		return index, edges, weights
	}

	dsp := telemetry.StartSpan("ingest", "csr-dedup")
	defer dsp.End()
	// 5. Parallel dedup: compact each adjacency in place recording the
	// surviving degree, prefix-sum the new index, then copy survivors
	// into exactly sized arrays. (In-place global compaction would let
	// one range's writes overrun its neighbor's reads.)
	newDeg := make([]int32, n)
	par.Do(len(ranges), func(r int) error {
		for v := ranges[r][0]; v < ranges[r][1]; v++ {
			s, e := index[v], index[v+1]
			k := s
			var last VertexID
			first := true
			for i := s; i < e; i++ {
				u := edges[i]
				if first || u != last {
					edges[k] = u
					if weights != nil {
						weights[k] = weights[i]
					}
					k++
					last = u
					first = false
				}
			}
			newDeg[v] = int32(k - s)
		}
		return nil
	})
	newIndex := make([]int64, n+1)
	for v := 0; v < n; v++ {
		newIndex[v+1] = newIndex[v] + int64(newDeg[v])
	}
	kept := newIndex[n]
	outEdges := make([]VertexID, kept)
	var outWeights []float64
	if weights != nil {
		outWeights = make([]float64, kept)
	}
	par.Do(len(ranges), func(r int) error {
		for v := ranges[r][0]; v < ranges[r][1]; v++ {
			s, d, deg := index[v], newIndex[v], int64(newDeg[v])
			copy(outEdges[d:d+deg], edges[s:s+deg])
			if weights != nil {
				copy(outWeights[d:d+deg], weights[s:s+deg])
			}
		}
		return nil
	})
	return newIndex, outEdges, outWeights
}

// wsSlice slices a possibly-nil weight array.
func wsSlice(ws []float64, lo, hi int) []float64 {
	if ws == nil {
		return nil
	}
	return ws[lo:hi]
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
