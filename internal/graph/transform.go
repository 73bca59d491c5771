package graph

import "sort"

// Undirect returns an undirected (symmetrized, deduplicated) view of g as
// a new graph, without self loops. If g is already undirected it is
// returned unchanged. The result is unweighted even when g is weighted:
// the arcs u→v and v→u may carry different weights, and no single rule
// for merging them suits every caller.
func Undirect(g *Graph) *Graph {
	if !g.directed {
		return g
	}
	srcs := make([]VertexID, 0, g.NumArcs())
	dsts := make([]VertexID, 0, g.NumArcs())
	g.Arcs(func(u, v VertexID) {
		if u != v {
			srcs = append(srcs, u)
			dsts = append(dsts, v)
		}
	})
	out := FromArcs(g.name, g.n, srcs, dsts, nil, false, 1)
	out.labels = g.labels
	return out
}

// Remap returns a new graph whose vertex v is the old vertex perm[v];
// that is, perm is the new-order listing of old IDs (a permutation).
// External labels follow their vertices, and weights their edges.
// Remapping is used by the access-locality ablation (§2.1 "poor access
// locality").
func Remap(g *Graph, perm []VertexID) *Graph {
	if len(perm) != g.n {
		panic("graph: Remap permutation has wrong length")
	}
	inv := make([]VertexID, g.n) // old -> new
	for newID, oldID := range perm {
		inv[oldID] = VertexID(newID)
	}
	out := rebuild(g, g.n, inv, nil, nil)
	if g.labels != nil {
		labels := make([]int64, g.n)
		for newID, oldID := range perm {
			labels[newID] = g.labels[oldID]
		}
		out.labels = labels
	}
	return out
}

// DegreeOrder returns a permutation that sorts vertices by descending
// out-degree (ties by ID). Used by the locality ablation.
func DegreeOrder(g *Graph) []VertexID {
	perm := make([]VertexID, g.n)
	for i := range perm {
		perm[i] = VertexID(i)
	}
	sort.Slice(perm, func(i, j int) bool {
		di, dj := g.OutDegree(perm[i]), g.OutDegree(perm[j])
		if di != dj {
			return di > dj
		}
		return perm[i] < perm[j]
	})
	return perm
}

// BFSOrder returns a permutation listing vertices in BFS discovery order
// from source (unreached vertices appended in ID order). BFS ordering
// improves cache locality of frontier expansion.
func BFSOrder(g *Graph, source VertexID) []VertexID {
	perm := make([]VertexID, 0, g.n)
	seen := make([]bool, g.n)
	queue := []VertexID{source}
	seen[source] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		perm = append(perm, v)
		for _, u := range g.OutNeighbors(v) {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if !seen[v] {
			perm = append(perm, VertexID(v))
		}
	}
	return perm
}

// RandomOrder returns a deterministic pseudo-random permutation of the
// vertices derived from seed.
func RandomOrder(g *Graph, seed uint64) []VertexID {
	perm := make([]VertexID, g.n)
	for i := range perm {
		perm[i] = VertexID(i)
	}
	// Fisher-Yates with SplitMix64 stream.
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := g.n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// AddVertices returns a copy of g with extra isolated vertices appended
// (used by the EVO forest-fire algorithm to grow the graph).
func AddVertices(g *Graph, extra int) *Graph {
	n := g.n + extra
	out := rebuild(g, n, nil, nil, nil)
	if g.labels != nil {
		labels := make([]int64, n)
		copy(labels, g.labels)
		maxLabel := int64(-1)
		for _, l := range g.labels {
			if l > maxLabel {
				maxLabel = l
			}
		}
		for i := g.n; i < n; i++ {
			maxLabel++
			labels[i] = maxLabel
		}
		out.labels = labels
	}
	return out
}

// WithEdges returns a copy of g with the given extra arcs added (dense
// IDs; targets may reference vertices up to n-1 of g). For undirected
// graphs pass each new edge once. In a weighted g the new edges weigh 1,
// as unweighted adds do in a Builder.
func WithEdges(g *Graph, srcs, dsts []VertexID) *Graph {
	out := rebuild(g, g.n, nil, srcs, dsts)
	out.labels = g.labels
	return out
}

// rebuild returns a graph of n vertices (n >= g's) with g's edges and
// weights, endpoints mapped through to (nil keeps them), plus the extra
// edges at weight 1. It reads each undirected edge once and lets
// FromArcs symmetrize it again, so the result's arrays are those a
// Builder makes of the same edges. Labels are left to the caller.
func rebuild(g *Graph, n int, to []VertexID, extraSrcs, extraDsts []VertexID) *Graph {
	// Room for FromArcs to append the reversed arcs of an undirected g.
	m := int(g.NumArcs()) + 2*len(extraSrcs)
	srcs := make([]VertexID, 0, m)
	dsts := make([]VertexID, 0, m)
	var ws []float64
	if g.Weighted() {
		ws = make([]float64, 0, m)
	}
	g.EdgesW(func(u, v VertexID, w float64) {
		if to != nil {
			u, v = to[u], to[v]
		}
		srcs = append(srcs, u)
		dsts = append(dsts, v)
		if ws != nil {
			ws = append(ws, w)
		}
	})
	srcs = append(srcs, extraSrcs...)
	dsts = append(dsts, extraDsts...)
	if ws != nil {
		for range extraSrcs {
			ws = append(ws, 1)
		}
	}
	return FromArcs(g.name, n, srcs, dsts, ws, g.directed, 1)
}
