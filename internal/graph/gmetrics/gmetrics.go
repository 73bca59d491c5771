// Package gmetrics computes the structural graph characteristics reported
// in Table 1 of the Graphalytics paper: vertex/edge counts, global
// clustering coefficient (transitivity), average local clustering
// coefficient, and degree assortativity, plus degree histograms used by
// the degree-distribution fitting experiment (§2.2).
//
// All metrics are defined on the undirected simple view of the graph,
// matching how the paper characterizes the SNAP datasets.
package gmetrics

import (
	"math"
	"runtime"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
)

// Characteristics mirrors one row of Table 1.
type Characteristics struct {
	Name          string  // dataset name
	Vertices      int     // |V|
	Edges         int64   // |E| (undirected)
	GlobalCC      float64 // transitivity: 3*triangles / wedges
	AvgCC         float64 // mean local clustering coefficient
	Assortativity float64 // degree Pearson correlation over edges
}

// Measure computes all Table 1 characteristics of g. Directed graphs are
// measured on their undirected simple view.
func Measure(g *graph.Graph) Characteristics {
	u := graph.Undirect(g)
	tri := TriangleCounts(u)
	var triangles, wedges float64
	var sumLCC float64
	for v := 0; v < u.NumVertices(); v++ {
		d := float64(u.OutDegree(graph.VertexID(v)))
		t := float64(tri[v])
		triangles += t
		w := d * (d - 1) / 2
		wedges += w
		if w > 0 {
			sumLCC += t / w
		}
	}
	triangles /= 3 // each triangle counted at all three corners
	c := Characteristics{
		Name:          g.Name(),
		Vertices:      u.NumVertices(),
		Edges:         u.NumEdges(),
		Assortativity: Assortativity(u),
	}
	if wedges > 0 {
		c.GlobalCC = 3 * triangles / wedges
	}
	if u.NumVertices() > 0 {
		c.AvgCC = sumLCC / float64(u.NumVertices())
	}
	return c
}

// TriangleCounts returns, for each vertex of an undirected graph, the
// number of triangles it participates in. Computed in parallel with
// sorted-adjacency intersection.
func TriangleCounts(g *graph.Graph) []int64 {
	n := g.NumVertices()
	counts := make([]int64, n)
	par.Ranges(n, runtime.GOMAXPROCS(0), func(_, lo, hi int) error {
		for v := lo; v < hi; v++ {
			adj := g.OutNeighbors(graph.VertexID(v))
			var t int64
			for _, u := range adj {
				if u == graph.VertexID(v) {
					continue
				}
				t += intersectCount(adj, g.OutNeighbors(u), graph.VertexID(v), u)
			}
			counts[v] = t / 2 // each triangle at v found via both other corners
		}
		return nil
	})
	return counts
}

// intersectCount counts common elements of two sorted lists, skipping the
// vertices a and b themselves (excludes self-loops from triangles).
func intersectCount(x, y []graph.VertexID, a, b graph.VertexID) int64 {
	var c int64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			if x[i] != a && x[i] != b {
				c++
			}
			i++
			j++
		}
	}
	return c
}

// GlobalCC returns the transitivity (3×triangles/wedges) of the
// undirected view of g.
func GlobalCC(g *graph.Graph) float64 { return Measure(g).GlobalCC }

// Assortativity returns the degree assortativity coefficient: the
// Pearson correlation of the degrees at the two endpoints of each edge
// (both orientations), on an undirected graph. Returns 0 for degenerate
// graphs (no edges or zero degree variance).
func Assortativity(g *graph.Graph) float64 {
	u := graph.Undirect(g)
	var m float64
	var sumX, sumY, sumXY, sumX2, sumY2 float64
	u.Arcs(func(a, b graph.VertexID) {
		dx := float64(u.OutDegree(a))
		dy := float64(u.OutDegree(b))
		sumX += dx
		sumY += dy
		sumXY += dx * dy
		sumX2 += dx * dx
		sumY2 += dy * dy
		m++
	})
	if m == 0 {
		return 0
	}
	num := sumXY/m - (sumX/m)*(sumY/m)
	den := math.Sqrt(sumX2/m-(sumX/m)*(sumX/m)) * math.Sqrt(sumY2/m-(sumY/m)*(sumY/m))
	if den == 0 {
		return 0
	}
	return num / den
}

// DegreeHistogram returns a map degree -> number of vertices with that
// degree (out-degree of the undirected view; isolated vertices counted at
// degree 0).
func DegreeHistogram(g *graph.Graph) map[int]int64 {
	u := graph.Undirect(g)
	h := make(map[int]int64)
	for v := 0; v < u.NumVertices(); v++ {
		h[u.OutDegree(graph.VertexID(v))]++
	}
	return h
}

// Degrees returns the degree of every vertex of the undirected view.
func Degrees(g *graph.Graph) []int {
	u := graph.Undirect(g)
	d := make([]int, u.NumVertices())
	for v := range d {
		d[v] = u.OutDegree(graph.VertexID(v))
	}
	return d
}
