// Package rewire implements the graph post-processing step the paper
// plans for Datagen (§2.2): "extend the current windowed based edge
// generation process ... to allow the generation of graphs with a target
// average clustering coefficient, but also to decide whether the
// assortativity is positive or negative, while preserving the degree
// distribution ... a post processing step where the graph is iteratively
// rewired until the desired values are achieved, in a hill climbing
// fashion" (cf. Herrera & Zufiria 2011; Volz 2004).
//
// The rewirer performs degree-preserving double-edge swaps
// (a,b),(c,d) → (a,d),(c,b) and accepts a swap when it reduces the
// objective |avgCC − target| (+ an assortativity penalty). Because swaps
// preserve every vertex degree, the LCC denominators and the
// assortativity moments are constant; only per-vertex triangle counts
// (O(degree) local updates) and the Σ deg(u)·deg(v) edge term (O(1))
// change, which makes hill climbing cheap.
package rewire

import (
	"errors"
	"math"
	"sort"

	"graphalytics/internal/graph"
	"graphalytics/internal/xrand"
)

// Target describes the desired structural characteristics.
type Target struct {
	// AvgCC is the desired average local clustering coefficient.
	// Set to a negative value to leave clustering unconstrained.
	AvgCC float64
	// AvgCCTolerance stops the search when |avgCC - AvgCC| falls below
	// it (default 0.005).
	AvgCCTolerance float64
	// Assortativity selects the desired sign: >0 drives positive
	// assortativity, <0 negative, 0 unconstrained. The magnitude sets
	// the target value.
	Assortativity float64
	// MaxSwaps bounds the number of attempted swaps (default 50×edges).
	MaxSwaps int
	// Seed drives candidate selection.
	Seed uint64
}

// Result reports the outcome of a rewiring run.
type Result struct {
	Graph          *graph.Graph
	SwapsAttempted int
	SwapsAccepted  int
	AvgCC          float64
	Assortativity  float64
	Converged      bool
}

// ErrNotUndirected is returned when the input graph is directed.
var ErrNotUndirected = errors.New("rewire: input graph must be undirected")

// Rewire hill-climbs g (undirected) toward the target and returns the
// rewired graph. The input graph is not modified.
func Rewire(g *graph.Graph, target Target) (Result, error) {
	if g.Directed() {
		return Result{}, ErrNotUndirected
	}
	if target.AvgCCTolerance <= 0 {
		target.AvgCCTolerance = 0.005
	}
	st := newState(g, target.Seed)
	if target.MaxSwaps <= 0 {
		target.MaxSwaps = 50 * len(st.edges)
	}

	res := Result{}
	for res.SwapsAttempted = 0; res.SwapsAttempted < target.MaxSwaps; res.SwapsAttempted++ {
		if st.objective(target) <= st.tolerance(target) {
			res.Converged = true
			break
		}
		if st.trySwap(target) {
			res.SwapsAccepted++
		}
	}
	res.Graph = st.build(g)
	res.AvgCC = st.avgCC()
	res.Assortativity = st.assortativity()
	if st.objective(target) <= st.tolerance(target) {
		res.Converged = true
	}
	return res, nil
}

// state holds the mutable adjacency and the incrementally maintained
// statistics during rewiring.
type state struct {
	n      int
	adj    []map[graph.VertexID]struct{}
	edges  [][2]graph.VertexID // one entry per undirected edge
	eindex map[[2]graph.VertexID]int
	deg    []int   // constant throughout
	tri    []int64 // triangles per vertex
	rng    *xrand.Rand

	// Assortativity moments over arcs (2 per edge). Only sumXY changes.
	sumXY   float64
	sumX    float64
	sumX2   float64
	arcs    float64
	ccDenom []float64 // 1 / (d(d-1)/2) per vertex, 0 if d < 2
	sumLCC  float64
}

func newState(g *graph.Graph, seed uint64) *state {
	n := g.NumVertices()
	st := &state{
		n:   n,
		adj: make([]map[graph.VertexID]struct{}, n),
		deg: make([]int, n),
		tri: make([]int64, n),
		rng: xrand.New(seed, 0x5e1f),
	}
	for v := 0; v < n; v++ {
		st.adj[v] = make(map[graph.VertexID]struct{})
	}
	st.eindex = make(map[[2]graph.VertexID]int)
	g.Edges(func(u, v graph.VertexID) {
		if u == v {
			return
		}
		if _, dup := st.adj[u][v]; dup {
			return
		}
		st.adj[u][v] = struct{}{}
		st.adj[v][u] = struct{}{}
		st.eindex[canonEdge(u, v)] = len(st.edges)
		st.edges = append(st.edges, [2]graph.VertexID{u, v})
	})
	for v := 0; v < n; v++ {
		st.deg[v] = len(st.adj[v])
	}
	// Triangle counts.
	for _, e := range st.edges {
		u, v := e[0], e[1]
		c := st.commonNeighbors(u, v)
		// Each common neighbor w closes one triangle (u,v,w): credit all
		// three corners once per edge; dividing by edge multiplicity is
		// handled by crediting only via the (u,v) edge here — each
		// triangle has 3 edges, so each corner is credited 3 times in
		// total across its triangle's edges. Normalize afterwards.
		st.tri[u] += int64(c)
		st.tri[v] += int64(c)
		for _, w := range st.commonList(u, v) {
			st.tri[w]++
		}
	}
	// Each triangle was counted once per its 3 edges at every corner it
	// touches: corner u of triangle (u,v,w) is credited by edges (u,v),
	// (u,w) [as endpoint] and (v,w) [as common neighbor] = 3 times.
	for v := range st.tri {
		st.tri[v] /= 3
	}

	st.ccDenom = make([]float64, n)
	for v := 0; v < n; v++ {
		d := float64(st.deg[v])
		if d >= 2 {
			st.ccDenom[v] = 2 / (d * (d - 1))
		}
		st.sumLCC += float64(st.tri[v]) * st.ccDenom[v]
	}
	for _, e := range st.edges {
		dx, dy := float64(st.deg[e[0]]), float64(st.deg[e[1]])
		st.sumXY += 2 * dx * dy
		st.sumX += dx + dy
		st.sumX2 += dx*dx + dy*dy
		st.arcs += 2
	}
	return st
}

func (st *state) commonNeighbors(u, v graph.VertexID) int {
	a, b := st.adj[u], st.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	c := 0
	for w := range a {
		if w == u || w == v {
			continue
		}
		if _, ok := b[w]; ok {
			c++
		}
	}
	return c
}

// commonList returns the common neighbors of u and v in ascending order.
// Sorting matters: the callers accumulate floating-point sums per
// element, and map iteration order would otherwise make rounding — and
// therefore hill-climbing accept decisions — nondeterministic.
func (st *state) commonList(u, v graph.VertexID) []graph.VertexID {
	a, b := st.adj[u], st.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	var out []graph.VertexID
	for w := range a {
		if w == u || w == v {
			continue
		}
		if _, ok := b[w]; ok {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (st *state) avgCC() float64 {
	if st.n == 0 {
		return 0
	}
	return st.sumLCC / float64(st.n)
}

func (st *state) assortativity() float64 {
	if st.arcs == 0 {
		return 0
	}
	m := st.arcs
	mean := st.sumX / m
	varX := st.sumX2/m - mean*mean
	if varX <= 0 {
		return 0
	}
	return (st.sumXY/m - mean*mean) / varX
}

func (st *state) objective(t Target) float64 {
	obj := 0.0
	if t.AvgCC >= 0 {
		obj += math.Abs(st.avgCC() - t.AvgCC)
	}
	if t.Assortativity != 0 {
		obj += 0.5 * math.Abs(st.assortativity()-t.Assortativity)
	}
	return obj
}

func (st *state) tolerance(t Target) float64 {
	tol := 0.0
	if t.AvgCC >= 0 {
		tol += t.AvgCCTolerance
	}
	if t.Assortativity != 0 {
		tol += 0.02
	}
	return tol
}

// trySwap proposes a degree-preserving double-edge swap (a,b),(c,d) →
// (a,d),(c,b), applies it if the objective improves, and reports whether
// it was accepted. When clustering must increase, half the proposals are
// triangle-closing (Herrera & Zufiria style): they pick two neighbors of
// a common vertex and wire them together, which random proposals almost
// never achieve on sparse graphs.
func (st *state) trySwap(t Target) bool {
	if len(st.edges) < 2 {
		return false
	}
	var i, j int
	var a, b, c, d graph.VertexID
	var ok bool
	if t.AvgCC >= 0 && st.avgCC() < t.AvgCC && st.rng.Intn(2) == 0 {
		i, j, a, b, c, d, ok = st.proposeTriangle()
	} else {
		i, j, a, b, c, d, ok = st.proposeRandom()
	}
	if !ok {
		return false
	}
	before := st.objective(t)
	st.applySwap(i, j, a, b, c, d)
	if st.objective(t) < before {
		return true
	}
	// Revert: swap back. The reverse swap is (a,d),(c,b) → (a,b),(c,d).
	st.applySwap(i, j, a, d, c, b)
	return false
}

// proposeRandom picks two independent random edges.
func (st *state) proposeRandom() (i, j int, a, b, c, d graph.VertexID, ok bool) {
	i = st.rng.Intn(len(st.edges))
	j = st.rng.Intn(len(st.edges))
	if i == j {
		return
	}
	a, b = st.edges[i][0], st.edges[i][1]
	c, d = st.edges[j][0], st.edges[j][1]
	// Optionally flip edge j's orientation to explore both pairings.
	if st.rng.Intn(2) == 1 {
		c, d = d, c
	}
	if a == c || a == d || b == c || b == d {
		return
	}
	if _, exists := st.adj[a][d]; exists {
		return
	}
	if _, exists := st.adj[c][b]; exists {
		return
	}
	return i, j, a, b, c, d, true
}

// proposeTriangle picks a wedge u–w–v and proposes the swap that creates
// the closing edge (u,v): remove (u,x) and (y,v), add (u,v) and (y,x).
func (st *state) proposeTriangle() (i, j int, a, b, c, d graph.VertexID, ok bool) {
	// A random edge gives the wedge center w and one endpoint u.
	e := st.edges[st.rng.Intn(len(st.edges))]
	w, u := e[0], e[1]
	if st.rng.Intn(2) == 1 {
		w, u = u, w
	}
	wn := st.sortedNeighbors(w)
	if len(wn) < 2 {
		return
	}
	v := wn[st.rng.Intn(len(wn))]
	if v == u || v == w {
		return
	}
	if _, exists := st.adj[u][v]; exists {
		return
	}
	un := st.sortedNeighbors(u)
	x := un[st.rng.Intn(len(un))]
	if x == v || x == w || x == u {
		return
	}
	vn := st.sortedNeighbors(v)
	y := vn[st.rng.Intn(len(vn))]
	if y == u || y == x || y == w || y == v {
		return
	}
	if _, exists := st.adj[y][x]; exists {
		return
	}
	// Swap (u,x),(y,v) -> (u,v),(y,x).
	i, iok := st.eindex[canonEdge(u, x)]
	j, jok := st.eindex[canonEdge(y, v)]
	if !iok || !jok || i == j {
		return
	}
	return i, j, u, x, y, v, true
}

// sortedNeighbors returns v's neighbors in ascending order (map
// iteration order would break determinism).
func (st *state) sortedNeighbors(v graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(st.adj[v]))
	for u := range st.adj[v] {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func canonEdge(u, v graph.VertexID) [2]graph.VertexID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.VertexID{u, v}
}

// applySwap removes edges (a,b),(c,d) and inserts (a,d),(c,b), updating
// edge slots i and j and all incremental statistics.
func (st *state) applySwap(i, j int, a, b, c, d graph.VertexID) {
	st.removeEdgeStats(a, b)
	st.removeEdgeStats(c, d)
	delete(st.adj[a], b)
	delete(st.adj[b], a)
	delete(st.adj[c], d)
	delete(st.adj[d], c)
	st.adj[a][d] = struct{}{}
	st.adj[d][a] = struct{}{}
	st.adj[c][b] = struct{}{}
	st.adj[b][c] = struct{}{}
	st.addEdgeStats(a, d)
	st.addEdgeStats(c, b)
	delete(st.eindex, canonEdge(a, b))
	delete(st.eindex, canonEdge(c, d))
	st.edges[i] = [2]graph.VertexID{a, d}
	st.edges[j] = [2]graph.VertexID{c, b}
	st.eindex[canonEdge(a, d)] = i
	st.eindex[canonEdge(c, b)] = j
	// Degree-dependent assortativity moments: only the cross term moves.
	da, db := float64(st.deg[a]), float64(st.deg[b])
	dc, dd := float64(st.deg[c]), float64(st.deg[d])
	st.sumXY += 2 * (da*dd + dc*db - da*db - dc*dd)
}

// removeEdgeStats updates triangle counts and ΣLCC for removing edge
// (u,v). Must be called while (u,v) is still present in adj.
func (st *state) removeEdgeStats(u, v graph.VertexID) {
	for _, w := range st.commonList(u, v) {
		st.bumpTri(w, -1)
		st.bumpTri(u, -1)
		st.bumpTri(v, -1)
	}
}

// addEdgeStats updates triangle counts for inserting edge (u,v). Must be
// called after (u,v) was inserted into adj.
func (st *state) addEdgeStats(u, v graph.VertexID) {
	for _, w := range st.commonList(u, v) {
		st.bumpTri(w, +1)
		st.bumpTri(u, +1)
		st.bumpTri(v, +1)
	}
}

func (st *state) bumpTri(v graph.VertexID, delta int64) {
	st.sumLCC -= float64(st.tri[v]) * st.ccDenom[v]
	st.tri[v] += delta
	st.sumLCC += float64(st.tri[v]) * st.ccDenom[v]
}

// build materializes the rewired adjacency as a new undirected graph.
func (st *state) build(orig *graph.Graph) *graph.Graph {
	srcs := make([]graph.VertexID, 0, len(st.edges))
	dsts := make([]graph.VertexID, 0, len(st.edges))
	for _, e := range st.edges {
		srcs = append(srcs, e[0])
		dsts = append(dsts, e[1])
	}
	g := graph.FromArcs(orig.Name(), st.n, srcs, dsts, nil, false, 1)
	return g
}

// DegreeSequence returns the sorted degree sequence of an undirected
// graph; tests use it to verify rewiring preserves degrees.
func DegreeSequence(g *graph.Graph) []int {
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = g.OutDegree(graph.VertexID(v))
	}
	sort.Ints(out)
	return out
}
