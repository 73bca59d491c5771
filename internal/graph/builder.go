package graph

import "errors"

// Builder accumulates edges and produces an immutable CSR Graph.
//
// Edges may be added with arbitrary external int64 vertex identifiers;
// the builder densifies them to internal IDs. Use AddEdgeID to add edges
// that already use dense IDs (faster, no remapping).
//
// Edges may optionally carry float64 weights (AddEdgeWeighted /
// AddEdgeIDWeighted). The first weighted add switches the builder into
// weighted mode; unweighted adds before or after contribute weight 1.
// Duplicate arcs deduplicate to the smallest weight, which is
// deterministic regardless of input order.
//
// The text loader (ingest.go) densifies in bulk and installs the dense
// arc arrays and the label table in label mode itself.
//
// The zero Builder builds a directed graph; use NewBuilder to configure.
type Builder struct {
	directed   bool
	dedup      bool
	dropLoops  bool
	buildIn    bool
	name       string
	srcs, dsts []VertexID
	weights    []float64 // nil until the first weighted add
	ext2int    map[int64]VertexID
	labels     []int64
	maxID      VertexID
	hasEdges   bool
	useLabels  bool
}

// BuilderOption configures a Builder.
type BuilderOption func(*Builder)

// Directed sets whether the built graph is directed. Undirected graphs
// are stored symmetrized (each edge as two arcs).
func Directed(d bool) BuilderOption { return func(b *Builder) { b.directed = d } }

// Dedup removes duplicate arcs during Build.
func Dedup() BuilderOption { return func(b *Builder) { b.dedup = true } }

// DropSelfLoops removes self-loop arcs during Build.
func DropSelfLoops() BuilderOption { return func(b *Builder) { b.dropLoops = true } }

// WithReverse builds reverse (in-) adjacency for directed graphs.
// Undirected graphs always have reverse adjacency (aliasing the forward
// arrays) regardless of this option.
func WithReverse() BuilderOption { return func(b *Builder) { b.buildIn = true } }

// WithName sets the dataset name of the built graph.
func WithName(name string) BuilderOption { return func(b *Builder) { b.name = name } }

// NewBuilder returns a Builder with the given options applied.
func NewBuilder(opts ...BuilderOption) *Builder {
	b := &Builder{directed: true}
	for _, o := range opts {
		o(b)
	}
	return b
}

// AddEdge adds an edge between external vertex identifiers. The first
// call to AddEdge switches the builder into label mode; mixing AddEdge
// and AddEdgeID is not allowed.
func (b *Builder) AddEdge(src, dst int64) {
	if !b.useLabels {
		if b.hasEdges {
			panic("graph: mixing AddEdge and AddEdgeID")
		}
		b.useLabels = true
		b.ext2int = make(map[int64]VertexID)
	}
	b.hasEdges = true
	b.srcs = append(b.srcs, b.intern(src))
	b.dsts = append(b.dsts, b.intern(dst))
	if b.weights != nil {
		b.weights = append(b.weights, 1)
	}
}

// AddEdgeWeighted adds a weighted edge between external vertex
// identifiers. See AddEdge for the label-mode rules.
func (b *Builder) AddEdgeWeighted(src, dst int64, w float64) {
	b.materializeWeights()
	b.AddEdge(src, dst)
	b.weights[len(b.weights)-1] = w
}

// AddVertex registers an external vertex identifier even if it has no
// edges (needed to honor .v vertex files containing isolated vertices).
// Only valid in label mode (or before any AddEdgeID call).
func (b *Builder) AddVertex(id int64) {
	if b.hasEdges && !b.useLabels {
		panic("graph: AddVertex after AddEdgeID")
	}
	if b.ext2int == nil {
		b.ext2int = make(map[int64]VertexID)
	}
	b.useLabels = true
	b.intern(id)
}

func (b *Builder) intern(ext int64) VertexID {
	if id, ok := b.ext2int[ext]; ok {
		return id
	}
	id := VertexID(len(b.labels))
	b.ext2int[ext] = id
	b.labels = append(b.labels, ext)
	return id
}

// AddEdgeID adds an edge between dense internal IDs. The vertex count of
// the built graph is max ID + 1 unless SetNumVertices was called.
func (b *Builder) AddEdgeID(src, dst VertexID) {
	if b.useLabels {
		panic("graph: mixing AddEdgeID and AddEdge")
	}
	b.hasEdges = true
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	if b.weights != nil {
		b.weights = append(b.weights, 1)
	}
	if src > b.maxID {
		b.maxID = src
	}
	if dst > b.maxID {
		b.maxID = dst
	}
}

// AddEdgeIDWeighted adds a weighted edge between dense internal IDs.
func (b *Builder) AddEdgeIDWeighted(src, dst VertexID, w float64) {
	b.materializeWeights()
	b.AddEdgeID(src, dst)
	b.weights[len(b.weights)-1] = w
}

// materializeWeights switches the builder into weighted mode, crediting
// every previously added (unweighted) edge with weight 1.
func (b *Builder) materializeWeights() {
	if b.weights == nil {
		b.weights = make([]float64, len(b.srcs), cap(b.srcs))
		for i := range b.weights {
			b.weights[i] = 1
		}
	}
}

// SetNumVertices forces the vertex count (ID mode only). Vertices in
// [0, n) with no edges become isolated vertices.
func (b *Builder) SetNumVertices(n int) {
	if b.useLabels {
		panic("graph: SetNumVertices is only valid in ID mode")
	}
	if n > 0 {
		if VertexID(n-1) > b.maxID {
			b.maxID = VertexID(n - 1)
		}
	}
}

// ErrEmptyGraph is returned by Build when no vertices were added.
var ErrEmptyGraph = errors.New("graph: empty graph")

// Build constructs the CSR graph. The builder must not be reused after
// Build.
func (b *Builder) Build() (*Graph, error) { return b.build(1) }

// BuildParallel is Build with the CSR construction (degree histograms,
// scatter, per-vertex sort/dedup) fanned out over workers. workers <= 0
// uses GOMAXPROCS. The produced graph is byte-identical to Build's for
// any worker count.
func (b *Builder) BuildParallel(workers int) (*Graph, error) {
	return b.build(workers)
}

func (b *Builder) build(workers int) (*Graph, error) {
	var n int
	switch {
	case b.useLabels:
		n = len(b.labels)
	case b.hasEdges || b.maxID > 0:
		n = int(b.maxID) + 1
	}
	if n == 0 {
		return nil, ErrEmptyGraph
	}

	srcs, dsts, ws := b.srcs, b.dsts, b.weights
	if b.dropLoops {
		k := 0
		for i := range srcs {
			if srcs[i] != dsts[i] {
				srcs[k], dsts[k] = srcs[i], dsts[i]
				if ws != nil {
					ws[k] = ws[i]
				}
				k++
			}
		}
		srcs, dsts = srcs[:k], dsts[:k]
		if ws != nil {
			ws = ws[:k]
		}
	}

	g := &Graph{name: b.name, directed: b.directed, n: n, labels: b.labels}
	g.fillCSR(srcs, dsts, ws, b.dedup, b.buildIn, workers)
	// Release builder storage.
	b.srcs, b.dsts, b.weights, b.ext2int = nil, nil, nil, nil
	return g, nil
}

// fillCSR builds g's adjacency from arc arrays with up to workers
// workers (<= 0 uses GOMAXPROCS; see csrWorkers). An undirected g gets
// the reversed arcs appended and is deduplicated, and its reverse
// adjacency aliases the forward arrays; a directed g deduplicates only
// with dedup and builds reverse adjacency only with reverse. The slices
// may be appended to.
func (g *Graph) fillCSR(srcs, dsts []VertexID, ws []float64, dedup, reverse bool, workers int) {
	if !g.directed {
		m := len(srcs)
		srcs = append(srcs, dsts[:m]...)
		dsts = append(dsts, srcs[:m]...)
		if ws != nil {
			ws = append(ws, ws[:m]...)
		}
		dedup = true
	}
	workers = csrWorkers(workers, len(srcs))
	g.outIndex, g.outEdges, g.outWeights = buildCSR(g.n, srcs, dsts, ws, dedup, workers)
	switch {
	case !g.directed:
		g.inIndex, g.inEdges, g.inWeights = g.outIndex, g.outEdges, g.outWeights
	case reverse:
		g.inIndex, g.inEdges, g.inWeights = buildCSR(g.n, dsts, srcs, ws, dedup, workers)
	}
}

// FromArcs builds a graph of n vertices directly from dense arc arrays,
// taking ownership of the slices; n must be at least max(id)+1. ws is
// optional per-arc weights (nil builds an unweighted graph). An
// undirected graph is symmetrized and deduplicated (duplicates keep the
// smallest weight); a directed one keeps every arc and gets reverse
// adjacency. The CSR construction fans out over workers (<= 0 uses
// GOMAXPROCS); the result is byte-identical for any worker count.
func FromArcs(name string, n int, srcs, dsts []VertexID, ws []float64, directed bool, workers int) *Graph {
	g := &Graph{name: name, directed: directed, n: n}
	g.fillCSR(srcs, dsts, ws, false, true, workers)
	return g
}
