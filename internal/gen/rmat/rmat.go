// Package rmat implements the Graph500 Kronecker/R-MAT synthetic graph
// generator used for the paper's "Graph500 23" workload. The paper
// notes R-MAT "requires extensions to represent well the detailed
// interconnections ... present in the real graphs" — which is exactly
// why Graphalytics complements it with Datagen — but keeps it as a
// workload because Graph500 is the de-facto standard.
//
// The recursive quadrant probabilities follow the Graph500 reference
// (A=0.57, B=0.19, C=0.19, D=0.05) with multiplicative noise per level,
// and the edge factor defaults to 16.
package rmat

import (
	"fmt"
	"runtime"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
	"graphalytics/internal/xrand"
)

// Config parameterizes the generator.
type Config struct {
	// Scale is log2 of the vertex count ("Graph500 23" means scale 23).
	Scale int
	// EdgeFactor is edges per vertex (default 16).
	EdgeFactor int
	// A, B, C are the R-MAT quadrant probabilities (D = 1-A-B-C).
	// Zero values select the Graph500 defaults.
	A, B, C float64
	// Seed drives edge placement.
	Seed uint64
	// Noise perturbs quadrant probabilities per recursion level to avoid
	// the degree "staircase" artifact (default 0.1; set negative for 0).
	Noise float64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Name is the dataset name (default "graph500-<scale>").
	Name string
	// Weighted attaches a deterministic, seed-derived float64 weight in
	// (0, 1] to every edge (the Graph500 SSSP-kernel style of uniform
	// weights). Unit weights (an unweighted graph) by default.
	Weighted bool
}

func (c Config) withDefaults() Config {
	if c.EdgeFactor <= 0 {
		c.EdgeFactor = 16
	}
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = 0.57, 0.19, 0.19
	}
	if c.Noise == 0 {
		c.Noise = 0.1
	} else if c.Noise < 0 {
		c.Noise = 0
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("graph500-%d", c.Scale)
	}
	return c
}

// Stamp returns the canonical parameter string for content-addressed
// dataset fingerprints: every parameter that changes the output
// (defaults applied first, so "0" and "explicit default" stamp equal),
// excluding Workers — generation is bit-identical at any parallelism.
func (c Config) Stamp() string {
	d := c.withDefaults()
	return fmt.Sprintf("scale=%d,ef=%d,a=%g,b=%g,c=%g,seed=%d,noise=%g,name=%s,weighted=%t",
		d.Scale, d.EdgeFactor, d.A, d.B, d.C, d.Seed, d.Noise, d.Name, d.Weighted)
}

// Generate produces an undirected R-MAT graph (Graph500 graphs are made
// undirected for BFS). Self-loops and duplicate edges are removed, so
// the realized edge count is slightly below Scale×EdgeFactor.
func Generate(cfg Config) (*graph.Graph, error) {
	c := cfg.withDefaults()
	if c.Scale < 1 || c.Scale > 30 {
		return nil, fmt.Errorf("rmat: scale must be in [1,30], got %d", c.Scale)
	}
	n := 1 << c.Scale
	m := int64(n) * int64(c.EdgeFactor)

	srcs := make([]graph.VertexID, m)
	dsts := make([]graph.VertexID, m)
	par.Ranges(int(m), c.Workers, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			srcs[i], dsts[i] = edge(c, uint64(i))
		}
		return nil
	})

	// Drop self-loops, then build the deduplicated undirected CSR.
	k := 0
	for i := range srcs {
		if srcs[i] != dsts[i] {
			srcs[k], dsts[k] = srcs[i], dsts[i]
			k++
		}
	}
	// CSR construction shares the generator's worker budget: the arc
	// arrays feed the parallel builder, which is bit-identical to the
	// sequential one.
	var ws []float64
	if c.Weighted {
		ws = edgeWeights(c.Seed, srcs[:k], dsts[:k])
	}
	g := graph.FromArcs(c.Name, n, srcs[:k], dsts[:k], ws, false, c.Workers)
	return g, nil
}

// edgeWeights derives one deterministic weight per edge via the shared
// xrand.EdgeWeight derivation (seeded, topology-independent).
func edgeWeights(seed uint64, srcs, dsts []graph.VertexID) []float64 {
	ws := make([]float64, len(srcs))
	for i := range ws {
		ws[i] = xrand.EdgeWeight(seed, uint64(srcs[i]), uint64(dsts[i]))
	}
	return ws
}

// edge places edge i by the recursive quadrant walk. All randomness is a
// pure function of (seed, i, level), making generation deterministic and
// embarrassingly parallel.
func edge(c Config, i uint64) (graph.VertexID, graph.VertexID) {
	var u, v uint64
	a, b, cc := c.A, c.B, c.C
	for level := 0; level < c.Scale; level++ {
		r := xrand.Float64(xrand.Mix3(c.Seed, i, uint64(level)))
		// Noise: perturb quadrant probabilities smoothly per level.
		na, nb, nc := a, b, cc
		if c.Noise > 0 {
			mu := xrand.Float64(xrand.Mix4(c.Seed, i, uint64(level), 7))
			f := 1 + c.Noise*(2*mu-1)
			na, nb, nc = a*f, b*f, cc*f
			tot := na + nb + nc + (1 - a - b - cc)
			na, nb, nc = na/tot, nb/tot, nc/tot
		}
		u <<= 1
		v <<= 1
		switch {
		case r < na:
			// quadrant A: (0,0)
		case r < na+nb:
			v |= 1
		case r < na+nb+nc:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
	}
	return graph.VertexID(u), graph.VertexID(v)
}
