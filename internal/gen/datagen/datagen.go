// Package datagen is a from-scratch reimplementation of the LDBC SNB
// data generator ("Datagen") as used by Graphalytics (§2.2): it produces
// the person-knows-person graph of a simulated social network with
//
//   - structurally correlated edges: persons are sorted along a
//     correlation dimension (university, interest, or a random key) and
//     connected within a sliding window, following the S3G2 design, so
//     that triangles and community structure emerge;
//   - pluggable degree distributions (package dist), the extension this
//     paper adds to Datagen;
//   - block-wise generation exactly like the Hadoop implementation:
//     persons are split into independent blocks, windows never cross
//     block boundaries, and blocks can be generated by any number of
//     workers with bit-identical output (deterministic).
//
// The generator is CPU-bound in the attribute/sort/scan phases; package
// datagen also provides the disk-bandwidth cluster simulation used by
// the Figure 3 scalability experiment (see cluster.go).
package datagen

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"graphalytics/internal/gen/dist"
	"graphalytics/internal/graph"
	"graphalytics/internal/par"
	"graphalytics/internal/xrand"
)

// Config configures a generation run.
type Config struct {
	// Persons is the number of vertices of the person-knows-person graph.
	Persons int
	// Seed drives every random decision; equal seeds give equal graphs.
	Seed uint64
	// Degrees is the degree-distribution plugin. Nil selects the
	// Facebook-like default that Datagen ships with.
	Degrees dist.Distribution
	// BlockSize is the number of persons per independent generation
	// block (default 4096). Windows never cross blocks.
	BlockSize int
	// Window is the sliding-window width within a sorted block
	// (default 100).
	Window int
	// PassFractions splits each person's degree budget across the three
	// correlation passes (university, interest, random). Defaults to
	// 0.45/0.45/0.10, the LDBC split.
	PassFractions [3]float64
	// Workers bounds generation parallelism (default GOMAXPROCS).
	Workers int
	// Name is the dataset name of the generated graph.
	Name string
	// Weighted attaches a deterministic, seed-derived float64 weight in
	// (0, 1] to every edge (the LDBC Datagen weight property, consumed
	// by the SSSP workload). Unit weights (an unweighted graph) by
	// default.
	Weighted bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Degrees == nil {
		out.Degrees = DefaultDegrees()
	}
	if out.BlockSize <= 0 {
		out.BlockSize = 4096
	}
	if out.Window <= 0 {
		out.Window = 100
	}
	if out.Window >= out.BlockSize {
		out.Window = out.BlockSize - 1
	}
	var s float64
	for _, f := range out.PassFractions {
		s += f
	}
	if s <= 0 {
		out.PassFractions = [3]float64{0.45, 0.45, 0.10}
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Name == "" {
		out.Name = "datagen"
	}
	return out
}

// Stamp returns the canonical parameter string for content-addressed
// dataset fingerprints: every parameter that changes the output
// (defaults applied first), excluding Workers — block-wise generation
// is bit-identical at any parallelism. The degree-distribution plugin
// contributes its name and mean, which identify every distribution the
// dist package ships.
func (c Config) Stamp() string {
	d := c.withDefaults()
	return fmt.Sprintf("persons=%d,seed=%d,degrees=%s/%g,block=%d,window=%d,passes=%g/%g/%g,name=%s,weighted=%t",
		d.Persons, d.Seed, d.Degrees.Name(), d.Degrees.Mean(),
		d.BlockSize, d.Window,
		d.PassFractions[0], d.PassFractions[1], d.PassFractions[2],
		d.Name, d.Weighted)
}

var defaultDegreesOnce struct {
	sync.Once
	d dist.Distribution
}

// DefaultDegrees returns the Facebook-like degree distribution Datagen
// uses by default, scaled to a mean degree of 30 so that small benchmark
// graphs stay sparse. (The unscaled Facebook mean of ~190 would make a
// 10k-person graph nearly dense.)
func DefaultDegrees() dist.Distribution {
	defaultDegreesOnce.Do(func() {
		defaultDegreesOnce.d = dist.NewFacebook(30)
	})
	return defaultDegreesOnce.d
}

// person holds the correlated attributes that drive edge generation.
type person struct {
	id         uint32
	university uint32
	interest   uint32
	randKey    uint64
	budget     [3]int32 // remaining degree budget per pass
}

const (
	passUniversity = 0
	passInterest   = 1
	passRandom     = 2
)

// Generate produces the person-knows-person graph for cfg.
func Generate(cfg Config) (*graph.Graph, error) {
	c := cfg.withDefaults()
	if c.Persons <= 1 {
		return nil, fmt.Errorf("datagen: need at least 2 persons, got %d", c.Persons)
	}
	// CSR construction shares the generator's worker budget: the arc
	// arrays feed the parallel builder, which is bit-identical to the
	// sequential one.
	srcs, dsts := generateArcs(c, nil)
	var ws []float64
	if c.Weighted {
		ws = edgeWeights(c.Seed, srcs, dsts)
	}
	g := graph.FromArcs(c.Name, c.Persons, srcs, dsts, ws, false, c.Workers)
	return g, nil
}

// edgeWeights derives one deterministic weight per edge via the shared
// xrand.EdgeWeight derivation (seeded, topology-independent).
func edgeWeights(seed uint64, srcs, dsts []graph.VertexID) []float64 {
	ws := make([]float64, len(srcs))
	for i := range srcs {
		ws[i] = xrand.EdgeWeight(seed, uint64(srcs[i]), uint64(dsts[i]))
	}
	return ws
}

// Stats summarizes a generation run.
type Stats struct {
	Persons int
	Edges   int64
}

// GenerateEdges streams generated edges to sink (one call per undirected
// edge) without materializing a Graph. sink may be called concurrently
// from multiple workers; it must be safe for concurrent use. Used by the
// Figure 3 scalability harness. Unlike Generate, the stream is raw
// generator output: the rare duplicate pair produced by two different
// correlation passes is not removed (Generate's CSR construction dedups).
func GenerateEdges(cfg Config, sink func(u, v uint32)) (Stats, error) {
	c := cfg.withDefaults()
	if c.Persons <= 1 {
		return Stats{}, fmt.Errorf("datagen: need at least 2 persons, got %d", c.Persons)
	}
	var mu sync.Mutex
	var edges int64
	collect := func(u, v uint32) {
		sink(u, v)
		mu.Lock()
		edges++
		mu.Unlock()
	}
	generateArcs(c, collect)
	return Stats{Persons: c.Persons, Edges: edges}, nil
}

// generateArcs runs the three correlation passes. If stream is non-nil,
// edges are delivered to it and nil slices are returned; otherwise the
// edge endpoints are accumulated and returned.
func generateArcs(c Config, stream func(u, v uint32)) (srcs, dsts []graph.VertexID) {
	n := c.Persons

	// Attribute generation: purely functional on (seed, id).
	universities := 1 + n/64 // a few persons per university on average
	interests := 1 + n/128
	persons := make([]person, n)
	for i := range persons {
		h := xrand.Mix2(c.Seed, uint64(i))
		target := dist.Sample(c.Degrees, xrand.Mix2(c.Seed, 0xde6), uint64(i))
		if target > c.Window {
			target = c.Window
		}
		persons[i] = person{
			id:         uint32(i),
			university: uint32(xrand.Mix2(h, 1) % uint64(universities)),
			interest:   uint32(xrand.Mix2(h, 2) % uint64(interests)),
			randKey:    xrand.Mix2(h, 3),
			budget:     splitBudget(target, c.PassFractions),
		}
	}

	// The random pass permutes persons globally before blocking so its
	// windows connect persons from different original blocks, giving the
	// graph global connectivity.
	type blockResult struct {
		srcs, dsts []graph.VertexID
	}

	// A fixed set of c.Workers workers pulls block indices; each block's
	// output lands in its own slot, so no lock guards the results.
	numBlocks := (n + c.BlockSize - 1) / c.BlockSize
	results := make([]blockResult, 3*numBlocks)
	for pass := 0; pass < 3; pass++ {
		order := passOrder(persons, pass, c.Seed)
		var next atomic.Int64
		par.Do(c.Workers, func(int) error {
			for blk := int(next.Add(1)) - 1; blk < numBlocks; blk = int(next.Add(1)) - 1 {
				lo, hi := blk*c.BlockSize, min((blk+1)*c.BlockSize, n)
				if hi-lo < 2 {
					continue
				}
				bs, bd := scanBlock(persons, order[lo:hi], pass, c)
				if stream == nil {
					results[pass*numBlocks+blk] = blockResult{bs, bd}
					continue
				}
				for k := range bs {
					stream(uint32(bs[k]), uint32(bd[k]))
				}
			}
			return nil
		})
	}

	if stream != nil {
		return nil, nil
	}
	// Merge deterministically: sort block outputs by first edge source so
	// the final arc order does not depend on goroutine scheduling. (CSR
	// construction sorts again anyway; this keeps intermediate output
	// stable for tests.)
	sort.Slice(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if len(a.srcs) == 0 || len(b.srcs) == 0 {
			return len(a.srcs) < len(b.srcs)
		}
		if a.srcs[0] != b.srcs[0] {
			return a.srcs[0] < b.srcs[0]
		}
		return a.dsts[0] < b.dsts[0]
	})
	for _, r := range results {
		srcs = append(srcs, r.srcs...)
		dsts = append(dsts, r.dsts...)
	}
	return srcs, dsts
}

// splitBudget divides a degree target across the three passes.
func splitBudget(target int, frac [3]float64) [3]int32 {
	var b [3]int32
	used := 0
	for p := 0; p < 2; p++ {
		share := int(float64(target) * frac[p])
		b[p] = int32(share)
		used += share
	}
	rest := target - used
	if rest < 0 {
		rest = 0
	}
	b[2] = int32(rest)
	return b
}

// passOrder returns person indices sorted by the pass's correlation key.
func passOrder(persons []person, pass int, seed uint64) []uint32 {
	n := len(persons)
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	switch pass {
	case passUniversity:
		sort.Slice(order, func(i, j int) bool {
			a, b := &persons[order[i]], &persons[order[j]]
			if a.university != b.university {
				return a.university < b.university
			}
			return a.id < b.id
		})
	case passInterest:
		sort.Slice(order, func(i, j int) bool {
			a, b := &persons[order[i]], &persons[order[j]]
			if a.interest != b.interest {
				return a.interest < b.interest
			}
			return a.id < b.id
		})
	default:
		sort.Slice(order, func(i, j int) bool {
			a, b := &persons[order[i]], &persons[order[j]]
			if a.randKey != b.randKey {
				return a.randKey < b.randKey
			}
			return a.id < b.id
		})
	}
	_ = seed
	return order
}

// scanBlock runs the sliding-window bilateral-budget scan over one block
// of the sorted order. Decisions depend only on (seed, pass, person ids),
// never on goroutine scheduling, so output is deterministic.
//
// For the person at position idx with remaining budget b, the candidate
// at rank r is connected with probability b·w(r)/Σ_{r'>=r} w(r') clamped
// to [0,1], where w(r) = decay^(r-1) gives the S3G2 distance decay (an
// expected-quota sequential sampler). Both endpoints must have remaining
// budget, and each edge consumes budget on both sides, so realized
// degrees track the plugged-in distribution.
func scanBlock(persons []person, block []uint32, pass int, c Config) ([]graph.VertexID, []graph.VertexID) {
	const decay = 0.96
	w := c.Window
	if w >= len(block) {
		w = len(block) - 1
	}
	// Precompute decay weights and suffix sums: suffix[r] = Σ_{r'>=r} w(r').
	weights := make([]float64, w+2)
	suffix := make([]float64, w+2)
	for r := 1; r <= w; r++ {
		weights[r] = pow(decay, r-1)
	}
	for r := w; r >= 1; r-- {
		suffix[r] = suffix[r+1] + weights[r]
	}

	// Budgets are consumed block-locally: copy them so other passes'
	// blocks (and reruns) are unaffected. Budget state for this pass was
	// initialized in generateArcs.
	remaining := make(map[uint32]int32, len(block))
	for _, pid := range block {
		remaining[pid] = persons[pid].budget[pass]
	}

	var srcs, dsts []graph.VertexID
	for idx, pid := range block {
		b := remaining[pid]
		if b <= 0 {
			continue
		}
		rng := xrand.New(c.Seed, 0xedce, uint64(pass), uint64(pid))
		for r := 1; r <= w && idx+r < len(block); r++ {
			if b <= 0 {
				break
			}
			qid := block[idx+r]
			u := rng.Float64()
			// Sequential quota sampling: probability = remaining quota ×
			// this rank's share of the remaining decay weight, so the
			// expected number of picks equals the budget.
			p := float64(b) * weights[r] / suffix[r]
			if p > 1 {
				p = 1
			}
			if u >= p {
				continue
			}
			if remaining[qid] <= 0 {
				continue
			}
			srcs = append(srcs, graph.VertexID(pid))
			dsts = append(dsts, graph.VertexID(qid))
			b--
			remaining[qid]--
		}
		remaining[pid] = b
	}
	return srcs, dsts
}

// pow is an integer-exponent power without math import noise.
func pow(base float64, exp int) float64 {
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
