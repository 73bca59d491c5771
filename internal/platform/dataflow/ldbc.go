package dataflow

// The three LDBC Graphalytics workloads (PR, SSSP, LCC) over the
// dataflow primitives, following the idioms of algorithms.go: every
// iteration materializes a new immutable vertex dataset, the triplet
// scan mirrors attributes into edge partitions, and the weighted scan
// (AggregateMessagesW) exposes the edge property the way GraphX triplet
// views carry edge attributes.

import (
	"context"
	"math"
	"slices"
	"sync/atomic"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// ------------------------------ PR ------------------------------

// runPageRank: fixed-iteration LDBC PageRank. Each iteration is one
// aggregateMessages (fixed-point d·rank/outdeg shares along out-arcs,
// summed as integers, so partitioning changes no bit) plus one
// full dataset materialization; the dangling mass is a driver-side
// reduction over the current rank dataset, the way a Spark driver
// collects a scalar between iterations.
func (env *Env) runPageRank(ctx context.Context, p algo.Params) (algo.PROutput, error) {
	n := env.G.NumVertices()
	d := p.PRDamping
	ranks, err := MapVertices(ctx, env, n, 8, func(graph.VertexID) float64 { return 1 / float64(n) })
	if err != nil {
		return nil, err
	}
	for iter := 0; iter < p.PRIterations; iter++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		env.Counters.Supersteps++
		var dangling int64
		for v := 0; v < n; v++ {
			if v%platform.CheckStride == 0 && ctx.Err() != nil {
				return nil, platform.CheckContextPhase(ctx, "dataflow/pr-dangling")
			}
			if env.G.OutDegree(graph.VertexID(v)) == 0 {
				dangling += algo.PRMass(ranks[v])
			}
		}
		shares, err := AggregateMessages(ctx, env, ranks, 8, 8,
			func(c *Ctx[int64], u, v graph.VertexID, du, _ float64) {
				c.SendToDst(v, algo.PRShare(d, du, env.G.OutDegree(u)))
			},
			func(a, b int64) int64 { return a + b })
		if err != nil {
			return nil, err
		}
		base := algo.PRBase(d, n, dangling)
		ranks, err = MapVertices(ctx, env, n, 8, func(v graph.VertexID) float64 {
			return algo.PRRank(base, shares.Get(v))
		})
		if err != nil {
			return nil, err
		}
	}
	return algo.PROutput(ranks), nil
}

// ------------------------------ SSSP ------------------------------

// runSSSP: the weighted generalization of runBFS. Active vertices relax
// their out-arcs through the weighted triplet scan; the min merge and
// the join keep only improvements, and the loop runs to the fixpoint.
func (env *Env) runSSSP(ctx context.Context, p algo.Params) (algo.SSSPOutput, error) {
	n := env.G.NumVertices()
	inf := math.Inf(1)
	dists, err := MapVertices(ctx, env, n, 8, func(v graph.VertexID) float64 {
		if v == p.Source {
			return 0
		}
		return inf
	})
	if err != nil {
		return nil, err
	}
	active := make([]bool, n)
	if int(p.Source) < n {
		active[p.Source] = true
	}

	for iter := 0; iter < p.MaxIterations; iter++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		env.Counters.Supersteps++
		msgs, err := AggregateMessagesW(ctx, env, dists, 8, 8,
			func(c *Ctx[float64], u, v graph.VertexID, w float64, du, dv float64) {
				if active[u] && du+w < dv {
					c.SendToDst(v, du+w)
				}
			},
			func(a, b float64) float64 { return math.Min(a, b) })
		if err != nil {
			return nil, err
		}
		if msgs.Len() == 0 {
			break
		}
		nextActive := make([]bool, n)
		var improved atomic.Bool // join closures run chunked in parallel
		dists, err = JoinVertices(ctx, env, dists, 8, msgs, func(v graph.VertexID, d, m float64) float64 {
			if m < d {
				nextActive[v] = true
				improved.Store(true)
				return m
			}
			return d
		})
		if err != nil {
			return nil, err
		}
		active = nextActive
		if !improved.Load() {
			break
		}
	}
	return algo.SSSPOutput(dists), nil
}

// ------------------------------ LCC ------------------------------

// runLCC computes the local clustering coefficients in two rounds:
// every vertex collects its neighborhood, then each canonical arc
// carries closed-pair counts to both endpoints. It serves STATS too,
// whose mean Run folds with algo.StatsFromLCC.
func (env *Env) runLCC(ctx context.Context, p algo.Params) (algo.LCCOutput, error) {
	n := env.G.NumVertices()
	// Round 1: collect neighbor IDs (both directions), dedup + sort.
	empty, err := MapVertices(ctx, env, n, 24, func(graph.VertexID) []graph.VertexID { return nil })
	if err != nil {
		return nil, err
	}
	env.Counters.Supersteps++
	collected, err := CollectMessages(ctx, env, empty, 24, 24,
		func(c *Ctx[graph.VertexID], u, v graph.VertexID, _, _ []graph.VertexID) {
			c.SendToDst(v, u)
			c.SendToSrc(u, v)
		})
	if err != nil {
		return nil, err
	}
	nbh, err := JoinVertices(ctx, env, empty, 24, collected, func(v graph.VertexID, _ []graph.VertexID, ids []graph.VertexID) []graph.VertexID {
		slices.Sort(ids)
		out := ids[:0]
		var last graph.VertexID
		for i, x := range ids {
			if x == v {
				continue
			}
			if i > 0 && x == last && len(out) > 0 {
				continue
			}
			out = append(out, x)
			last = x
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	// Summed after the join: the closures run in parallel and cannot
	// share an accumulator.
	nbhBytes := int64(0)
	for _, ids := range nbh {
		nbhBytes += int64(len(ids)) * 4
	}
	if err := env.allocRetained(nbhBytes); err != nil {
		return nil, err
	}

	// Round 2: per canonical neighbor pair, exchange closed-pair counts.
	// A partition scans each source's arcs in a row, so its two
	// counters hold out(u) and N(u) for the current source u and are
	// re-marked only when u changes.
	type sourceCounters struct {
		u        graph.VertexID
		out, nbh *algo.ClosedPairs
	}
	parts := make([]sourceCounters, env.Parts)
	for i := range parts {
		parts[i] = sourceCounters{u: graph.NoVertex, out: algo.NewClosedPairs(n), nbh: algo.NewClosedPairs(n)}
	}
	env.Counters.Supersteps++
	counts, err := AggregateMessages(ctx, env, nbh, 24, 8,
		func(c *Ctx[int64], u, v graph.VertexID, nu, nv []graph.VertexID) {
			if !c.Canonical(u, v) {
				return
			}
			sc := &parts[c.Part()]
			if sc.u != u {
				sc.u = u
				sc.out.Mark(env.G.OutNeighbors(u))
				sc.nbh.Mark(nu)
			}
			if len(nv) >= 2 {
				c.SendToDst(v, sc.out.Count(nv, u))
			}
			if len(nu) >= 2 {
				c.SendToSrc(u, sc.nbh.Count(env.G.OutNeighbors(v), v))
			}
		},
		func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, err
	}
	lcc := make(algo.LCCOutput, n)
	for v := 0; v < n; v++ {
		d := float64(len(nbh[v]))
		if d >= 2 {
			lcc[v] = float64(counts.Get(graph.VertexID(v))) / (d * (d - 1))
		}
	}
	return lcc, nil
}
