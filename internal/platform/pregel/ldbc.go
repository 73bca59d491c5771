package pregel

// The three LDBC Graphalytics workloads (PR, SSSP, LCC) as vertex
// programs, following the same engine idioms as the paper's five in
// algorithms.go: shared kernels from internal/algo where outputs must
// match the reference, combiners where messages fold, and aggregators
// for the global quantities (PageRank's dangling mass).

import (
	"context"
	"math"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
)

// ------------------------------ PR ------------------------------

// runPageRank runs the fixed-iteration LDBC PageRank. Every vertex
// stays active for the whole run (each iteration rebases on the global
// dangling mass, so even message-less vertices recompute): superstep 0
// initializes and scatters, supersteps 1..T update. The dangling mass
// of iteration t reaches iteration t+1 through the "dangling"
// aggregator; the sum combiner folds rank shares sender-side. Shares
// and the dangling mass are algo's fixed-point int64 mass, so neither
// the combiner nor the aggregator merge order changes a bit.
func (r *run) runPageRank(ctx context.Context, p algo.Params) (algo.PROutput, error) {
	n := r.g.NumVertices()
	ranks := make(algo.PROutput, n)
	if err := r.mem.Alloc(int64(n) * 8); err != nil {
		return nil, err
	}

	d := p.PRDamping
	e := newEngine[int64](r, func(int64) int64 { return 8 },
		func(a, b int64) int64 { return a + b })
	e.AggMerge = map[string]func(a, b any) any{
		"dangling": func(a, b any) any { return a.(int64) + b.(int64) },
	}
	scatter := func(c *VCtx[int64], v graph.VertexID) {
		if deg := r.g.OutDegree(v); deg > 0 {
			c.SendToOutNeighbors(v, algo.PRShare(d, ranks[v], deg))
		} else {
			c.Aggregate("dangling", algo.PRMass(ranks[v]))
		}
	}
	compute := func(c *VCtx[int64], v graph.VertexID, msgs []int64) {
		step := c.Superstep()
		if step == 0 {
			ranks[v] = 1 / float64(n)
			scatter(c, v)
			return
		}
		var sum int64
		for _, m := range msgs {
			sum += m
		}
		dangling, _ := c.AggValue("dangling").(int64)
		ranks[v] = algo.PRRank(algo.PRBase(d, n, dangling), sum)
		if step < p.PRIterations {
			scatter(c, v)
		} else {
			c.VoteToHalt(v)
		}
	}
	master := func(step int, agg map[string]any) (map[string]any, bool) {
		return nil, step >= p.PRIterations
	}
	if err := e.Run(ctx, compute, master); err != nil {
		return nil, err
	}
	return ranks, nil
}

// ------------------------------ SSSP ------------------------------

// runSSSP is label-correcting shortest paths: the source seeds distance
// 0 and every improvement propagates dist+w along out-edges until the
// global fixpoint — the weighted generalization of the BFS frontier.
// The min combiner collapses candidate distances sender-side.
func (r *run) runSSSP(ctx context.Context, p algo.Params) (algo.SSSPOutput, error) {
	n := r.g.NumVertices()
	dist := make(algo.SSSPOutput, n)
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = inf
	}
	if err := r.mem.Alloc(int64(n) * 8); err != nil {
		return nil, err
	}

	e := newEngine[float64](r, func(float64) int64 { return 8 },
		func(a, b float64) float64 { return math.Min(a, b) })
	relax := func(c *VCtx[float64], v graph.VertexID) {
		adj := r.g.OutNeighbors(v)
		ws := r.g.OutWeights(v)
		for i, u := range adj {
			c.Send(u, dist[v]+graph.WeightAt(ws, i))
		}
		c.CountEdges(int64(len(adj)))
	}
	compute := func(c *VCtx[float64], v graph.VertexID, msgs []float64) {
		if c.Superstep() == 0 {
			if v == p.Source {
				dist[v] = 0
				relax(c, v)
			}
			c.VoteToHalt(v)
			return
		}
		best := dist[v]
		for _, m := range msgs {
			if m < best {
				best = m
			}
		}
		if best < dist[v] {
			dist[v] = best
			relax(c, v)
		}
		c.VoteToHalt(v)
	}
	if err := e.Run(ctx, compute, nil); err != nil {
		return nil, err
	}
	return dist, nil
}

// ------------------------------ LCC ------------------------------

// statsMsg is the message of the LCC program, which serves both STATS
// and LCC: either a neighborhood announcement (reply=false) or a
// closed-pair count back to the asking vertex (reply=true). Neighborhood
// exchange is what makes STATS the most network-hungry workload on BSP
// platforms, exactly as Figure 4 shows for Giraph. The fields are
// ordered widest first, so the struct packs into 40 bytes (48 in an
// outbox entry) instead of 48 (56).
type statsMsg struct {
	nbh   []graph.VertexID
	count int64
	from  graph.VertexID
	reply bool
}

func statsMsgBytes(m statsMsg) int64 {
	if m.reply {
		return 16
	}
	return 16 + 4*int64(len(m.nbh))
}

// statsScratch is the per-worker scratch of the LCC vertex program,
// indexed by VCtx.Worker: a closed-pair counter, built on the
// worker's first use, and a neighbourhood buffer.
type statsScratch struct {
	g   *graph.Graph
	cp  []*algo.ClosedPairs
	buf [][]graph.VertexID
}

func newStatsScratch(g *graph.Graph, workers int) *statsScratch {
	return &statsScratch{g: g, cp: make([]*algo.ClosedPairs, workers), buf: make([][]graph.VertexID, workers)}
}

// answer replies to each neighbourhood announcement in msgs with the
// number of closed pairs through v: out(v) is marked once and each
// received N(w) probes it.
func (s *statsScratch) answer(c *VCtx[statsMsg], v graph.VertexID, msgs []statsMsg) {
	if len(msgs) == 0 {
		return
	}
	w := c.Worker()
	if s.cp[w] == nil {
		s.cp[w] = algo.NewClosedPairs(s.g.NumVertices())
	}
	s.cp[w].Mark(s.g.OutNeighbors(v))
	for _, m := range msgs {
		c.Send(m.from, statsMsg{from: v, count: s.cp[w].Count(m.nbh, v), reply: true})
	}
}

// degree returns |N(v)| in the worker's buffer instead of a fresh slice.
func (s *statsScratch) degree(c *VCtx[statsMsg], v graph.VertexID) int {
	w := c.Worker()
	s.buf[w] = s.g.Neighborhood(v, s.buf[w][:0])
	return len(s.buf[w])
}

// runLCC is a two-superstep neighborhood exchange (announce N(v), reply
// with closed-pair counts) after which every vertex keeps its own
// coefficient. It serves STATS too, whose mean Run folds with
// algo.StatsFromLCC. The ClosedPairs kernel makes numerators match the
// reference bit-for-bit.
func (r *run) runLCC(ctx context.Context, p algo.Params) (algo.LCCOutput, error) {
	n := r.g.NumVertices()
	lcc := make(algo.LCCOutput, n)
	if err := r.mem.Alloc(int64(n) * 8); err != nil {
		return nil, err
	}

	e := newEngine[statsMsg](r, statsMsgBytes, nil)
	scratch := newStatsScratch(r.g, e.Workers)
	compute := func(c *VCtx[statsMsg], v graph.VertexID, msgs []statsMsg) {
		switch c.Superstep() {
		case 0:
			// The neighbourhood travels in the messages, so each vertex
			// needs its own; sized to its bound, it is one allocation.
			bound := r.g.OutDegree(v)
			if r.g.Directed() && r.g.HasReverse() {
				bound += r.g.InDegree(v)
			}
			nbh := r.g.Neighborhood(v, make([]graph.VertexID, 0, bound))
			if len(nbh) >= 2 {
				for _, u := range nbh {
					c.Send(u, statsMsg{from: v, nbh: nbh})
				}
				c.CountEdges(int64(len(nbh)))
			}
		case 1:
			scratch.answer(c, v, msgs)
			c.VoteToHalt(v)
		case 2:
			var sum int64
			for _, m := range msgs {
				sum += m.count
			}
			d := float64(scratch.degree(c, v))
			if d >= 2 {
				lcc[v] = float64(sum) / (d * (d - 1))
			}
			c.VoteToHalt(v)
		default:
			c.VoteToHalt(v)
		}
	}
	if err := e.Run(ctx, compute, nil); err != nil {
		return nil, err
	}
	return lcc, nil
}
