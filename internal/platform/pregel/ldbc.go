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
	"graphalytics/internal/platform"
)

// ------------------------------ PR ------------------------------

// runPageRank runs the fixed-iteration LDBC PageRank. Every vertex
// stays active for the whole run (each iteration rebases on the global
// dangling mass, so even message-less vertices recompute): superstep 0
// initializes and scatters, supersteps 1..T update. The dangling mass
// of iteration t reaches iteration t+1 through the "dangling"
// aggregator; the sum combiner folds rank contributions sender-side.
func (l *loaded) runPageRank(ctx context.Context, p algo.Params) (*platform.Result, error) {
	n := l.g.NumVertices()
	counters := &platform.Counters{}
	ranks := make(algo.PROutput, n)
	if err := l.mem.Alloc(int64(n) * 8); err != nil {
		return nil, err
	}
	defer l.mem.Free(int64(n) * 8)

	d := p.PRDamping
	inv := 1.0 / float64(n)
	e := newEngine[float64](l, counters, func(float64) int64 { return 8 },
		func(a, b float64) float64 { return a + b })
	e.AggMerge = map[string]func(a, b any) any{
		"dangling": func(a, b any) any { return a.(float64) + b.(float64) },
	}
	scatter := func(c *VCtx[float64], v graph.VertexID) {
		if deg := l.g.OutDegree(v); deg > 0 {
			c.SendToOutNeighbors(v, d*ranks[v]/float64(deg))
		} else {
			c.Aggregate("dangling", ranks[v])
		}
	}
	compute := func(c *VCtx[float64], v graph.VertexID, msgs []float64) {
		step := c.Superstep()
		if step == 0 {
			ranks[v] = inv
			scatter(c, v)
			return
		}
		var sum float64
		for _, m := range msgs {
			sum += m
		}
		dangling, _ := c.AggValue("dangling").(float64)
		ranks[v] = (1-d)*inv + d*dangling*inv + sum
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
	return &platform.Result{Output: ranks, Counters: *counters}, nil
}

// ------------------------------ SSSP ------------------------------

// runSSSP is label-correcting shortest paths: the source seeds distance
// 0 and every improvement propagates dist+w along out-edges until the
// global fixpoint — the weighted generalization of the BFS frontier.
// The min combiner collapses candidate distances sender-side.
func (l *loaded) runSSSP(ctx context.Context, p algo.Params) (*platform.Result, error) {
	n := l.g.NumVertices()
	counters := &platform.Counters{}
	dist := make(algo.SSSPOutput, n)
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = inf
	}
	if err := l.mem.Alloc(int64(n) * 8); err != nil {
		return nil, err
	}
	defer l.mem.Free(int64(n) * 8)

	e := newEngine[float64](l, counters, func(float64) int64 { return 8 },
		func(a, b float64) float64 { return math.Min(a, b) })
	relax := func(c *VCtx[float64], v graph.VertexID) {
		adj := l.g.OutNeighbors(v)
		ws := l.g.OutWeights(v)
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
	return &platform.Result{Output: dist, Counters: *counters}, nil
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
func (l *loaded) runLCC(ctx context.Context, p algo.Params) (*platform.Result, error) {
	n := l.g.NumVertices()
	counters := &platform.Counters{}
	lcc := make(algo.LCCOutput, n)
	if err := l.mem.Alloc(int64(n) * 8); err != nil {
		return nil, err
	}
	defer l.mem.Free(int64(n) * 8)

	e := newEngine[statsMsg](l, counters, statsMsgBytes, nil)
	scratch := newStatsScratch(l.g, e.Workers)
	compute := func(c *VCtx[statsMsg], v graph.VertexID, msgs []statsMsg) {
		switch c.Superstep() {
		case 0:
			// The neighbourhood travels in the messages, so each vertex
			// needs its own; sized to its bound, it is one allocation.
			bound := l.g.OutDegree(v)
			if l.g.Directed() && l.g.HasReverse() {
				bound += l.g.InDegree(v)
			}
			nbh := l.g.Neighborhood(v, make([]graph.VertexID, 0, bound))
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
	return &platform.Result{Output: lcc, Counters: *counters}, nil
}
