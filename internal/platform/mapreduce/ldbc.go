package mapreduce

// The three LDBC Graphalytics workloads (PR, SSSP, LCC) as MapReduce
// job chains, following the idioms of algorithms.go: vertex state
// (including adjacency) flows through every job as serialized records,
// iterative chains re-run one job until a counter goes quiet, and
// driver-side scalars (PageRank's dangling mass) are recomputed between
// jobs the way a Hadoop driver reads counters between rounds.

import (
	"context"
	"math"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
)

// ------------------------------ PR ------------------------------

// PR state value: [tagState][float rank][out-adjacency].
// Contribution msg: [tagMsg][float rank/outdeg].
func prState(rank float64, adj []graph.VertexID) []byte {
	buf := []byte{tagState}
	buf = appendFloat(buf, rank)
	return appendVertexList(buf, adj)
}

func (c *chain) runPageRank(ctx context.Context, p algo.Params) (algo.PROutput, error) {
	n := c.g.NumVertices()
	d := p.PRDamping
	inv := 1.0 / float64(n)
	input := make([]Record, n)
	for v := 0; v < n; v++ {
		input[v] = Record{Key: int64(v), Value: prState(inv, c.g.OutNeighbors(graph.VertexID(v)))}
	}

	// danglingOf sums the rank of sink vertices in a state record set —
	// the driver-side scalar each iteration's reducer needs.
	danglingOf := func(recs []Record) float64 {
		var sum float64
		for _, r := range recs {
			if r.Value[0] != tagState {
				continue
			}
			rank, buf := readFloat(r.Value[1:])
			if adjLen, _ := readUvarint(buf); adjLen == 0 {
				sum += rank
			}
		}
		return sum
	}

	output := input
	for iter := 0; iter < p.PRIterations; iter++ {
		dangling := danglingOf(output)
		job := Job{
			Name: "pagerank-iter",
			Map: func(tc *TaskCtx, r Record, emit Emit) {
				rank, buf := readFloat(r.Value[1:])
				adj, _ := readVertexList(buf)
				emit(r.Key, r.Value)
				if len(adj) == 0 {
					return
				}
				msg := appendFloat([]byte{tagMsg}, rank/float64(len(adj)))
				for _, u := range adj {
					emit(int64(u), msg)
				}
				tc.Inc("traversed", int64(len(adj)))
			},
			Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
				var adj []graph.VertexID
				var sum float64
				for _, v := range values {
					switch v[0] {
					case tagState:
						buf := v[1:]
						_, buf = readFloat(buf)
						adj, _ = readVertexList(buf)
					case tagMsg:
						contrib, _ := readFloat(v[1:])
						sum += contrib
					}
				}
				rank := (1-d)*inv + d*dangling*inv + d*sum
				emit(key, prState(rank, adj))
			},
		}
		res, err := c.Run(ctx, output, job)
		if err != nil {
			return nil, err
		}
		output = res.Output
		c.Counters.EdgesTraversed += res.Counters["traversed"]
	}

	ranks := make(algo.PROutput, n)
	for _, r := range output {
		rank, _ := readFloat(r.Value[1:])
		ranks[r.Key] = rank
	}
	return ranks, nil
}

// ------------------------------ SSSP ------------------------------

// SSSP state value: [tagState][updated][float dist][weighted adjacency].
// Candidate msg: [tagMsg][float dist].
func ssspState(updated bool, dist float64, adj []graph.VertexID, ws []float64) []byte {
	buf := []byte{tagState, 0}
	if updated {
		buf[1] = 1
	}
	buf = appendFloat(buf, dist)
	return appendWeightedList(buf, adj, ws)
}

func (c *chain) runSSSP(ctx context.Context, p algo.Params) (algo.SSSPOutput, error) {
	n := c.g.NumVertices()
	inf := math.Inf(1)
	input := make([]Record, n)
	for v := 0; v < n; v++ {
		dist, updated := inf, false
		if graph.VertexID(v) == p.Source {
			dist, updated = 0, true
		}
		input[v] = Record{Key: int64(v), Value: ssspState(updated, dist,
			c.g.OutNeighbors(graph.VertexID(v)), c.g.OutWeights(graph.VertexID(v)))}
	}

	job := Job{
		Name: "sssp-iter",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			buf := r.Value[2:]
			dist, buf := readFloat(buf)
			adj, ws, _ := readWeightedList(buf)
			emit(r.Key, r.Value)
			if r.Value[1] == 1 { // improved last round: relax out-arcs
				for i, u := range adj {
					emit(int64(u), appendFloat([]byte{tagMsg}, dist+graph.WeightAt(ws, i)))
				}
				tc.Inc("traversed", int64(len(adj)))
			}
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			dist := math.Inf(1)
			var adj []graph.VertexID
			var ws []float64
			candidate := math.Inf(1)
			for _, v := range values {
				switch v[0] {
				case tagState:
					buf := v[2:]
					dist, buf = readFloat(buf)
					adj, ws, _ = readWeightedList(buf)
				case tagMsg:
					d, _ := readFloat(v[1:])
					if d < candidate {
						candidate = d
					}
				}
			}
			updated := false
			if candidate < dist {
				dist = candidate
				updated = true
				tc.Inc("updates", 1)
			}
			emit(key, ssspState(updated, dist, adj, ws))
		},
	}

	output, err := c.iterate(ctx, algo.SSSP, input, job)
	if err != nil {
		return nil, err
	}

	dists := make(algo.SSSPOutput, n)
	for _, r := range output {
		if r.Value[0] != tagState {
			continue
		}
		d, _ := readFloat(r.Value[2:])
		dists[r.Key] = d
	}
	return dists, nil
}

// ------------------------------ LCC ------------------------------

// slotPairs holds one closed-pair counter per slot of a Cluster,
// indexed by TaskCtx.Slot and built on the slot's first use.
type slotPairs struct {
	n  int
	cp []*algo.ClosedPairs
}

func newSlotPairs(c *Cluster, n int) *slotPairs {
	return &slotPairs{n: n, cp: make([]*algo.ClosedPairs, c.workers())}
}

func (s *slotPairs) of(tc *TaskCtx) *algo.ClosedPairs {
	if s.cp[tc.Slot()] == nil {
		s.cp[tc.Slot()] = algo.NewClosedPairs(s.n)
	}
	return s.cp[tc.Slot()]
}

// runLCC serves both LCC and STATS, whose mean Run folds with
// algo.StatsFromLCC. Job 1 exchanges neighborhoods and closed-pair
// counts, job 2 emits each vertex's own coefficient.
// Job 1 state: [tagState][out-adjacency][neighborhood].
// Neighborhood msg: [tagMsg][varint from][vertex list].
// Job 1 output count msg: [tagMsg][varint count].
// Job 2 output: [tagMsg][float lcc_v].
func (c *chain) runLCC(ctx context.Context, p algo.Params) (algo.LCCOutput, error) {
	n := c.g.NumVertices()
	nbh := c.neighborhoods()
	input := make([]Record, n)
	for v := 0; v < n; v++ {
		buf := []byte{tagState}
		buf = appendVertexList(buf, c.g.OutNeighbors(graph.VertexID(v)))
		buf = appendVertexList(buf, nbh[v])
		input[v] = Record{Key: int64(v), Value: buf}
	}
	pairs := newSlotPairs(c.Cluster, n)

	job1 := Job{
		Name: "lcc-exchange",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			buf := r.Value[1:]
			_, buf = readVertexList(buf) // out-adjacency (unused by mapper)
			adjN, _ := readVertexList(buf)
			emit(r.Key, r.Value)
			if len(adjN) < 2 {
				return
			}
			msg := appendVarint([]byte{tagMsg}, r.Key)
			msg = appendVertexList(msg, adjN)
			for _, u := range adjN {
				emit(int64(u), msg)
			}
			tc.Inc("traversed", int64(len(adjN)))
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			var out, adjN []graph.VertexID
			type ask struct {
				from int64
				nbh  []graph.VertexID
			}
			var asks []ask
			for _, v := range values {
				switch v[0] {
				case tagState:
					buf := v[1:]
					out, buf = readVertexList(buf)
					adjN, _ = readVertexList(buf)
				case tagMsg:
					buf := v[1:]
					from, buf := readVarint(buf)
					nb, _ := readVertexList(buf)
					asks = append(asks, ask{from: from, nbh: nb})
				}
			}
			// Pass the state through so job 2 still has |N(v)|.
			st := []byte{tagState}
			st = appendVertexList(st, nil) // out-adjacency no longer needed
			st = appendVertexList(st, adjN)
			emit(key, st)
			// out(v) is marked once and each received N(w) probes it.
			cp := pairs.of(tc)
			cp.Mark(out)
			for _, a := range asks {
				emit(a.from, appendVarint([]byte{tagMsg}, cp.Count(a.nbh, graph.VertexID(key))))
			}
		},
	}
	res1, err := c.Run(ctx, input, job1)
	if err != nil {
		return nil, err
	}
	c.Counters.EdgesTraversed += res1.Counters["traversed"]

	job2 := Job{
		Name: "lcc-divide",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			emit(r.Key, r.Value)
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			var adjN []graph.VertexID
			var links int64
			for _, v := range values {
				switch v[0] {
				case tagState:
					buf := v[1:]
					_, buf = readVertexList(buf)
					adjN, _ = readVertexList(buf)
				case tagMsg:
					cnt, _ := readVarint(v[1:])
					links += cnt
				}
			}
			d := float64(len(adjN))
			if d >= 2 {
				emit(key, appendFloat([]byte{tagMsg}, float64(links)/(d*(d-1))))
			} else {
				emit(key, appendFloat([]byte{tagMsg}, 0))
			}
		},
	}
	res2, err := c.Run(ctx, res1.Output, job2)
	if err != nil {
		return nil, err
	}
	lcc := make(algo.LCCOutput, n)
	for _, r := range res2.Output {
		f, _ := readFloat(r.Value[1:])
		lcc[r.Key] = f
	}
	return lcc, nil
}
