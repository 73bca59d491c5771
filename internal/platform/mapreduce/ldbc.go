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
func prHead(buf []byte, rank float64) []byte {
	return appendFloat(append(buf, tagState), rank)
}

func (c *chain) runPageRank(ctx context.Context, p algo.Params) (algo.PROutput, error) {
	n := c.g.NumVertices()
	d := p.PRDamping
	inv := 1.0 / float64(n)
	input := inputOf(c.g, func(buf []byte, v graph.VertexID) []byte {
		return appendVertexList(prHead(buf, inv), c.g.OutNeighbors(v))
	})

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

	sc := c.scratch
	output := input
	for iter := 0; iter < p.PRIterations; iter++ {
		dangling := danglingOf(output)
		job := Job{
			Name: "pagerank-iter",
			Map: func(tc *TaskCtx, r Record, emit Emit) {
				emit(r.Key, r.Value)
				rank, buf := readFloat(r.Value[1:])
				s := sc.of(tc)
				s.vs, _ = readVertexList(s.vs, buf)
				if len(s.vs) == 0 {
					return
				}
				s.val = appendFloat(append(s.val[:0], tagMsg), rank/float64(len(s.vs)))
				for _, u := range s.vs {
					emit(int64(u), s.val)
				}
				tc.Inc("traversed", int64(len(s.vs)))
			},
			// The contributions are summed in emission order, which is
			// the same at every worker count.
			Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
				adj := emptyList
				var sum float64
				for _, v := range values {
					switch v[0] {
					case tagState:
						adj = v[1+8:]
					case tagMsg:
						contrib, _ := readFloat(v[1:])
						sum += contrib
					}
				}
				rank := (1-d)*inv + d*dangling*inv + d*sum
				s := sc.of(tc)
				s.val = append(prHead(s.val[:0], rank), adj...)
				emit(key, s.val)
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
func ssspHead(buf []byte, updated bool, dist float64) []byte {
	return appendFloat(flaggedState(buf, updated), dist)
}

func (c *chain) runSSSP(ctx context.Context, p algo.Params) (algo.SSSPOutput, error) {
	n := c.g.NumVertices()
	inf := math.Inf(1)
	input := inputOf(c.g, func(buf []byte, v graph.VertexID) []byte {
		if v == p.Source {
			buf = ssspHead(buf, true, 0)
		} else {
			buf = ssspHead(buf, false, inf)
		}
		return appendWeightedList(buf, c.g.OutNeighbors(v), c.g.OutWeights(v))
	})

	sc := c.scratch
	job := Job{
		Name: "sssp-iter",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			emit(r.Key, r.Value)
			if r.Value[1] != 1 { // not improved last round
				return
			}
			dist, buf := readFloat(r.Value[2:])
			s := sc.of(tc)
			s.vs, s.ws, _ = readWeightedList(s.vs, s.ws, buf)
			for i, u := range s.vs {
				s.val = appendFloat(append(s.val[:0], tagMsg), dist+graph.WeightAt(s.ws, i))
				emit(int64(u), s.val)
			}
			tc.Inc("traversed", int64(len(s.vs)))
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			dist, adj := math.Inf(1), emptyWeightedList
			candidate := math.Inf(1)
			for _, v := range values {
				switch v[0] {
				case tagState:
					dist, adj = readFloat(v[2:])
				case tagMsg:
					d, _ := readFloat(v[1:])
					if d < candidate {
						candidate = d
					}
				}
			}
			updated := candidate < dist
			if updated {
				dist = candidate
				tc.Inc("updates", 1)
			}
			s := sc.of(tc)
			s.val = append(ssspHead(s.val[:0], updated, dist), adj...)
			emit(key, s.val)
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

// runLCC serves both LCC and STATS, whose mean Run folds with
// algo.StatsFromLCC. Job 1 exchanges neighborhoods and closed-pair
// counts, job 2 emits each vertex's own coefficient. Each slot counts
// closed pairs against its own algo.ClosedPairs.
// Job 1 state: [tagState][out-adjacency][neighborhood].
// Neighborhood msg: [tagMsg][varint from][vertex list].
// Job 1 output state: [tagState][empty list][neighborhood].
// Job 1 output count msg: [tagMsg][varint count].
// Job 2 output: [tagMsg][float lcc_v].
func (c *chain) runLCC(ctx context.Context, p algo.Params) (algo.LCCOutput, error) {
	n := c.g.NumVertices()
	var nb []graph.VertexID
	input := inputOf(c.g, func(buf []byte, v graph.VertexID) []byte {
		nb = c.g.Neighborhood(v, nb[:0])
		return appendVertexList(appendVertexList(append(buf, tagState), c.g.OutNeighbors(v)), nb)
	})

	sc := c.scratch
	job1 := Job{
		Name: "lcc-exchange",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			emit(r.Key, r.Value)
			nbh, _ := skipVertexList(r.Value[1:]) // the neighborhood ends the state
			s := sc.of(tc)
			s.vs, _ = readVertexList(s.vs, nbh)
			if len(s.vs) < 2 {
				return
			}
			s.val = append(appendVarint(append(s.val[:0], tagMsg), r.Key), nbh...)
			for _, u := range s.vs {
				emit(int64(u), s.val)
			}
			tc.Inc("traversed", int64(len(s.vs)))
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			state := []byte{tagState, 0, 0} // no out-adjacency, empty neighborhood
			s := sc.of(tc)
			asks := s.asks[:0]
			for _, v := range values {
				switch v[0] {
				case tagState:
					state = v
				case tagMsg:
					asks = append(asks, v)
				}
			}
			s.asks = asks
			// Pass the neighborhood through so job 2 still has |N(v)|;
			// the out-adjacency is no longer needed.
			nbh, _ := skipVertexList(state[1:])
			s.val = append(append(s.val[:0], tagState, 0), nbh...)
			emit(key, s.val)
			// out(v) is marked once and each received N(w) probes it.
			cp := s.closedPairs(n)
			s.vs, _ = readVertexList(s.vs, state[1:])
			cp.Mark(s.vs)
			for _, a := range asks {
				from, buf := readVarint(a[1:])
				s.vs, _ = readVertexList(s.vs, buf)
				s.val = appendVarint(append(s.val[:0], tagMsg), cp.Count(s.vs, graph.VertexID(key)))
				emit(from, s.val)
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
			var deg uint64
			var links int64
			for _, v := range values {
				switch v[0] {
				case tagState:
					nbh, _ := skipVertexList(v[1:])
					deg, _ = readUvarint(nbh)
				case tagMsg:
					cnt, _ := readVarint(v[1:])
					links += cnt
				}
			}
			lcc := 0.0
			if d := float64(deg); d >= 2 {
				lcc = float64(links) / (d * (d - 1))
			}
			s := sc.of(tc)
			s.val = appendFloat(append(s.val[:0], tagMsg), lcc)
			emit(key, s.val)
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
