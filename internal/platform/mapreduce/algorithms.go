package mapreduce

import (
	"context"
	"fmt"
	"sort"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/xrand"
)

// Record value tags.
const (
	tagState byte = 1
	tagMsg   byte = 2
)

// iterate reruns job on its own output until the "updates" counter goes
// quiet, adding each job's "traversed" counter to the engine counters.
// A chain still updating after MaxJobs jobs is an error: its state is
// not the algorithm's output.
func (c *chain) iterate(ctx context.Context, kind algo.Kind, input []Record, job Job) ([]Record, error) {
	output := input
	for i := 0; i < c.maxJobs; i++ {
		res, err := c.Run(ctx, output, job)
		if err != nil {
			return nil, err
		}
		output = res.Output
		c.Counters.EdgesTraversed += res.Counters["traversed"]
		if res.Counters["updates"] == 0 {
			return output, nil
		}
	}
	return nil, errCapped(kind, c.maxJobs)
}

// errCapped reports a job chain cut off by MaxJobs before it converged.
func errCapped(kind algo.Kind, maxJobs int) error {
	return fmt.Errorf("mapreduce: %s did not converge within MaxJobs=%d jobs", kind, maxJobs)
}

// ------------------------------ BFS ------------------------------

// BFS state value: [tagState][updated][zigzag depth][out-adjacency].
// Msg value: [tagMsg][varint depth].
func bfsState(updated bool, depth int64, adj []graph.VertexID) []byte {
	buf := []byte{tagState, 0}
	if updated {
		buf[1] = 1
	}
	buf = appendVarint(buf, depth)
	return appendVertexList(buf, adj)
}

// bfsJob is one BFS level: every vertex passes its state through, and a
// vertex reached last round sends depth+1 to its out-neighbors.
func bfsJob() Job {
	return Job{
		Name: "bfs-iter",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			buf := r.Value[2:]
			depth, buf := readVarint(buf)
			adj, _ := readVertexList(buf)
			emit(r.Key, r.Value)
			if r.Value[1] == 1 { // updated last round: expand frontier
				msg := appendVarint([]byte{tagMsg}, depth+1)
				for _, u := range adj {
					emit(int64(u), msg)
				}
				tc.Inc("traversed", int64(len(adj)))
			}
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			var depth int64 = -1
			var adj []graph.VertexID
			candidate := int64(-1)
			for _, v := range values {
				switch v[0] {
				case tagState:
					buf := v[2:]
					depth, buf = readVarint(buf)
					adj, _ = readVertexList(buf)
				case tagMsg:
					d, _ := readVarint(v[1:])
					if candidate == -1 || d < candidate {
						candidate = d
					}
				}
			}
			updated := false
			if depth == -1 && candidate != -1 {
				depth = candidate
				updated = true
				tc.Inc("updates", 1)
			}
			emit(key, bfsState(updated, depth, adj))
		},
	}
}

// bfsInput is the state of every vertex of g before the first level.
func bfsInput(g *graph.Graph, source graph.VertexID) []Record {
	input := make([]Record, g.NumVertices())
	for v := range input {
		depth := int64(-1)
		updated := false
		if graph.VertexID(v) == source {
			depth, updated = 0, true
		}
		input[v] = Record{Key: int64(v), Value: bfsState(updated, depth, g.OutNeighbors(graph.VertexID(v)))}
	}
	return input
}

func (c *chain) runBFS(ctx context.Context, p algo.Params) (algo.BFSOutput, error) {
	n := c.g.NumVertices()
	output, err := c.iterate(ctx, algo.BFS, bfsInput(c.g, p.Source), bfsJob())
	if err != nil {
		return nil, err
	}

	depths := make(algo.BFSOutput, n)
	for _, r := range output {
		if r.Value[0] != tagState {
			continue
		}
		d, _ := readVarint(r.Value[2:])
		depths[r.Key] = d
	}
	return depths, nil
}

// ------------------------------ CONN ------------------------------

// CONN state value: [tagState][updated][varint label][neighborhood].
func connState(updated bool, label int64, adj []graph.VertexID) []byte {
	buf := []byte{tagState, 0}
	if updated {
		buf[1] = 1
	}
	buf = appendVarint(buf, label)
	return appendVertexList(buf, adj)
}

func (c *chain) runConn(ctx context.Context, p algo.Params) (algo.ConnOutput, error) {
	n := c.g.NumVertices()
	nbh := c.neighborhoods()
	input := make([]Record, n)
	for v := 0; v < n; v++ {
		input[v] = Record{Key: int64(v), Value: connState(true, int64(v), nbh[v])}
	}

	job := Job{
		Name: "conn-iter",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			buf := r.Value[2:]
			label, buf := readVarint(buf)
			adj, _ := readVertexList(buf)
			emit(r.Key, r.Value)
			if r.Value[1] == 1 {
				msg := appendVarint([]byte{tagMsg}, label)
				for _, u := range adj {
					emit(int64(u), msg)
				}
				tc.Inc("traversed", int64(len(adj)))
			}
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			var label int64 = -1
			var adj []graph.VertexID
			candidate := int64(-1)
			for _, v := range values {
				switch v[0] {
				case tagState:
					buf := v[2:]
					label, buf = readVarint(buf)
					adj, _ = readVertexList(buf)
				case tagMsg:
					m, _ := readVarint(v[1:])
					if candidate == -1 || m < candidate {
						candidate = m
					}
				}
			}
			updated := false
			if candidate != -1 && candidate < label {
				label = candidate
				updated = true
				tc.Inc("updates", 1)
			}
			emit(key, connState(updated, label, adj))
		},
	}

	output, err := c.iterate(ctx, algo.CONN, input, job)
	if err != nil {
		return nil, err
	}

	labels := make(algo.ConnOutput, n)
	for _, r := range output {
		lbl, _ := readVarint(r.Value[2:])
		labels[r.Key] = graph.VertexID(lbl)
	}
	return labels, nil
}

// ------------------------------ CD ------------------------------

// CD state value: [tagState][varint label][float score][uvarint degree][neighborhood].
// Vote msg: [tagMsg][varint label][float score][uvarint degree].
func cdState(label int64, score float64, degree int, adj []graph.VertexID) []byte {
	buf := []byte{tagState}
	buf = appendVarint(buf, label)
	buf = appendFloat(buf, score)
	buf = appendUvarint(buf, uint64(degree))
	return appendVertexList(buf, adj)
}

func (c *chain) runCD(ctx context.Context, p algo.Params) (algo.CDOutput, error) {
	n := c.g.NumVertices()
	nbh := c.neighborhoods()
	input := make([]Record, n)
	degs := make([]int32, n)
	for v := 0; v < n; v++ {
		input[v] = Record{Key: int64(v), Value: cdState(int64(v), 1, len(nbh[v]), nbh[v])}
		degs[v] = int32(len(nbh[v]))
	}
	w := algo.NewCDWeights(p.CDPreference, degs)

	job := Job{
		Name: "cd-iter",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			buf := r.Value[1:]
			label, buf := readVarint(buf)
			score, buf := readFloat(buf)
			degree, buf := readUvarint(buf)
			adj, _ := readVertexList(buf)
			emit(r.Key, r.Value)
			if len(adj) == 0 {
				return
			}
			msg := []byte{tagMsg}
			msg = appendVarint(msg, label)
			msg = appendFloat(msg, score)
			msg = appendUvarint(msg, degree)
			for _, u := range adj {
				emit(int64(u), msg)
			}
			tc.Inc("traversed", int64(len(adj)))
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			var label int64
			var score float64
			var degree uint64
			var adj []graph.VertexID
			votes := make([]algo.Vote, 0, len(values))
			for _, v := range values {
				switch v[0] {
				case tagState:
					buf := v[1:]
					label, buf = readVarint(buf)
					score, buf = readFloat(buf)
					degree, buf = readUvarint(buf)
					adj, _ = readVertexList(buf)
				case tagMsg:
					buf := v[1:]
					vl, buf := readVarint(buf)
					vs, buf := readFloat(buf)
					vd, _ := readUvarint(buf)
					votes = append(votes, algo.Vote{Label: vl, Score: vs, Degree: int32(vd)})
				}
			}
			if win, maxScore, ok := algo.TallyVotes(votes, w); ok {
				s := maxScore
				if win != label {
					s -= p.CDDelta
				}
				if s < 0 {
					s = 0
				}
				label, score = win, s
			}
			emit(key, cdState(label, score, int(degree), adj))
		},
	}

	output := input
	for iter := 0; iter < p.CDIterations; iter++ {
		res, err := c.Run(ctx, output, job)
		if err != nil {
			return nil, err
		}
		output = res.Output
		c.Counters.EdgesTraversed += res.Counters["traversed"]
	}

	labels := make(algo.CDOutput, n)
	for _, r := range output {
		lbl, _ := readVarint(r.Value[1:])
		labels[r.Key] = lbl
	}
	return labels, nil
}

// ------------------------------ EVO ------------------------------

// EVO state: [tagState][out-adjacency][in-adjacency][burned fires list].
// Burn request msg: [tagMsg][uvarint fire].
// Candidate output record: key = -(2+fire), value = [uvarint vertex].
func evoState(out, in []graph.VertexID, burned []uint32) []byte {
	buf := []byte{tagState}
	buf = appendVertexList(buf, out)
	buf = appendVertexList(buf, in)
	buf = appendUvarint(buf, uint64(len(burned)))
	for _, f := range burned {
		buf = appendUvarint(buf, uint64(f))
	}
	return buf
}

func readEvoState(v []byte) (out, in []graph.VertexID, burned []uint32) {
	buf := v[1:]
	out, buf = readVertexList(buf)
	in, buf = readVertexList(buf)
	nb, buf := readUvarint(buf)
	burned = make([]uint32, nb)
	for i := range burned {
		var f uint64
		f, buf = readUvarint(buf)
		burned[i] = uint32(f)
	}
	return out, in, burned
}

func (c *chain) runEvo(ctx context.Context, p algo.Params) (algo.EvoOutput, error) {
	n := c.g.NumVertices()
	k := p.EvoNewVertices

	// Driver-side master state (the job chain's coordination logic).
	burnedCount := make([]int, k)
	dead := make([]bool, k)
	allowed := make(map[graph.VertexID][]uint32) // vertex -> fires to burn this round
	for f := 0; f < k; f++ {
		a := graph.VertexID(algoAmbassador(p.Seed, n, f))
		allowed[a] = append(allowed[a], uint32(f))
		burnedCount[f] = 1
	}

	input := make([]Record, n)
	for v := 0; v < n; v++ {
		var in []graph.VertexID
		out := c.g.OutNeighbors(graph.VertexID(v))
		if c.g.Directed() && c.g.HasReverse() {
			in = c.g.InNeighbors(graph.VertexID(v))
		} else {
			in = out
		}
		input[v] = Record{Key: int64(v), Value: evoState(out, in, nil)}
	}

	output := input
	for round := 0; round < c.maxJobs; round++ {
		if len(allowed) == 0 {
			break
		}
		roundAllowed := allowed
		job := Job{
			Name: fmt.Sprintf("evo-level-%d", round),
			Map: func(tc *TaskCtx, r Record, emit Emit) {
				out, in, burned := readEvoState(r.Value)
				newly := roundAllowed[graph.VertexID(r.Key)]
				if len(newly) > 0 {
					burned = append(burned, newly...)
					for _, f := range newly {
						picks := algo.FirePicksFromLists(graph.VertexID(n+int(f)), graph.VertexID(r.Key), out, in, p)
						msg := appendUvarint([]byte{tagMsg}, uint64(f))
						for _, w := range picks {
							emit(int64(w), msg)
						}
						tc.Inc("traversed", int64(len(picks)))
					}
				}
				emit(r.Key, evoState(out, in, burned))
			},
			Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
				var state []byte
				var requests []uint32
				for _, v := range values {
					switch v[0] {
					case tagState:
						state = v
					case tagMsg:
						f, _ := readUvarint(v[1:])
						requests = append(requests, uint32(f))
					}
				}
				emit(key, state)
				if len(requests) == 0 {
					return
				}
				_, _, burned := readEvoState(state)
				has := func(f uint32) bool {
					for _, x := range burned {
						if x == f {
							return true
						}
					}
					return false
				}
				emitted := map[uint32]bool{}
				for _, f := range requests {
					if has(f) || emitted[f] {
						continue
					}
					emitted[f] = true
					emit(-(2 + int64(f)), appendUvarint(nil, uint64(key)))
				}
			},
		}
		res, err := c.Run(ctx, output, job)
		if err != nil {
			return algo.EvoOutput{}, err
		}
		c.Counters.EdgesTraversed += res.Counters["traversed"]

		// Split candidates from state records; run the cap verdict.
		cands := make(map[uint32][]graph.VertexID)
		output = output[:0]
		for _, r := range res.Output {
			if r.Key <= -2 {
				f := uint32(-r.Key - 2)
				v, _ := readUvarint(r.Value)
				cands[f] = append(cands[f], graph.VertexID(v))
				continue
			}
			output = append(output, r)
		}
		allowed = make(map[graph.VertexID][]uint32)
		fires := make([]int, 0, len(cands))
		for f := range cands {
			fires = append(fires, int(f))
		}
		sort.Ints(fires)
		for _, fi := range fires {
			f := uint32(fi)
			if dead[f] {
				continue
			}
			vs := cands[f]
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
			uniq := vs[:0]
			var last graph.VertexID
			for i, v := range vs {
				if i == 0 || v != last {
					uniq = append(uniq, v)
					last = v
				}
			}
			room := p.EvoMaxBurn - burnedCount[f]
			if len(uniq) >= room {
				uniq = uniq[:room]
				dead[f] = true
			}
			burnedCount[f] += len(uniq)
			for _, v := range uniq {
				allowed[v] = append(allowed[v], f)
			}
		}
	}

	if len(allowed) > 0 {
		return algo.EvoOutput{}, errCapped(algo.EVO, c.maxJobs)
	}

	evo := algo.EvoOutput{NewVertices: k}
	for _, r := range output {
		_, _, burned := readEvoState(r.Value)
		for _, f := range burned {
			evo.Edges = append(evo.Edges, [2]graph.VertexID{graph.VertexID(n + int(f)), graph.VertexID(r.Key)})
		}
	}
	sort.Slice(evo.Edges, func(i, j int) bool {
		if evo.Edges[i][0] != evo.Edges[j][0] {
			return evo.Edges[i][0] < evo.Edges[j][0]
		}
		return evo.Edges[i][1] < evo.Edges[j][1]
	})
	return evo, nil
}

// algoAmbassador mirrors the reference ambassador selection
// (algo.BurnFire): Mix3(seed, newVertexID, 0) mod n.
func algoAmbassador(seed uint64, n, fire int) uint64 {
	return xrand.Mix3(seed, uint64(n+fire), 0) % uint64(n)
}
