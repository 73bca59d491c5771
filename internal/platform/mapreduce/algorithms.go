package mapreduce

import (
	"context"
	"fmt"
	"slices"
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

// scratch is one slot's buffers, reused from record to record and, on a
// chain taken again from its loaded graph's free list, from run to run:
// the value under construction (emit copies it), decoded vertex lists
// and weights, and the per-key state of CD, LCC and EVO reducers.
type scratch struct {
	val     []byte
	vs, vs2 []graph.VertexID
	ws      []float64
	votes   []algo.Vote
	asks    [][]byte
	fires   []uint32 // EVO burn requests
	burned  []uint32
	pairs   *algo.ClosedPairs
}

// scratches holds one scratch per slot of a Cluster.
type scratches []scratch

// of returns the scratch of the slot running tc's task.
func (s scratches) of(tc *TaskCtx) *scratch { return &s[tc.Slot()] }

// closedPairs returns the slot's closed-pair counter over n vertices,
// built on its first use.
func (s *scratch) closedPairs(n int) *algo.ClosedPairs {
	if s.pairs == nil {
		s.pairs = algo.NewClosedPairs(n)
	}
	return s.pairs
}

// inputOf builds a chain's first input: one record per vertex of g,
// whose value state appends to buf. The values are carved from 64 KiB
// blocks: neither one allocation per vertex nor one buffer that grows
// by copying.
func inputOf(g *graph.Graph, state func(buf []byte, v graph.VertexID) []byte) []Record {
	input := make([]Record, g.NumVertices())
	var rec, arena []byte
	for v := range input {
		rec = state(rec[:0], graph.VertexID(v))
		if cap(arena)-len(arena) < len(rec) {
			arena = make([]byte, 0, max(len(rec), 64<<10))
		}
		start := len(arena)
		arena = append(arena, rec...)
		input[v] = Record{Key: int64(v), Value: arena[start:len(arena):len(arena)]}
	}
	return input
}

// ------------------------------ BFS, CONN ------------------------------

// BFS state value: [tagState][updated][zigzag depth][out-adjacency].
// CONN state value: [tagState][updated][varint label][neighborhood].
// Msg value: [tagMsg][varint depth or label].

// flaggedState appends the first two bytes of a BFS, CONN or SSSP
// state value: [tagState][updated].
func flaggedState(buf []byte, updated bool) []byte {
	if updated {
		return append(buf, tagState, 1)
	}
	return append(buf, tagState, 0)
}

// flaggedHead appends the head of a BFS or CONN state value:
// [tagState][updated][varint x], where x is the depth or the label.
// The vertex list follows it.
func flaggedHead(buf []byte, updated bool, x int64) []byte {
	return appendVarint(flaggedState(buf, updated), x)
}

// minJob is one round of BFS or CONN, which are the same job on
// different state: every vertex passes its state through, a vertex
// updated last round sends msg(x) to the vertices of its list, and a
// vertex takes the least x it receives when that is less than its own
// or it has none (x = -1, a BFS vertex not reached yet).
func minJob(name string, sc scratches, msg func(x int64) int64) Job {
	return Job{
		Name: name,
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			emit(r.Key, r.Value)
			if r.Value[1] != 1 {
				return
			}
			x, buf := readVarint(r.Value[2:])
			s := sc.of(tc)
			s.vs, _ = readVertexList(s.vs, buf)
			s.val = appendVarint(append(s.val[:0], tagMsg), msg(x))
			for _, u := range s.vs {
				emit(int64(u), s.val)
			}
			tc.Inc("traversed", int64(len(s.vs)))
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			x, list := int64(-1), emptyList
			candidate := int64(-1)
			for _, v := range values {
				switch v[0] {
				case tagState:
					x, list = readVarint(v[2:])
				case tagMsg:
					m, _ := readVarint(v[1:])
					if candidate == -1 || m < candidate {
						candidate = m
					}
				}
			}
			updated := candidate != -1 && (x == -1 || candidate < x)
			if updated {
				x = candidate
				tc.Inc("updates", 1)
			}
			s := sc.of(tc)
			s.val = append(flaggedHead(s.val[:0], updated, x), list...)
			emit(key, s.val)
		},
	}
}

// bfsJob is one BFS level: a vertex reached last round sends depth+1
// to its out-neighbors.
func bfsJob(sc scratches) Job {
	return minJob("bfs-iter", sc, func(depth int64) int64 { return depth + 1 })
}

// bfsInput is the state of every vertex of g before the first level.
func bfsInput(g *graph.Graph, source graph.VertexID) []Record {
	return inputOf(g, func(buf []byte, v graph.VertexID) []byte {
		if v == source {
			return appendVertexList(flaggedHead(buf, true, 0), g.OutNeighbors(v))
		}
		return appendVertexList(flaggedHead(buf, false, -1), g.OutNeighbors(v))
	})
}

func (c *chain) runBFS(ctx context.Context, p algo.Params) (algo.BFSOutput, error) {
	n := c.g.NumVertices()
	output, err := c.iterate(ctx, algo.BFS, bfsInput(c.g, p.Source), bfsJob(c.scratch))
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

func (c *chain) runConn(ctx context.Context, p algo.Params) (algo.ConnOutput, error) {
	n := c.g.NumVertices()
	var nb []graph.VertexID
	input := inputOf(c.g, func(buf []byte, v graph.VertexID) []byte {
		nb = c.g.Neighborhood(v, nb[:0])
		return appendVertexList(flaggedHead(buf, true, int64(v)), nb)
	})

	job := minJob("conn-iter", c.scratch, func(label int64) int64 { return label })
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
func cdHead(buf []byte, label int64, score float64, degree uint64) []byte {
	buf = appendVarint(append(buf, tagState), label)
	buf = appendFloat(buf, score)
	return appendUvarint(buf, degree)
}

func (c *chain) runCD(ctx context.Context, p algo.Params) (algo.CDOutput, error) {
	n := c.g.NumVertices()
	degs := make([]int32, n)
	var nb []graph.VertexID
	input := inputOf(c.g, func(buf []byte, v graph.VertexID) []byte {
		nb = c.g.Neighborhood(v, nb[:0])
		degs[v] = int32(len(nb))
		return appendVertexList(cdHead(buf, int64(v), 1, uint64(len(nb))), nb)
	})
	w := algo.NewCDWeights(p.CDPreference, degs)

	sc := c.scratch
	job := Job{
		Name: "cd-iter",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			emit(r.Key, r.Value)
			buf := r.Value[1:]
			_, buf = readVarint(buf)
			_, buf = readFloat(buf)
			_, buf = readUvarint(buf)
			s := sc.of(tc)
			s.vs, _ = readVertexList(s.vs, buf)
			if len(s.vs) == 0 {
				return
			}
			// The vote is the state's label, score and degree as they are.
			s.val = append(append(s.val[:0], tagMsg), r.Value[1:len(r.Value)-len(buf)]...)
			for _, u := range s.vs {
				emit(int64(u), s.val)
			}
			tc.Inc("traversed", int64(len(s.vs)))
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			var label int64
			var score float64
			var degree uint64
			adj := emptyList
			s := sc.of(tc)
			votes := s.votes[:0]
			for _, v := range values {
				switch v[0] {
				case tagState:
					buf := v[1:]
					label, buf = readVarint(buf)
					score, buf = readFloat(buf)
					degree, adj = readUvarint(buf)
				case tagMsg:
					buf := v[1:]
					vl, buf := readVarint(buf)
					vs, buf := readFloat(buf)
					vd, _ := readUvarint(buf)
					votes = append(votes, algo.Vote{Label: vl, Score: vs, Degree: int32(vd)})
				}
			}
			s.votes = votes
			if win, maxScore, ok := algo.TallyVotes(votes, w); ok {
				if win != label {
					maxScore -= p.CDDelta
				}
				if maxScore < 0 {
					maxScore = 0
				}
				label, score = win, maxScore
			}
			s.val = append(cdHead(s.val[:0], label, score, degree), adj...)
			emit(key, s.val)
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

// evoInput appends the state of a vertex that no fire has burned yet.
func evoInput(buf []byte, out, in []graph.VertexID) []byte {
	buf = appendVertexList(append(buf, tagState), out)
	return append(appendVertexList(buf, in), 0)
}

// evoFires splits an EVO state value after its two adjacency lists: it
// returns the head up to there, the number of burned fires and the
// bytes that encode them.
func evoFires(v []byte) (head []byte, nb uint64, fires []byte) {
	buf, _ := skipVertexList(v[1:])
	buf, _ = skipVertexList(buf)
	nb, fires = readUvarint(buf)
	return v[:len(v)-len(buf)], nb, fires
}

// readBurned decodes the burned fires of an EVO state value into dst[:0].
func readBurned(dst []uint32, v []byte) []uint32 {
	_, nb, buf := evoFires(v)
	dst = dst[:0]
	for range nb {
		var f uint64
		f, buf = readUvarint(buf)
		dst = append(dst, uint32(f))
	}
	return dst
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

	input := inputOf(c.g, func(buf []byte, v graph.VertexID) []byte {
		out := c.g.OutNeighbors(v)
		if c.g.Directed() && c.g.HasReverse() {
			return evoInput(buf, out, c.g.InNeighbors(v))
		}
		return evoInput(buf, out, out)
	})

	sc := c.scratch
	output := input
	for round := 0; round < c.maxJobs; round++ {
		if len(allowed) == 0 {
			break
		}
		roundAllowed := allowed
		job := Job{
			Name: fmt.Sprintf("evo-level-%d", round),
			Map: func(tc *TaskCtx, r Record, emit Emit) {
				newly := roundAllowed[graph.VertexID(r.Key)]
				if len(newly) == 0 {
					emit(r.Key, r.Value)
					return
				}
				s := sc.of(tc)
				buf := r.Value[1:]
				s.vs, buf = readVertexList(s.vs, buf)
				s.vs2, _ = readVertexList(s.vs2, buf)
				for _, f := range newly {
					picks := algo.FirePicksFromLists(graph.VertexID(n+int(f)), graph.VertexID(r.Key), s.vs, s.vs2, p)
					s.val = appendUvarint(append(s.val[:0], tagMsg), uint64(f))
					for _, w := range picks {
						emit(int64(w), s.val)
					}
					tc.Inc("traversed", int64(len(picks)))
				}
				// The state gains the newly burned fires after its own.
				head, nb, fires := evoFires(r.Value)
				s.val = appendUvarint(append(s.val[:0], head...), nb+uint64(len(newly)))
				s.val = append(s.val, fires...)
				for _, f := range newly {
					s.val = appendUvarint(s.val, uint64(f))
				}
				emit(r.Key, s.val)
			},
			Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
				var state []byte
				s := sc.of(tc)
				requests := s.fires[:0]
				for _, v := range values {
					switch v[0] {
					case tagState:
						state = v
					case tagMsg:
						f, _ := readUvarint(v[1:])
						requests = append(requests, uint32(f))
					}
				}
				s.fires = requests
				emit(key, state)
				if len(requests) == 0 {
					return
				}
				// Each fire asking to burn key and not burned there yet
				// makes key one candidate of that fire.
				slices.Sort(requests)
				s.burned = readBurned(s.burned, state)
				for _, f := range slices.Compact(requests) {
					if !slices.Contains(s.burned, f) {
						s.val = appendUvarint(s.val[:0], uint64(key))
						emit(-(2 + int64(f)), s.val)
					}
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
	var burned []uint32
	for _, r := range output {
		burned = readBurned(burned, r.Value)
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
