package dataflow

import (
	"cmp"
	"context"
	"slices"
	"sync/atomic"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/xrand"
)

// ------------------------------ BFS ------------------------------

func (env *Env) runBFS(ctx context.Context, p algo.Params) (algo.BFSOutput, error) {
	n := env.G.NumVertices()
	depths, err := MapVertices(ctx, env, n, 8, func(v graph.VertexID) int64 {
		if v == p.Source {
			return 0
		}
		return -1
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
		msgs, err := AggregateMessages(ctx, env, depths, 8, 8,
			func(c *Ctx[int64], u, v graph.VertexID, du, dv int64) {
				if active[u] && dv == -1 {
					c.SendToDst(v, du+1)
				}
			},
			func(a, b int64) int64 {
				if a < b {
					return a
				}
				return b
			})
		if err != nil {
			return nil, err
		}
		if msgs.Len() == 0 {
			break
		}
		nextActive := make([]bool, n)
		depths, err = JoinVertices(ctx, env, depths, 8, msgs, func(v graph.VertexID, d int64, m int64) int64 {
			if d == -1 {
				nextActive[v] = true
				return m
			}
			return d
		})
		if err != nil {
			return nil, err
		}
		active = nextActive
	}
	return algo.BFSOutput(depths), nil
}

// ------------------------------ CONN ------------------------------

func (env *Env) runConn(ctx context.Context, p algo.Params) (algo.ConnOutput, error) {
	n := env.G.NumVertices()
	labels, err := MapVertices(ctx, env, n, 4, func(v graph.VertexID) graph.VertexID { return v })
	if err != nil {
		return nil, err
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}

	min := func(a, b graph.VertexID) graph.VertexID {
		if a < b {
			return a
		}
		return b
	}
	for iter := 0; iter < p.MaxIterations; iter++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		env.Counters.Supersteps++
		msgs, err := AggregateMessages(ctx, env, labels, 4, 4,
			func(c *Ctx[graph.VertexID], u, v graph.VertexID, du, dv graph.VertexID) {
				if active[u] && du < dv {
					c.SendToDst(v, du)
				}
				if active[v] && dv < du {
					c.SendToSrc(u, dv)
				}
			}, min)
		if err != nil {
			return nil, err
		}
		if msgs.Len() == 0 {
			break
		}
		nextActive := make([]bool, n)
		var changed atomic.Bool // join closures run chunked in parallel
		labels, err = JoinVertices(ctx, env, labels, 4, msgs, func(v graph.VertexID, d graph.VertexID, m graph.VertexID) graph.VertexID {
			if m < d {
				nextActive[v] = true
				changed.Store(true)
				return m
			}
			return d
		})
		if err != nil {
			return nil, err
		}
		active = nextActive
		if !changed.Load() {
			break
		}
	}
	return algo.ConnOutput(labels), nil
}

// ------------------------------ CD ------------------------------

// cdVD is the CD vertex attribute.
type cdVD struct {
	label  int64
	score  float64
	degree int32
}

func (env *Env) runCD(ctx context.Context, p algo.Params) (algo.CDOutput, error) {
	n := env.G.NumVertices()
	// Degrees are gathered up front: the MapVertices closure runs
	// chunked in parallel, so it cannot share a scratch buffer.
	degs := make([]int32, n)
	var buf []graph.VertexID
	for v := 0; v < n; v++ {
		buf = env.G.Neighborhood(graph.VertexID(v), buf[:0])
		degs[v] = int32(len(buf))
	}
	w := algo.NewCDWeights(p.CDPreference, degs)
	verts, err := MapVertices(ctx, env, n, 20, func(v graph.VertexID) cdVD {
		return cdVD{label: int64(v), score: 1, degree: degs[v]}
	})
	if err != nil {
		return nil, err
	}

	for iter := 0; iter < p.CDIterations; iter++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		env.Counters.Supersteps++
		// Votes travel once per unordered neighbor pair (canonical arcs)
		// and are collected into one list per vertex; TallyVotes
		// canonicalizes their order.
		msgs, err := CollectMessages(ctx, env, verts, 20, 20,
			func(c *Ctx[algo.Vote], u, v graph.VertexID, du, dv cdVD) {
				if !c.Canonical(u, v) {
					return
				}
				c.SendToDst(v, algo.Vote{Label: du.label, Score: du.score, Degree: du.degree})
				c.SendToSrc(u, algo.Vote{Label: dv.label, Score: dv.score, Degree: dv.degree})
			})
		if err != nil {
			return nil, err
		}
		verts, err = JoinVertices(ctx, env, verts, 20, msgs, func(v graph.VertexID, d cdVD, votes []algo.Vote) cdVD {
			win, maxScore, ok := algo.TallyVotes(votes, w)
			if !ok {
				return d
			}
			s := maxScore
			if win != d.label {
				s -= p.CDDelta
			}
			if s < 0 {
				s = 0
			}
			return cdVD{label: win, score: s, degree: d.degree}
		})
		if err != nil {
			return nil, err
		}
	}
	out := make(algo.CDOutput, n)
	for v := 0; v < n; v++ {
		out[v] = verts[v].label
	}
	return out, nil
}

// ------------------------------ EVO ------------------------------

// evoVD is the EVO vertex attribute: the fires that burned the vertex.
type evoVD struct {
	burned []uint32
}

func (env *Env) runEvo(ctx context.Context, p algo.Params) (algo.EvoOutput, error) {
	n := env.G.NumVertices()
	k := p.EvoNewVertices

	verts, err := MapVertices(ctx, env, n, 32, func(graph.VertexID) evoVD { return evoVD{} })
	if err != nil {
		return algo.EvoOutput{}, err
	}

	burnedCount := make([]int, k)
	dead := make([]bool, k)
	allowed := newMsgs[[]uint32](n)
	for f := 0; f < k; f++ {
		a := graph.VertexID(xrand.Mix3(p.Seed, uint64(n+f), 0) % uint64(n))
		allowed.set(a, append(allowed.Get(a), uint32(f)))
		burnedCount[f] = 1
	}
	slices.Sort(allowed.keys)

	for level := 0; level < p.MaxIterations && allowed.Len() > 0; level++ {
		if err := platform.CheckContext(ctx); err != nil {
			return algo.EvoOutput{}, err
		}
		env.Counters.Supersteps++

		// Burn the approved vertices (new dataset version) and compute
		// the driver-side spread targets for this level.
		spread := make(map[graph.VertexID][]uint32) // target -> requesting fires
		verts, err = JoinVertices(ctx, env, verts, 32, allowed, func(v graph.VertexID, d evoVD, fires []uint32) evoVD {
			nb := append(append([]uint32(nil), d.burned...), fires...)
			return evoVD{burned: nb}
		})
		if err != nil {
			return algo.EvoOutput{}, err
		}
		// Deterministic spread: iterate burning vertices in ascending ID
		// order, fires ascending.
		for _, v := range allowed.keys {
			fires := slices.Clone(allowed.Get(v))
			slices.Sort(fires)
			for _, f := range fires {
				picks := algo.FirePicks(env.G, graph.VertexID(n+int(f)), v, p)
				env.Counters.Messages += int64(len(picks))
				env.Counters.MessageBytes += int64(len(picks)) * 4
				env.Counters.EdgesTraversed += int64(len(picks))
				for _, w := range picks {
					if !slices.Contains(spread[w], f) {
						spread[w] = append(spread[w], f)
					}
				}
			}
		}

		// Candidate resolution against local burn state, then the cap
		// verdict (driver master logic, same as every other platform).
		cands := make(map[uint32][]graph.VertexID)
		for w, fires := range spread {
			for _, f := range fires {
				if slices.Contains(verts[w].burned, f) {
					continue
				}
				cands[f] = append(cands[f], w)
			}
		}
		allowed = newMsgs[[]uint32](n)
		fireIDs := make([]uint32, 0, len(cands))
		for f := range cands {
			fireIDs = append(fireIDs, f)
		}
		slices.Sort(fireIDs)
		for _, f := range fireIDs {
			if dead[f] {
				continue
			}
			vs := cands[f]
			slices.Sort(vs)
			room := p.EvoMaxBurn - burnedCount[f]
			if len(vs) >= room {
				vs = vs[:room]
				dead[f] = true
			}
			burnedCount[f] += len(vs)
			for _, v := range vs {
				allowed.set(v, append(allowed.Get(v), f))
			}
		}
		slices.Sort(allowed.keys)
	}

	out := algo.EvoOutput{NewVertices: k}
	for v := 0; v < n; v++ {
		for _, f := range verts[v].burned {
			out.Edges = append(out.Edges, [2]graph.VertexID{graph.VertexID(n + int(f)), graph.VertexID(v)})
		}
	}
	slices.SortFunc(out.Edges, func(a, b [2]graph.VertexID) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return out, nil
}
