package pregel

import (
	"context"
	"sort"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/xrand"
)

// ------------------------------ BFS ------------------------------

// runBFS is the vertex-centric BFS: the frontier expands one level per
// superstep; visited vertices absorb further messages. The combiner
// collapses duplicate frontier messages to one.
func (r *run) runBFS(ctx context.Context, p algo.Params) (algo.BFSOutput, error) {
	n := r.g.NumVertices()
	depth := make(algo.BFSOutput, n)
	for i := range depth {
		depth[i] = -1
	}
	if err := r.mem.Alloc(int64(n) * 8); err != nil {
		return nil, err
	}

	e := newEngine[struct{}](r, func(struct{}) int64 { return 1 },
		func(a, _ struct{}) struct{} { return a })
	compute := func(c *VCtx[struct{}], v graph.VertexID, msgs []struct{}) {
		switch {
		case c.Superstep() == 0:
			if v == p.Source {
				depth[v] = 0
				c.SendToOutNeighbors(v, struct{}{})
			}
		case depth[v] == -1 && len(msgs) > 0:
			depth[v] = int64(c.Superstep())
			c.SendToOutNeighbors(v, struct{}{})
		}
		c.VoteToHalt(v)
	}
	if err := e.Run(ctx, compute, nil); err != nil {
		return nil, err
	}
	return depth, nil
}

// ------------------------------ CONN ------------------------------

// runConn is HashMin label propagation: every vertex repeatedly adopts
// the minimum label among itself and its neighbors (both directions for
// weak connectivity) until a global fixpoint. The min combiner collapses
// message traffic.
func (r *run) runConn(ctx context.Context, p algo.Params) (algo.ConnOutput, error) {
	n := r.g.NumVertices()
	labels := make(algo.ConnOutput, n)
	if err := r.mem.Alloc(int64(n) * 4); err != nil {
		return nil, err
	}

	e := newEngine[graph.VertexID](r, func(graph.VertexID) int64 { return 4 },
		func(a, b graph.VertexID) graph.VertexID {
			if a < b {
				return a
			}
			return b
		})
	compute := func(c *VCtx[graph.VertexID], v graph.VertexID, msgs []graph.VertexID) {
		if c.Superstep() == 0 {
			labels[v] = v
			c.SendToAllNeighbors(v, v)
			c.VoteToHalt(v)
			return
		}
		min := labels[v]
		for _, m := range msgs {
			if m < min {
				min = m
			}
		}
		if min < labels[v] {
			labels[v] = min
			c.SendToAllNeighbors(v, min)
		}
		c.VoteToHalt(v)
	}
	if err := e.Run(ctx, compute, nil); err != nil {
		return nil, err
	}
	return labels, nil
}

// ------------------------------ CD ------------------------------

// runCD runs Leung label propagation for exactly CDIterations rounds.
// Votes are tallied with algo.TallyVotes, the shared kernel, so label
// elections are bit-identical to the reference.
func (r *run) runCD(ctx context.Context, p algo.Params) (algo.CDOutput, error) {
	n := r.g.NumVertices()
	labels := make([]int64, n)
	scores := make([]float64, n)
	degs := make([]int32, n)
	if err := r.mem.Alloc(int64(n) * 20); err != nil {
		return nil, err
	}
	var buf []graph.VertexID
	for v := 0; v < n; v++ {
		labels[v] = int64(v)
		scores[v] = 1
		buf = r.g.Neighborhood(graph.VertexID(v), buf[:0])
		degs[v] = int32(len(buf))
	}
	w := algo.NewCDWeights(p.CDPreference, degs)

	e := newEngine[algo.Vote](r, func(algo.Vote) int64 { return 20 }, nil)
	compute := func(c *VCtx[algo.Vote], v graph.VertexID, msgs []algo.Vote) {
		step := c.Superstep()
		if step == 0 {
			if degs[v] == 0 {
				c.VoteToHalt(v)
				return
			}
			c.SendToAllNeighbors(v, algo.Vote{Label: labels[v], Score: scores[v], Degree: degs[v]})
			return
		}
		win, maxScore, ok := algo.TallyVotes(msgs, w)
		if ok {
			s := maxScore
			if win != labels[v] {
				s -= p.CDDelta
			}
			if s < 0 {
				s = 0
			}
			labels[v] = win
			scores[v] = s
		}
		if step < p.CDIterations {
			c.SendToAllNeighbors(v, algo.Vote{Label: labels[v], Score: scores[v], Degree: degs[v]})
		} else {
			c.VoteToHalt(v)
		}
	}
	master := func(step int, agg map[string]any) (map[string]any, bool) {
		return nil, step >= p.CDIterations
	}
	if err := e.Run(ctx, compute, master); err != nil {
		return nil, err
	}
	return algo.CDOutput(labels), nil
}

// ------------------------------ EVO ------------------------------

// evoMsg is a burn request for one fire.
type evoMsg struct{ fire uint32 }

// evoAggCand aggregates the per-fire candidate lists the master
// truncates against each fire's burn cap.
type evoAggCand map[uint32][]graph.VertexID

// runEvo executes all forest fires simultaneously, two supersteps per
// fire level: requests travel in one step, the master's cap verdict is
// published through an aggregator, and approved candidates burn and
// spread in the next.
func (r *run) runEvo(ctx context.Context, p algo.Params) (algo.EvoOutput, error) {
	n := r.g.NumVertices()
	k := p.EvoNewVertices

	// Ambassador map: vertex -> fires it seeds.
	ambassadors := make(map[graph.VertexID][]uint32)
	for f := 0; f < k; f++ {
		a := graph.VertexID(xrand.Mix3(p.Seed, uint64(n+f), 0) % uint64(n))
		ambassadors[a] = append(ambassadors[a], uint32(f))
	}

	burnedBy := make([][]uint32, n) // fires that burned each vertex
	pending := make([][]uint32, n)  // candidacies awaiting master verdict
	if err := r.mem.Alloc(int64(n) * 48); err != nil {
		return algo.EvoOutput{}, err
	}

	burnedCount := make([]int, k)
	dead := make([]bool, k)
	for f := range burnedCount {
		burnedCount[f] = 1 // the ambassador
	}

	e := newEngine[evoMsg](r, func(evoMsg) int64 { return 4 }, nil)
	e.AggMerge = map[string]func(a, b any) any{
		"cand": func(a, b any) any {
			am, bm := a.(evoAggCand), b.(evoAggCand)
			for f, vs := range bm {
				am[f] = append(am[f], vs...)
			}
			return am
		},
	}

	hasFire := func(list []uint32, f uint32) bool {
		for _, x := range list {
			if x == f {
				return true
			}
		}
		return false
	}
	spread := func(c *VCtx[evoMsg], v graph.VertexID, f uint32) {
		picks := algo.FirePicks(r.g, graph.VertexID(n+int(f)), v, p)
		for _, w := range picks {
			c.Send(w, evoMsg{fire: f})
		}
		c.CountEdges(int64(len(picks)))
	}

	compute := func(c *VCtx[evoMsg], v graph.VertexID, msgs []evoMsg) {
		if c.Superstep() == 0 {
			for _, f := range ambassadors[v] {
				burnedBy[v] = append(burnedBy[v], f)
				spread(c, v, f)
			}
			c.VoteToHalt(v)
			return
		}
		// Phase C: resolve pending candidacies against the verdict.
		if len(pending[v]) > 0 {
			allowed, _ := c.AggValue("allow").(map[uint32]map[graph.VertexID]bool)
			for _, f := range pending[v] {
				if allowed != nil && allowed[f] != nil && allowed[f][v] {
					burnedBy[v] = append(burnedBy[v], f)
					spread(c, v, f)
				}
			}
			pending[v] = pending[v][:0]
		}
		// Phase B: register candidacies for incoming burn requests.
		cands := evoAggCand{}
		for _, m := range msgs {
			if hasFire(burnedBy[v], m.fire) || hasFire(pending[v], m.fire) {
				continue
			}
			pending[v] = append(pending[v], m.fire)
			cands[m.fire] = append(cands[m.fire], v)
		}
		if len(cands) > 0 {
			c.Aggregate("cand", cands)
			// Stay active to receive the verdict next superstep.
			return
		}
		c.VoteToHalt(v)
	}

	master := func(step int, agg map[string]any) (map[string]any, bool) {
		cands, _ := agg["cand"].(evoAggCand)
		allow := make(map[uint32]map[graph.VertexID]bool)
		for f, vs := range cands {
			if dead[f] {
				continue
			}
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
			// Deduplicate (a vertex may be targeted by several burners).
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
			set := make(map[graph.VertexID]bool, len(uniq))
			for _, v := range uniq {
				set[v] = true
			}
			burnedCount[f] += len(uniq)
			allow[f] = set
		}
		return map[string]any{"allow": allow}, false
	}

	if err := e.Run(ctx, compute, master); err != nil {
		return algo.EvoOutput{}, err
	}

	out := algo.EvoOutput{NewVertices: k}
	for v := 0; v < n; v++ {
		for _, f := range burnedBy[v] {
			out.Edges = append(out.Edges, [2]graph.VertexID{graph.VertexID(n + int(f)), graph.VertexID(v)})
		}
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i][0] != out.Edges[j][0] {
			return out.Edges[i][0] < out.Edges[j][0]
		}
		return out.Edges[i][1] < out.Edges[j][1]
	})
	return out, nil
}
