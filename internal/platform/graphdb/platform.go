package graphdb

import (
	"context"
	"fmt"
	"sort"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/xrand"
)

// Options configures the graph database platform.
type Options struct {
	// MemoryBudget bounds the record-store bytes; ETL fails beyond it
	// (0 = unlimited).
	MemoryBudget int64
	// PageCachePages sets the page cache capacity in 8 KiB pages
	// (default 8192 = 64 MiB).
	PageCachePages int
}

// Platform is the Neo4j analogue.
type Platform struct {
	opts Options
}

// New returns a graph database platform.
func New(opts Options) *Platform {
	return &Platform{opts: opts}
}

// Name implements platform.Platform.
func (p *Platform) Name() string { return "graphdb" }

// StampConfig implements platform.ConfigStamper. PageCachePages changes
// hit/miss counters (part of the stored result), so it invalidates too.
func (p *Platform) StampConfig() string {
	return fmt.Sprintf("graphdb/mem=%d,pages=%d",
		p.opts.MemoryBudget, p.opts.PageCachePages)
}

// ConcurrencyLimit implements platform.ConcurrencyHinter: the database
// is single-threaded — a loaded store has one unsynchronized page
// cache, which every run clears and then counts its hits and misses
// in — so its jobs always serialize.
func (p *Platform) ConcurrencyLimit() int { return 1 }

// LoadGraph implements platform.Platform: it builds the record stores.
// Unlike the distributed platforms, the whole store must fit in one
// machine's budget or the import fails.
func (p *Platform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	store := BuildStore(g, p.opts.PageCachePages)
	if err := platform.NewMemoryTracker(p.Name(), p.opts.MemoryBudget).Alloc(store.Bytes()); err != nil {
		return nil, err
	}
	return p.newLoaded(g, store), nil
}

// loaded is a graph imported into record stores.
type loaded struct {
	platform.LoadedGraph[*loaded]
	store *Store
}

// kernels is the graph database's table for the shared run skeleton.
var kernels = map[algo.Kind]platform.Kernel[*loaded]{
	algo.BFS:  platform.KernelOf((*loaded).runBFS),
	algo.CONN: platform.KernelOf((*loaded).runConn),
	algo.CD:   platform.KernelOf((*loaded).runCD),
	algo.EVO:  platform.KernelOf((*loaded).runEvo),
	algo.PR:   platform.KernelOf((*loaded).runPageRank),
	algo.SSSP: platform.KernelOf((*loaded).runSSSP),
	algo.LCC:  platform.KernelOf((*loaded).runLCC),
}

// newLoaded wraps a built or restored store for the shared run skeleton.
func (p *Platform) newLoaded(g *graph.Graph, store *Store) *loaded {
	l := &loaded{store: store}
	l.LoadedGraph = platform.LoadedGraph[*loaded]{
		G: g, Platform: p.Name(), Budget: p.opts.MemoryBudget, Resident: store.Bytes(),
		NewRun: l.newRun, Kernels: kernels,
	}
	return l
}

// newRun starts a run on a cold page cache, so that the hits and misses
// it reports are its own, and fills in the counters when it ends.
func (l *loaded) newRun(_ *platform.MemoryTracker, c *platform.Counters) (*loaded, func()) {
	l.store.cache.reset()
	start := time.Now()
	return l, func() {
		c.CacheHits, c.CacheMisses = l.store.CacheStats()
		c.EdgesTraversed = c.CacheHits + c.CacheMisses // record touches
		c.Supersteps = 1                               // one transaction scope
		c.WorkerBusy = []time.Duration{time.Since(start)}
	}
}

// runBFS: classic queue traversal over the store (out-direction).
func (l *loaded) runBFS(ctx context.Context, p algo.Params) (algo.BFSOutput, error) {
	n := l.store.NumNodes()
	depth := make(algo.BFSOutput, n)
	for i := range depth {
		depth[i] = -1
	}
	if int(p.Source) >= n {
		return depth, nil
	}
	depth[p.Source] = 0
	frontier := []graph.VertexID{p.Source}
	expanded := 0
	for level := int64(1); len(frontier) > 0; level++ {
		var next []graph.VertexID
		for _, v := range frontier {
			if expanded%platform.CheckStride == 0 {
				if err := platform.CheckContextPhase(ctx, "graphdb/bfs"); err != nil {
					return nil, err
				}
			}
			expanded++
			l.store.Expand(v, func(other graph.VertexID, outgoing bool) {
				if outgoing && depth[other] == -1 {
					depth[other] = level
					next = append(next, other)
				}
			})
		}
		frontier = next
	}
	return depth, nil
}

// runConn: ascending-scan traversal labeling. The first unvisited vertex
// of each component is its minimum ID, so the labels equal the HashMin
// fixpoint the other platforms compute.
func (l *loaded) runConn(ctx context.Context, _ algo.Params) (algo.ConnOutput, error) {
	n := l.store.NumNodes()
	labels := make(algo.ConnOutput, n)
	visited := make([]bool, n)
	var stack []graph.VertexID
	pops := 0
	for v := 0; v < n; v++ {
		if visited[v] {
			continue
		}
		root := graph.VertexID(v)
		visited[v] = true
		labels[v] = root
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			if pops%platform.CheckStride == 0 {
				if err := platform.CheckContextPhase(ctx, "graphdb/conn"); err != nil {
					return nil, err
				}
			}
			pops++
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l.store.Expand(u, func(other graph.VertexID, _ bool) {
				if !visited[other] {
					visited[other] = true
					labels[other] = root
					stack = append(stack, other)
				}
			})
		}
	}
	return labels, nil
}

// runCD: per-iteration gather of neighbor states through the store.
func (l *loaded) runCD(ctx context.Context, p algo.Params) (algo.CDOutput, error) {
	n := l.store.NumNodes()
	labels := make([]int64, n)
	scores := make([]float64, n)
	degs := make([]int32, n)
	var buf []graph.VertexID
	for v := 0; v < n; v++ {
		labels[v] = int64(v)
		scores[v] = 1
		buf = l.store.Neighborhood(graph.VertexID(v), buf[:0])
		degs[v] = int32(len(buf))
	}
	w := algo.NewCDWeights(p.CDPreference, degs)
	newLabels := make([]int64, n)
	newScores := make([]float64, n)
	votes := make([]algo.Vote, 0, 64)
	for iter := 0; iter < p.CDIterations; iter++ {
		for v := 0; v < n; v++ {
			if v%platform.CheckStride == 0 {
				if err := platform.CheckContextPhase(ctx, "graphdb/cd"); err != nil {
					return nil, err
				}
			}
			buf = l.store.Neighborhood(graph.VertexID(v), buf[:0])
			votes = votes[:0]
			for _, u := range buf {
				votes = append(votes, algo.Vote{Label: labels[u], Score: scores[u], Degree: degs[u]})
			}
			win, maxScore, ok := algo.TallyVotes(votes, w)
			if !ok {
				newLabels[v] = labels[v]
				newScores[v] = scores[v]
				continue
			}
			s := maxScore
			if win != labels[v] {
				s -= p.CDDelta
			}
			if s < 0 {
				s = 0
			}
			newLabels[v] = win
			newScores[v] = s
		}
		labels, newLabels = newLabels, labels
		scores, newScores = newScores, scores
	}
	return algo.CDOutput(labels), nil
}

// runEvo: the reference fire spec executed with store-gathered adjacency.
func (l *loaded) runEvo(ctx context.Context, p algo.Params) (algo.EvoOutput, error) {
	n := l.store.NumNodes()
	k := p.EvoNewVertices
	out := algo.EvoOutput{NewVertices: k}

	var outN, inN []graph.VertexID
	for f := 0; f < k; f++ {
		newV := graph.VertexID(n + f)
		a := graph.VertexID(xrand.Mix3(p.Seed, uint64(newV), 0) % uint64(n))
		burned := map[graph.VertexID]bool{a: true}
		level := []graph.VertexID{a}
		for len(level) > 0 && len(burned) < p.EvoMaxBurn {
			if err := platform.CheckContextPhase(ctx, "graphdb/evo"); err != nil {
				return algo.EvoOutput{}, err
			}
			var next []graph.VertexID
			inNext := map[graph.VertexID]bool{}
			for _, u := range level {
				outN = l.store.OutNeighbors(u, outN[:0])
				if l.store.directed {
					inN = l.store.InNeighbors(u, inN[:0])
				} else {
					inN = outN
				}
				for _, w := range algo.FirePicksFromLists(newV, u, outN, inN, p) {
					if burned[w] || inNext[w] {
						continue
					}
					inNext[w] = true
					next = append(next, w)
				}
			}
			sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
			if room := p.EvoMaxBurn - len(burned); len(next) > room {
				next = next[:room]
			}
			for _, w := range next {
				burned[w] = true
			}
			level = next
		}
		targets := make([]graph.VertexID, 0, len(burned))
		for w := range burned {
			targets = append(targets, w)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, w := range targets {
			out.Edges = append(out.Edges, [2]graph.VertexID{newV, w})
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
