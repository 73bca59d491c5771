package dataflow

import (
	"context"
	"fmt"
	"runtime"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// Options configures the dataflow platform.
type Options struct {
	// Parts is the number of dataset partitions (default GOMAXPROCS).
	Parts int
	// MemoryBudget bounds resident dataset bytes (graph + retained
	// versions + triplet mirrors + messages); 0 = unlimited. GraphX's
	// Figure 4 failures come from this bound.
	MemoryBudget int64
}

// Platform is the GraphX analogue.
type Platform struct {
	opts Options
}

// New returns a dataflow platform.
func New(opts Options) *Platform {
	if opts.Parts <= 0 {
		opts.Parts = runtime.GOMAXPROCS(0)
	}
	return &Platform{opts: opts}
}

// Name implements platform.Platform.
func (p *Platform) Name() string { return "dataflow" }

// StampConfig implements platform.ConfigStamper.
func (p *Platform) StampConfig() string {
	return fmt.Sprintf("dataflow/parts=%d,mem=%d,retain=%d",
		p.opts.Parts, p.opts.MemoryBudget, retainWindow)
}

// ConcurrencyLimit implements platform.ConcurrencyHinter: a
// memory-budgeted engine serializes its jobs so concurrent loads do
// not double-count against one budget.
func (p *Platform) ConcurrencyLimit() int {
	if p.opts.MemoryBudget > 0 {
		return 1
	}
	return 0
}

// LoadGraph implements platform.Platform. The edge structure is held as
// an immutable dataset; dataflow tuple representation costs ~2× the raw
// CSR (edge objects with src/dst fields rather than packed arrays).
func (p *Platform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	mem := platform.NewMemoryTracker(p.Name(), p.opts.MemoryBudget)
	edgeBytes := 2 * g.MemoryFootprint()
	if err := mem.Alloc(edgeBytes); err != nil {
		return nil, err
	}
	return &loaded{p: p, g: g, mem: mem, edgeBytes: edgeBytes}, nil
}

type loaded struct {
	p         *Platform
	g         *graph.Graph
	mem       *platform.MemoryTracker
	edgeBytes int64
}

// Graph implements platform.Loaded.
func (l *loaded) Graph() *graph.Graph { return l.g }

// Close implements platform.Loaded.
func (l *loaded) Close() error {
	l.mem.Free(l.edgeBytes)
	return nil
}

// Run implements platform.Loaded.
func (l *loaded) Run(ctx context.Context, kind algo.Kind, params algo.Params) (*platform.Result, error) {
	params = params.WithDefaults(l.g.NumVertices())
	counters := &platform.Counters{}
	env := NewEnv(l.g, l.p.opts.Parts, l.mem, counters)
	defer env.releaseAll()

	var out any
	var err error
	switch kind {
	case algo.BFS:
		out, err = l.runBFS(ctx, env, params)
	case algo.CONN:
		out, err = l.runConn(ctx, env, params)
	case algo.CD:
		out, err = l.runCD(ctx, env, params)
	case algo.STATS:
		var lcc algo.LCCOutput
		if lcc, err = l.runLCC(ctx, env, params); err == nil {
			out = algo.StatsFromLCC(l.g, lcc)
		}
	case algo.EVO:
		out, err = l.runEvo(ctx, env, params)
	case algo.PR:
		out, err = l.runPageRank(ctx, env, params)
	case algo.SSSP:
		out, err = l.runSSSP(ctx, env, params)
	case algo.LCC:
		out, err = l.runLCC(ctx, env, params)
	default:
		return nil, fmt.Errorf("%w: %s on %s", platform.ErrUnsupported, kind, l.p.Name())
	}
	if err != nil {
		return nil, err
	}
	counters.PeakMemoryBytes = l.mem.Peak()
	return &platform.Result{Output: out, Counters: *counters}, nil
}
