package pregel

import (
	"context"
	"fmt"
	"runtime"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// Options configures the BSP platform.
type Options struct {
	// Workers is the number of BSP workers (default GOMAXPROCS).
	Workers int
	// MemoryBudget bounds the engine's live bytes (graph + state +
	// in-flight messages); 0 = unlimited.
	MemoryBudget int64
	// DisableCombiners turns off sender-side message combining (the
	// network-utilization ablation).
	DisableCombiners bool
	// Partitioner overrides the default hash partitioner (the
	// partitioning ablation).
	Partitioner graph.Partitioner
}

// Platform is the Giraph-analogue platform.
type Platform struct {
	opts Options
}

// New returns a BSP platform with the given options.
func New(opts Options) *Platform {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Platform{opts: opts}
}

// Name implements platform.Platform.
func (p *Platform) Name() string { return "pregel" }

// StampConfig implements platform.ConfigStamper: every option that
// changes results or resource behaviour, canonically rendered.
func (p *Platform) StampConfig() string {
	part := "hash"
	if p.opts.Partitioner != nil {
		part = p.opts.Partitioner.Name()
	}
	return fmt.Sprintf("pregel/workers=%d,mem=%d,combiners=%t,partitioner=%s",
		p.opts.Workers, p.opts.MemoryBudget, !p.opts.DisableCombiners, part)
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

// LoadGraph implements platform.Platform. The BSP engine keeps the CSR
// resident; loading fails if it alone exceeds the memory budget.
func (p *Platform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	mem := platform.NewMemoryTracker(p.Name(), p.opts.MemoryBudget)
	if err := mem.Alloc(g.MemoryFootprint()); err != nil {
		return nil, err
	}
	return &loaded{p: p, g: g, mem: mem, graphBytes: g.MemoryFootprint()}, nil
}

type loaded struct {
	p          *Platform
	g          *graph.Graph
	mem        *platform.MemoryTracker
	graphBytes int64
}

// Graph implements platform.Loaded.
func (l *loaded) Graph() *graph.Graph { return l.g }

// Close implements platform.Loaded.
func (l *loaded) Close() error {
	l.mem.Free(l.graphBytes)
	return nil
}

// Run implements platform.Loaded.
func (l *loaded) Run(ctx context.Context, kind algo.Kind, params algo.Params) (*platform.Result, error) {
	params = params.WithDefaults(l.g.NumVertices())
	var res *platform.Result
	var err error
	switch kind {
	case algo.BFS:
		res, err = l.runBFS(ctx, params)
	case algo.CONN:
		res, err = l.runConn(ctx, params)
	case algo.CD:
		res, err = l.runCD(ctx, params)
	case algo.STATS:
		if res, err = l.runLCC(ctx, params); err == nil {
			res.Output = algo.StatsFromLCC(l.g, res.Output.(algo.LCCOutput))
		}
	case algo.EVO:
		res, err = l.runEvo(ctx, params)
	case algo.PR:
		res, err = l.runPageRank(ctx, params)
	case algo.SSSP:
		res, err = l.runSSSP(ctx, params)
	case algo.LCC:
		res, err = l.runLCC(ctx, params)
	default:
		return nil, fmt.Errorf("%w: %s on %s", platform.ErrUnsupported, kind, l.p.Name())
	}
	if err != nil {
		return nil, err
	}
	res.Counters.PeakMemoryBytes = l.mem.Peak()
	return res, nil
}

// newEngine builds an engine wired to the platform options.
func newEngine[M any](l *loaded, counters *platform.Counters, msgBytes func(M) int64, combiner func(a, b M) M) *Engine[M] {
	if l.p.opts.DisableCombiners {
		combiner = nil
	}
	return &Engine[M]{
		G:           l.g,
		Workers:     l.p.opts.Workers,
		Partitioner: l.p.opts.Partitioner,
		Combiner:    combiner,
		MsgBytes:    msgBytes,
		Mem:         l.mem,
		Counters:    counters,
	}
}
