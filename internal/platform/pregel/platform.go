package pregel

import (
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
// memory-budgeted engine serializes its jobs, because each run checks
// the budget against the resident graph plus its own bytes only.
func (p *Platform) ConcurrencyLimit() int {
	if p.opts.MemoryBudget > 0 {
		return 1
	}
	return 0
}

// LoadGraph implements platform.Platform. The BSP engine keeps the CSR
// resident; loading fails if it alone exceeds the memory budget.
func (p *Platform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	resident := g.MemoryFootprint()
	if err := platform.NewMemoryTracker(p.Name(), p.opts.MemoryBudget).Alloc(resident); err != nil {
		return nil, err
	}
	return &platform.LoadedGraph[*run]{
		G: g, Platform: p.Name(), Budget: p.opts.MemoryBudget, Resident: resident,
		NewRun: func(mem *platform.MemoryTracker, c *platform.Counters) (*run, func()) {
			return &run{p: p, g: g, mem: mem, counters: c}, nil
		},
		Kernels: kernels,
	}, nil
}

// kernels is the BSP engine's table for the shared run skeleton.
var kernels = map[algo.Kind]platform.Kernel[*run]{
	algo.BFS:  platform.KernelOf((*run).runBFS),
	algo.CONN: platform.KernelOf((*run).runConn),
	algo.CD:   platform.KernelOf((*run).runCD),
	algo.EVO:  platform.KernelOf((*run).runEvo),
	algo.PR:   platform.KernelOf((*run).runPageRank),
	algo.SSSP: platform.KernelOf((*run).runSSSP),
	algo.LCC:  platform.KernelOf((*run).runLCC),
}

// run is one algorithm execution: the platform and graph, and the run's
// own memory scope and counters. The scope ends with the run, so a
// kernel does not free what it holds until it returns.
type run struct {
	p        *Platform
	g        *graph.Graph
	mem      *platform.MemoryTracker
	counters *platform.Counters
}

// newEngine builds an engine wired to the platform options.
func newEngine[M any](r *run, msgBytes func(M) int64, combiner func(a, b M) M) *Engine[M] {
	if r.p.opts.DisableCombiners {
		combiner = nil
	}
	return &Engine[M]{
		G:           r.g,
		Workers:     r.p.opts.Workers,
		Partitioner: r.p.opts.Partitioner,
		Combiner:    combiner,
		MsgBytes:    msgBytes,
		Mem:         r.mem,
		Counters:    r.counters,
	}
}
