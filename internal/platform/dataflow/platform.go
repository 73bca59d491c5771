package dataflow

import (
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
// memory-budgeted engine serializes its jobs, because each run checks
// the budget against the resident graph plus its own bytes only.
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
	resident := 2 * g.MemoryFootprint()
	if err := platform.NewMemoryTracker(p.Name(), p.opts.MemoryBudget).Alloc(resident); err != nil {
		return nil, err
	}
	return &platform.LoadedGraph[*Env]{
		G: g, Platform: p.Name(), Budget: p.opts.MemoryBudget, Resident: resident,
		NewRun: func(mem *platform.MemoryTracker, c *platform.Counters) (*Env, func()) {
			return NewEnv(g, p.opts.Parts, mem, c), nil
		},
		Kernels: kernels,
	}, nil
}

// kernels is the dataflow engine's table for the shared run skeleton.
var kernels = map[algo.Kind]platform.Kernel[*Env]{
	algo.BFS:  platform.KernelOf((*Env).runBFS),
	algo.CONN: platform.KernelOf((*Env).runConn),
	algo.CD:   platform.KernelOf((*Env).runCD),
	algo.EVO:  platform.KernelOf((*Env).runEvo),
	algo.PR:   platform.KernelOf((*Env).runPageRank),
	algo.SSSP: platform.KernelOf((*Env).runSSSP),
	algo.LCC:  platform.KernelOf((*Env).runLCC),
}
