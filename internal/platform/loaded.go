package platform

import (
	"context"
	"fmt"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
)

// Kernel computes one algorithm on the per-run state R an engine builds
// for every Run (the pregel engine settings, the dataflow Env, the
// mapreduce cluster, the graph database's store). The state comes first
// so that an engine can list its kernels as method expressions.
type Kernel[R any] func(r R, ctx context.Context, p algo.Params) (any, error)

// KernelOf adapts a kernel with a typed output to a Kernel.
func KernelOf[R, O any](f func(R, context.Context, algo.Params) (O, error)) Kernel[R] {
	return func(r R, ctx context.Context, p algo.Params) (any, error) { return f(r, ctx, p) }
}

// LoadedGraph is the Loaded every engine returns: the graph, the bytes
// the engine keeps resident for it, and the engine's kernels. Its Run is
// the one run skeleton all engines share.
type LoadedGraph[R any] struct {
	G *graph.Graph
	// Platform and Budget name and bound each run's memory scope.
	Platform string
	Budget   int64
	// Resident is what the engine holds for the graph between runs; the
	// load has checked it against Budget.
	Resident int64
	// NewRun builds one run's state over its memory scope and counters.
	// finish, when not nil, runs once the kernel returns.
	NewRun func(mem *MemoryTracker, c *Counters) (r R, finish func())
	// Kernels maps every supported kind except STATS to its kernel.
	// STATS is the mean of LCC on every engine, so Run derives it.
	Kernels map[algo.Kind]Kernel[R]
}

// Graph implements Loaded.
func (l *LoadedGraph[R]) Graph() *graph.Graph { return l.G }

// Close implements Loaded. A run's memory scope ends with the run, so
// there is nothing left to release.
func (l *LoadedGraph[R]) Close() error { return nil }

// Run implements Loaded. Every run has its own memory scope: a tracker
// with the platform's budget that starts at the resident bytes. So a
// run's PeakMemoryBytes is the resident graph plus this run's own peak,
// whatever ran before it or beside it. The budget is checked against
// the same sum; budgeted engines serialise their jobs
// (ConcurrencyHinter), so that sum is what the machine holds.
func (l *LoadedGraph[R]) Run(ctx context.Context, kind algo.Kind, params algo.Params) (*Result, error) {
	kernel := l.Kernels[kind]
	if kind == algo.STATS {
		kernel = l.Kernels[algo.LCC]
	}
	if kernel == nil {
		return nil, fmt.Errorf("%w: %s on %s", ErrUnsupported, kind, l.Platform)
	}
	mem := NewMemoryTracker(l.Platform, l.Budget)
	if err := mem.Alloc(l.Resident); err != nil {
		return nil, err
	}
	counters := &Counters{}
	r, finish := l.NewRun(mem, counters)
	out, err := kernel(r, ctx, params.WithDefaults(l.G.NumVertices()))
	if finish != nil {
		finish()
	}
	if err != nil {
		return nil, err
	}
	if kind == algo.STATS {
		out = algo.StatsFromLCC(l.G, out.(algo.LCCOutput))
	}
	counters.PeakMemoryBytes = mem.Peak()
	return &Result{Output: out, Counters: *counters}, nil
}
