package mapreduce

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// Options configures the MapReduce platform.
type Options struct {
	// Workers is the number of map/reduce slots (default GOMAXPROCS).
	Workers int
	// RoundOverhead is the per-job scheduling cost (default 250ms; the
	// YARN analogue). Set negative for zero.
	RoundOverhead time.Duration
	// MaxJobs bounds iterative job chains (safety; default 10000). A
	// chain that has not converged within it fails with an error.
	MaxJobs int
}

// Platform is the Hadoop MapReduce analogue.
type Platform struct {
	opts Options
}

// New returns a MapReduce platform.
func New(opts Options) *Platform {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.RoundOverhead == 0 {
		opts.RoundOverhead = 250 * time.Millisecond
	} else if opts.RoundOverhead < 0 {
		opts.RoundOverhead = 0
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 10000
	}
	return &Platform{opts: opts}
}

// Name implements platform.Platform.
func (p *Platform) Name() string { return "mapreduce" }

// StampConfig implements platform.ConfigStamper. RoundOverhead is
// included because it changes reported runtimes even though outputs are
// identical — a stamped result stores the timings too.
func (p *Platform) StampConfig() string {
	return fmt.Sprintf("mapreduce/workers=%d,roundoverhead=%s,maxjobs=%d",
		p.opts.Workers, p.opts.RoundOverhead, p.opts.MaxJobs)
}

// LoadGraph implements platform.Platform. MapReduce streams state
// through spill buffers, so there is no memory budget to enforce: ETL
// never fails for capacity reasons (§3.3).
//
// The loaded graph keeps a free list of idle chains. A run takes one,
// or builds one when every chain is busy, and puts it back when its
// kernel returns, so the runs on one load reuse their Cluster's spill
// buffers and sort entries and their slots' scratch instead of growing
// new ones. Concurrent runs each hold their own chain.
func (p *Platform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	var mu sync.Mutex
	var idle []*chain
	return &platform.LoadedGraph[*chain]{
		G: g, Platform: p.Name(),
		NewRun: func(mem *platform.MemoryTracker, c *platform.Counters) (*chain, func()) {
			mu.Lock()
			var ch *chain
			if len(idle) > 0 {
				ch, idle = idle[len(idle)-1], idle[:len(idle)-1]
			}
			mu.Unlock()
			if ch == nil {
				cluster := &Cluster{Workers: p.opts.Workers, RoundOverhead: p.opts.RoundOverhead}
				ch = &chain{Cluster: cluster, g: g, maxJobs: p.opts.MaxJobs, scratch: make(scratches, cluster.workers())}
			}
			ch.Counters, ch.mem = c, mem
			return ch, func() {
				ch.Counters, ch.mem = nil, nil
				mu.Lock()
				idle = append(idle, ch)
				mu.Unlock()
			}
		},
		Kernels: kernels,
	}, nil
}

// kernels is the MapReduce engine's table for the shared run skeleton.
var kernels = map[algo.Kind]platform.Kernel[*chain]{
	algo.BFS:  platform.KernelOf((*chain).runBFS),
	algo.CONN: platform.KernelOf((*chain).runConn),
	algo.CD:   platform.KernelOf((*chain).runCD),
	algo.EVO:  platform.KernelOf((*chain).runEvo),
	algo.PR:   platform.KernelOf((*chain).runPageRank),
	algo.SSSP: platform.KernelOf((*chain).runSSSP),
	algo.LCC:  platform.KernelOf((*chain).runLCC),
}

// chain runs the job chains of one run at a time on its Cluster, whose
// counters and memory tracker are the run's.
type chain struct {
	*Cluster
	g       *graph.Graph
	maxJobs int
	scratch scratches
}
