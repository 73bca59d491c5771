package mapreduce

import (
	"fmt"
	"runtime"
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
func (p *Platform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	return &platform.LoadedGraph[*chain]{
		G: g, Platform: p.Name(),
		NewRun: func(_ *platform.MemoryTracker, c *platform.Counters) (*chain, func()) {
			cluster := &Cluster{Workers: p.opts.Workers, RoundOverhead: p.opts.RoundOverhead, Counters: c}
			return &chain{Cluster: cluster, g: g, maxJobs: p.opts.MaxJobs}, nil
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

// chain is one algorithm execution: the job chain of one run, on a
// fresh cluster whose counters are the run's.
type chain struct {
	*Cluster
	g       *graph.Graph
	maxJobs int
}

// neighborhoods precomputes N(v) for every vertex (the CD/CONN/STATS
// neighborhood). This is input preparation, analogous to reading the
// graph's HDFS input format at the head of a job chain.
func (c *chain) neighborhoods() [][]graph.VertexID {
	n := c.g.NumVertices()
	out := make([][]graph.VertexID, n)
	for v := 0; v < n; v++ {
		out[v] = c.g.Neighborhood(graph.VertexID(v), nil)
	}
	return out
}
