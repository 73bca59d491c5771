package mapreduce

import (
	"context"
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
	return &loaded{p: p, g: g}, nil
}

type loaded struct {
	p *Platform
	g *graph.Graph
}

// Graph implements platform.Loaded.
func (l *loaded) Graph() *graph.Graph { return l.g }

// Close implements platform.Loaded.
func (l *loaded) Close() error { return nil }

// Run implements platform.Loaded.
func (l *loaded) Run(ctx context.Context, kind algo.Kind, params algo.Params) (*platform.Result, error) {
	params = params.WithDefaults(l.g.NumVertices())
	cluster := &Cluster{
		Workers:       l.p.opts.Workers,
		RoundOverhead: l.p.opts.RoundOverhead,
		Counters:      &platform.Counters{},
	}
	var out any
	var err error
	switch kind {
	case algo.BFS:
		out, err = l.runBFS(ctx, cluster, params)
	case algo.CONN:
		out, err = l.runConn(ctx, cluster, params)
	case algo.CD:
		out, err = l.runCD(ctx, cluster, params)
	case algo.STATS:
		var lcc algo.LCCOutput
		if lcc, err = l.runLCC(ctx, cluster, params); err == nil {
			out = algo.StatsFromLCC(l.g, lcc)
		}
	case algo.EVO:
		out, err = l.runEvo(ctx, cluster, params)
	case algo.PR:
		out, err = l.runPageRank(ctx, cluster, params)
	case algo.SSSP:
		out, err = l.runSSSP(ctx, cluster, params)
	case algo.LCC:
		out, err = l.runLCC(ctx, cluster, params)
	default:
		return nil, fmt.Errorf("%w: %s on %s", platform.ErrUnsupported, kind, l.p.Name())
	}
	if err != nil {
		return nil, err
	}
	return &platform.Result{Output: out, Counters: *cluster.Counters}, nil
}

// neighborhoods precomputes N(v) for every vertex (the CD/CONN/STATS
// neighborhood). This is input preparation, analogous to reading the
// graph's HDFS input format at the head of a job chain.
func (l *loaded) neighborhoods() [][]graph.VertexID {
	n := l.g.NumVertices()
	out := make([][]graph.VertexID, n)
	for v := 0; v < n; v++ {
		out[v] = l.g.Neighborhood(graph.VertexID(v), nil)
	}
	return out
}
