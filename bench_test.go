// The paper's experiments as Go benchmarks: one per table and figure of
// its evaluation (§2.2, §3), the choke-point ablations (§2.1) and the
// campaign-scheduler methodology. Running
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// regenerates every experiment at laptop scale and prints tables in the
// same shape the paper reports, with the paper's values in parentheses
// where it gives them. These are experiments, not performance gates: the
// repo's performance numbers come from the benchmark in benchmark/
// (BENCHMARK.json). Scale knobs:
//
//	GRAPHALYTICS_SCALE_DIV   surrogate downscale divisor (default 64)
//	GRAPHALYTICS_RMAT_SCALE  Graph500 workload scale (default 14)
package graphalytics_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"graphalytics"
	"graphalytics/internal/algo"
	"graphalytics/internal/codequality"
	"graphalytics/internal/columnstore"
	"graphalytics/internal/core"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/gen/dist"
	"graphalytics/internal/gen/surrogate"
	"graphalytics/internal/graph"
	"graphalytics/internal/graph/gmetrics"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
	"graphalytics/internal/stats"
	"graphalytics/internal/workload"
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// ---------------------------------------------------------------------
// Table 1: Characteristics of real graphs.

func BenchmarkTable1Characteristics(b *testing.B) {
	div := envInt("GRAPHALYTICS_SCALE_DIV", 64)
	for i := 0; i < b.N; i++ {
		rows := make([]gmetrics.Characteristics, 0, len(surrogate.Table1))
		for _, spec := range surrogate.Table1 {
			g, err := surrogate.Generate(spec, surrogate.Options{ScaleDiv: div, Rewire: true, MaxSwaps: 200000})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, gmetrics.Measure(g))
		}
		if i == 0 {
			fmt.Printf("\n--- Table 1: characteristics of surrogate graphs (1/%d scale; paper values in parens) ---\n", div)
			fmt.Printf("%-12s %10s %12s %16s %16s %18s\n", "Dataset", "Nodes", "Edges", "Gl. CC", "Avg. CC", "Asrt.")
			for j, c := range rows {
				spec := surrogate.Table1[j]
				fmt.Printf("%-12s %10d %12d %7.4f (%.4f) %7.4f (%.4f) %8.4f (%+.4f)\n",
					c.Name, c.Vertices, c.Edges, c.GlobalCC, spec.GlobalCC, c.AvgCC, spec.AvgCC, c.Assortativity, spec.Asrt)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Figure 1: Datagen degree distributions vs Zeta/Geometric models.

func BenchmarkFigure1DegreeDistributions(b *testing.B) {
	type cfg struct {
		name  string
		model stats.Model
		plug  func() (dist.Distribution, error)
	}
	cfgs := []cfg{
		{"zeta(1.7)", stats.NewZeta(1.7), func() (dist.Distribution, error) { return dist.NewZeta(1.7, 200) }},
		{"geometric(0.12)", stats.NewGeometric(0.12), func() (dist.Distribution, error) { return dist.NewGeometric(0.12, 200) }},
	}
	for i := 0; i < b.N; i++ {
		for _, c := range cfgs {
			plug, err := c.plug()
			if err != nil {
				b.Fatal(err)
			}
			g, err := datagen.Generate(datagen.Config{Persons: 30000, Seed: 5, Degrees: plug})
			if err != nil {
				b.Fatal(err)
			}
			degs := gmetrics.Degrees(g)
			sample, err := stats.NewSample(degs)
			if err != nil {
				b.Fatal(err)
			}
			ks := sample.KSDistance(c.model)
			if i == 0 {
				fmt.Printf("\n--- Figure 1: Datagen degree distribution vs %s model (30k persons) ---\n", c.name)
				fmt.Printf("%8s %12s %12s\n", "degree", "observed", "model")
				hist := gmetrics.DegreeHistogram(g)
				n := float64(g.NumVertices())
				for _, d := range []int{1, 2, 5, 10, 20, 50, 100} {
					fmt.Printf("%8d %12d %12.0f\n", d, hist[d], c.model.PMF(d)*n)
				}
				fmt.Printf("KS distance observed-vs-model: %.4f (paper: visually overlapping curves)\n", ks)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Figure 3: Datagen scalability, single machine vs cluster.

func BenchmarkFigure3DatagenScalability(b *testing.B) {
	single := datagen.ClusterSim{Nodes: 1, CoresPerNode: 2, DiskMBps: 4}
	cluster := datagen.ClusterSim{Nodes: 4, CoresPerNode: 2, DiskMBps: 4, StartupOverhead: 500 * time.Millisecond}
	sizes := []int{4000, 8000, 16000, 32000, 64000}
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Printf("\n--- Figure 3: Datagen scalability (disk 4 MB/s per node; cluster pays 500ms startup) ---\n")
			fmt.Printf("%10s %12s %14s %14s %10s\n", "persons", "edges", "single", "cluster(4)", "winner")
		}
		for _, n := range sizes {
			cfg := datagen.Config{Persons: n, Seed: 9}
			rs, err := single.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rc, err := cluster.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				winner := "single"
				if rc.Elapsed < rs.Elapsed {
					winner = "cluster"
				}
				fmt.Printf("%10d %12d %14s %14s %10s\n", n, rs.Edges,
					rs.Elapsed.Round(time.Millisecond), rc.Elapsed.Round(time.Millisecond), winner)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Figure 4 + Figure 5: the platform × graph × algorithm matrix.

var figure4Once struct {
	sync.Once
	graphs  []*graph.Graph
	budget  int64 // dataflow memory budget (calibrated)
	dbLimit int64 // graphdb memory budget
}

// figure4Graphs builds the three scaled workload graphs and calibrates
// platform memory budgets the way a cluster's fixed per-node RAM does:
// the dataflow budget is sized to fit the two smaller graphs' most
// expensive runs with 30% headroom, so the largest graph's heavier
// workloads exceed it — the GraphX missing-value pattern of Figure 4.
func figure4Setup(b *testing.B) ([]*graph.Graph, int64, int64) {
	figure4Once.Do(func() {
		scale := envInt("GRAPHALYTICS_RMAT_SCALE", 14)
		g500, err := graphalytics.GenerateRMAT(scale, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		patents, err := surrogate.Generate(mustSpec(b, "patents"), surrogate.Options{ScaleDiv: 256})
		if err != nil {
			b.Fatal(err)
		}
		snb, err := datagen.Generate(datagen.Config{Persons: 5000, Seed: 2, Name: "snb-1000"})
		if err != nil {
			b.Fatal(err)
		}
		graphs := []*graph.Graph{g500, patents, snb}

		// Calibrate the dataflow budget on the two smaller graphs.
		var maxPeak int64
		for _, g := range graphs[1:] {
			for _, a := range algo.Kinds {
				p := dataflow.New(dataflow.Options{})
				loaded, err := p.LoadGraph(g)
				if err != nil {
					b.Fatal(err)
				}
				res, err := loaded.Run(context.Background(), a, algo.Params{Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				if res.Counters.PeakMemoryBytes > maxPeak {
					maxPeak = res.Counters.PeakMemoryBytes
				}
				loaded.Close()
			}
		}
		figure4Once.budget = maxPeak + maxPeak/3

		// The graph database budget sits between the largest store and
		// the second largest, so only the largest graph fails to load.
		storeBytes := func(g *graph.Graph) int64 { return 4*int64(g.NumVertices()) + 16*g.NumEdges() }
		largest, second := int64(0), int64(0)
		for _, g := range graphs {
			sb := storeBytes(g)
			if sb > largest {
				largest, second = sb, largest
			} else if sb > second {
				second = sb
			}
		}
		figure4Once.dbLimit = (largest + second) / 2
		figure4Once.graphs = graphs
	})
	return figure4Once.graphs, figure4Once.budget, figure4Once.dbLimit
}

func mustSpec(b *testing.B, name string) surrogate.Spec {
	spec, err := surrogate.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

func figure4Platforms(budget, dbLimit int64) []platform.Platform {
	return []platform.Platform{
		pregel.New(pregel.Options{}),
		mapreduce.New(mapreduce.Options{}),
		dataflow.New(dataflow.Options{MemoryBudget: budget}),
		graphdb.New(graphdb.Options{MemoryBudget: dbLimit}),
	}
}

func BenchmarkFigure4Runtimes(b *testing.B) {
	graphs, budget, dbLimit := figure4Setup(b)
	for i := 0; i < b.N; i++ {
		bench := &core.Benchmark{
			Platforms: figure4Platforms(budget, dbLimit),
			Graphs:    graphs,
			Params:    algo.Params{Source: 0, Seed: 42},
			Timeout:   5 * time.Minute,
			Validate:  false, // validation is covered by tests; keep timing clean
			// One cell at a time: concurrent cells would contend and
			// distort the per-cell runtimes this figure reports.
			Parallelism: 1,
		}
		rep, err := bench.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n--- Figure 4: runtimes, all algorithms × platforms × graphs (missing values = failures) ---\n")
			fmt.Print(report.Figure4Table(rep.Results))
		}
	}
}

func BenchmarkFigure5ConnTEPS(b *testing.B) {
	graphs, budget, dbLimit := figure4Setup(b)
	for i := 0; i < b.N; i++ {
		bench := &core.Benchmark{
			Platforms:  figure4Platforms(budget, dbLimit),
			Graphs:     graphs,
			Algorithms: []algo.Kind{algo.CONN},
			Params:     algo.Params{Seed: 42},
			Timeout:    5 * time.Minute,
			// One cell at a time, as in BenchmarkFigure4Runtimes.
			Parallelism: 1,
		}
		rep, err := bench.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n--- Figure 5: CONN kTEPS (missing values = failures) ---\n")
			fmt.Print(report.Figure5Table(rep.Results))
		}
	}
}

// ---------------------------------------------------------------------
// §3.4: BFS on a DBMS (column store, transitive query).

func BenchmarkSection34ColumnStoreBFS(b *testing.B) {
	g, err := datagen.Generate(datagen.Config{Persons: 20000, Seed: 2, Name: "snb"})
	if err != nil {
		b.Fatal(err)
	}
	table := columnstore.NewTable(g)
	source := graph.VertexID(420)
	b.ResetTimer()
	var pr columnstore.Profile
	for i := 0; i < b.N; i++ {
		pr = table.TransitiveCount(source, 0)
	}
	b.StopTimer()
	b.ReportMetric(pr.MTEPS, "MTEPS")
	fmt.Printf("\n--- §3.4: BFS on a DBMS (transitive query from vertex %d on %s) ---\n", source, g)
	fmt.Println(table.SQL(source))
	fmt.Printf("reachable vertices:        %d\n", pr.Reachable)
	fmt.Printf("random lookups:            %.2fM   (paper: 2.28M)\n", float64(pr.RandomLookups)/1e6)
	fmt.Printf("edge endpoints visited:    %.2fM   (paper: 289M)\n", float64(pr.EdgeEndpointsVisited)/1e6)
	fmt.Printf("elapsed:                   %s      (paper: 7 s on 24 threads)\n", pr.Elapsed.Round(time.Microsecond))
	fmt.Printf("MTEPS:                     %.1f    (paper: 41.3)\n", pr.MTEPS)
	fmt.Printf("CPU utilization:           %.0f%%  of %d00%% (paper: 1930%% of 2400%%)\n", pr.CPUUtilization, pr.Threads)
	fmt.Printf("cycles: hash table %.0f%%, exchange %.0f%%, column access %.0f%% (paper: 33%% / 10%% / 57%%)\n",
		100*pr.HashTableShare, 100*pr.ExchangeShare, 100*pr.ColumnShare)
}

// ---------------------------------------------------------------------
// §3.5: code quality of the reference implementations.

func BenchmarkSection35CodeQuality(b *testing.B) {
	var rep *codequality.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = codequality.AnalyzeDir(".")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	issues := rep.AllIssues()
	fmt.Printf("\n--- §3.5: code-quality report over this repository ---\n")
	fmt.Print(rep.Render())
	fmt.Printf("static-analysis findings: %d\n", len(issues))
	for _, f := range rep.WorstFunctions(3) {
		fmt.Printf("most complex: %s (cplx %d, %s:%d)\n", f.Name, f.Complexity, f.File, f.Line)
	}
}

// ---------------------------------------------------------------------
// §2.2: degree-distribution model selection per graph.

func BenchmarkDegreeModelSelection(b *testing.B) {
	div := envInt("GRAPHALYTICS_SCALE_DIV", 64)
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Printf("\n--- §2.2: best-fitting degree model per dataset (paper: 'the best fitting model changed') ---\n")
			fmt.Printf("%-12s %-10s %-22s %8s\n", "dataset", "best", "params", "KS")
		}
		for _, spec := range surrogate.Table1 {
			g, err := surrogate.Generate(spec, surrogate.Options{ScaleDiv: div})
			if err != nil {
				b.Fatal(err)
			}
			sample, err := stats.NewSample(gmetrics.Degrees(g))
			if err != nil {
				b.Fatal(err)
			}
			best := sample.BestFit()
			if i == 0 {
				fmt.Printf("%-12s %-10s %-22s %8.4f\n", spec.Name, best.Model.Name(), best.Model.Params(), best.KS)
			}
		}
	}
}

// ---------------------------------------------------------------------
// ETL times — §3.3's declared future work ("Comparing ETL times of
// different platforms is left as future work"), implemented: LoadGraph
// is timed separately from every algorithm run.

func BenchmarkETLTimes(b *testing.B) {
	g, err := datagen.Generate(datagen.Config{Persons: 20000, Seed: 12, Name: "etl"})
	if err != nil {
		b.Fatal(err)
	}
	plats := []platform.Platform{
		pregel.New(pregel.Options{}),
		mapreduce.New(mapreduce.Options{}),
		dataflow.New(dataflow.Options{}),
		graphdb.New(graphdb.Options{}),
	}
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Printf("\n--- ETL times (§3.3 future work): graph import per platform, %s ---\n", g)
		}
		for _, p := range plats {
			start := time.Now()
			loaded, err := p.LoadGraph(g)
			etl := time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			loaded.Close()
			if i == 0 {
				fmt.Printf("%12s %12s\n", p.Name(), etl.Round(10*time.Microsecond))
			}
		}
	}
}

// ---------------------------------------------------------------------
// Choke-point ablations (§2.1).

// BenchmarkAblationCombiner: message combining against the "excessive
// network utilization" choke point.
func BenchmarkAblationCombiner(b *testing.B) {
	g, err := datagen.Generate(datagen.Config{Persons: 10000, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		name := "combiner-on"
		if disable {
			name = "combiner-off"
		}
		b.Run(name, func(b *testing.B) {
			p := pregel.New(pregel.Options{DisableCombiners: disable})
			loaded, err := p.LoadGraph(g)
			if err != nil {
				b.Fatal(err)
			}
			defer loaded.Close()
			var msgs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := loaded.Run(context.Background(), algo.CONN, algo.Params{})
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Counters.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// BenchmarkAblationPartitioning: partitioning strategy vs network bytes.
func BenchmarkAblationPartitioning(b *testing.B) {
	g, err := datagen.Generate(datagen.Config{Persons: 10000, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	ordered := graph.Remap(g, graph.BFSOrder(g, 0))
	parts := 8
	partitioners := map[string]graph.Partitioner{
		"hash":   graph.NewHashPartitioner(parts),
		"range":  graph.NewRangePartitioner(parts, ordered.NumVertices()),
		"greedy": graph.NewGreedyPartitioner(ordered, parts),
	}
	for _, name := range []string{"hash", "range", "greedy"} {
		part := partitioners[name]
		b.Run(name, func(b *testing.B) {
			p := pregel.New(pregel.Options{Workers: parts, Partitioner: part})
			loaded, err := p.LoadGraph(ordered)
			if err != nil {
				b.Fatal(err)
			}
			defer loaded.Close()
			var netBytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := loaded.Run(context.Background(), algo.CONN, algo.Params{})
				if err != nil {
					b.Fatal(err)
				}
				netBytes = res.Counters.NetworkBytes
			}
			b.ReportMetric(float64(netBytes), "net-bytes")
			b.ReportMetric(graph.CutFraction(ordered, part)*100, "cut-%")
		})
	}
}

// BenchmarkAblationColumnCompression: the "large graph memory footprint"
// choke point — compressed vs raw spe_to column, space and speed.
func BenchmarkAblationColumnCompression(b *testing.B) {
	g, err := datagen.Generate(datagen.Config{Persons: 20000, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, compress := range []bool{true, false} {
		name := "compressed"
		if !compress {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			table := columnstore.NewTableOpts(g, columnstore.Options{Compress: compress})
			b.ReportMetric(float64(table.ColumnBytes()), "column-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				table.TransitiveCount(0, 0)
			}
		})
	}
}

// BenchmarkAblationVertexOrdering: the "poor access locality" choke
// point — graphdb page-cache hit rate under different vertex orders.
func BenchmarkAblationVertexOrdering(b *testing.B) {
	g, err := datagen.Generate(datagen.Config{Persons: 20000, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	orders := map[string]*graph.Graph{
		"random": graph.Remap(g, graph.RandomOrder(g, 3)),
		"bfs":    graph.Remap(g, graph.BFSOrder(g, 0)),
		"degree": graph.Remap(g, graph.DegreeOrder(g)),
	}
	for _, name := range []string{"random", "bfs", "degree"} {
		gg := orders[name]
		b.Run(name, func(b *testing.B) {
			p := graphdb.New(graphdb.Options{PageCachePages: 16})
			loaded, err := p.LoadGraph(gg)
			if err != nil {
				b.Fatal(err)
			}
			defer loaded.Close()
			var hitRate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := loaded.Run(context.Background(), algo.BFS, algo.Params{Source: 0})
				if err != nil {
					b.Fatal(err)
				}
				total := res.Counters.CacheHits + res.Counters.CacheMisses
				hitRate = float64(res.Counters.CacheHits) / float64(total)
			}
			b.ReportMetric(hitRate*100, "cache-hit-%")
		})
	}
}

// BenchmarkAblationSkew: the "skewed execution intensity" choke point.
// Hash partitioning balances vertex counts but not edge counts: on a
// heavy-tailed (R-MAT) graph some workers own far more edge work than
// others, while a geometric-degree graph balances naturally. The bench
// reports the per-worker edge-load imbalance (max/mean) plus the
// active-vertex decay tail that the paper calls out ("iterative
// algorithms often have a varying workload in the diverse iterations").
func BenchmarkAblationSkew(b *testing.B) {
	skewed, err := graphalytics.GenerateRMAT(13, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	uniform, err := datagen.Generate(datagen.Config{Persons: skewed.NumVertices(), Seed: 7, Name: "uniform",
		Degrees: mustGeometric(b)})
	if err != nil {
		b.Fatal(err)
	}
	const workers = 8
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat-skewed", skewed}, {"uniform", uniform}} {
		b.Run(tc.name, func(b *testing.B) {
			part := graph.NewHashPartitioner(workers)
			loads := make([]int64, workers)
			for v := 0; v < tc.g.NumVertices(); v++ {
				loads[part.Assign(graph.VertexID(v))] += int64(tc.g.OutDegree(graph.VertexID(v)))
			}
			var max, total int64
			for _, l := range loads {
				total += l
				if l > max {
					max = l
				}
			}
			imbalance := float64(max) * float64(workers) / float64(total)

			p := pregel.New(pregel.Options{Workers: workers, Partitioner: part})
			loaded, err := p.LoadGraph(tc.g)
			if err != nil {
				b.Fatal(err)
			}
			defer loaded.Close()
			var tailSteps int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := loaded.Run(context.Background(), algo.CONN, algo.Params{})
				if err != nil {
					b.Fatal(err)
				}
				// Count trailing supersteps with <10% of peak activity —
				// the "many final iterations with little work" tail.
				var peak int64
				for _, a := range res.Counters.ActivePerStep {
					if a > peak {
						peak = a
					}
				}
				tailSteps = 0
				for _, a := range res.Counters.ActivePerStep {
					if a > 0 && a < peak/10 {
						tailSteps++
					}
				}
			}
			b.ReportMetric(imbalance, "edge-imbalance")
			b.ReportMetric(float64(tailSteps), "low-work-steps")
		})
	}
}

func mustGeometric(b *testing.B) dist.Distribution {
	d, err := dist.NewGeometric(0.05, 200) // mean 20, light tail
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// ---------------------------------------------------------------------
// Campaign scheduler: parallel matrix execution vs the sequential
// nested loop, and the repeated-run methodology.

func BenchmarkCampaignSchedulerSpeedup(b *testing.B) {
	graphs := make([]*graph.Graph, 0, 3)
	for i, persons := range []int{2000, 1500, 1000} {
		g, err := datagen.Generate(datagen.Config{Persons: persons, Seed: uint64(10 + i), Name: fmt.Sprintf("sched-%d", persons)})
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	platforms := func() []platform.Platform {
		return []platform.Platform{
			pregel.New(pregel.Options{}),
			mapreduce.New(mapreduce.Options{RoundOverhead: -1}),
			dataflow.New(dataflow.Options{}),
		}
	}
	campaign := func(parallelism int) time.Duration {
		bench := &core.Benchmark{
			Platforms:   platforms(),
			Graphs:      graphs,
			Params:      algo.Params{Seed: 42},
			Parallelism: parallelism,
			Timeout:     5 * time.Minute,
		}
		start := time.Now()
		if _, err := bench.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		seq := campaign(1)
		par := campaign(runtime.NumCPU())
		if i == 0 {
			fmt.Printf("\n--- Campaign scheduler: 3 platforms × 3 graphs × %d algorithms ---\n", len(workload.Kinds()))
			fmt.Printf("sequential (parallel=1):  %v\n", seq.Round(time.Millisecond))
			fmt.Printf("parallel   (parallel=%d): %v\n", runtime.NumCPU(), par.Round(time.Millisecond))
			fmt.Printf("speedup: %.2fx\n", float64(seq)/float64(par))
		}
		b.ReportMetric(float64(seq)/float64(par), "speedup")
	}
}

func BenchmarkCampaignRepetitions(b *testing.B) {
	g, err := datagen.Generate(datagen.Config{Persons: 2000, Seed: 21, Name: "reps"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		bench := &core.Benchmark{
			Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
			Graphs:     []*graph.Graph{g},
			Algorithms: []algo.Kind{algo.BFS, algo.CONN},
			Params:     algo.Params{Seed: 42},
			Warmup:     1,
			Reps:       5,
		}
		rep, err := bench.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n--- Repeated-run methodology: 1 warm-up + 5 timed repetitions ---\n")
			fmt.Printf("%-6s %12s %12s %12s %12s %12s %12s\n", "algo", "first", "min", "mean", "max", "stddev", "warm-mean")
			for _, r := range rep.Results {
				s := r.Reps
				fmt.Printf("%-6s %12v %12v %12v %12v %12v %12v\n", r.Algorithm,
					s.First.Round(time.Microsecond), s.Min.Round(time.Microsecond),
					s.Mean.Round(time.Microsecond), s.Max.Round(time.Microsecond),
					s.Stddev.Round(time.Microsecond), s.WarmMean.Round(time.Microsecond))
			}
		}
	}
}
