// Package graphalytics is a from-scratch Go reproduction of
// "Graphalytics: A Big Data Benchmark for Graph-Processing Platforms"
// (Capotă, Hegeman, Iosup, Prat-Pérez, Erling, Boncz — 2015).
//
// It bundles, behind one facade:
//
//   - the benchmark harness (Benchmark Core, Output Validator, System
//     Monitor, Report Generator) of Figure 2;
//   - the five workload algorithms of §3.2 (STATS, BFS, CONN, CD, EVO)
//     with sequential reference implementations;
//   - four platform engines mirroring the paper's systems under test:
//     a Pregel/BSP engine (Giraph), a MapReduce engine (Hadoop), a
//     dataflow engine (GraphX), and a record-store graph database
//     (Neo4j) — plus the §3.4 column store (Virtuoso);
//   - the Datagen social-network generator with pluggable degree
//     distributions and the rewiring post-processor of §2.2, the
//     Graph500 R-MAT generator, and Table 1 surrogate datasets.
//
// Quick start:
//
//	g, _ := graphalytics.GenerateSocialNetwork(10_000, 42)
//	b := &graphalytics.Benchmark{
//	    Platforms: graphalytics.AllPlatforms(),
//	    Graphs:    []*graphalytics.Graph{g},
//	    Validate:  true,
//	}
//	rep, _ := b.Run(context.Background())
//	fmt.Print(graphalytics.Figure4Table(rep.Results))
package graphalytics

import (
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/core"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/gen/dist"
	"graphalytics/internal/gen/rewire"
	"graphalytics/internal/gen/rmat"
	"graphalytics/internal/gen/surrogate"
	"graphalytics/internal/graph"
	"graphalytics/internal/graph/gmetrics"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
	"graphalytics/internal/workload"
)

// Core graph types.
type (
	// Graph is the CSR graph shared by every component.
	Graph = graph.Graph
	// VertexID is a dense vertex index.
	VertexID = graph.VertexID
	// Builder incrementally constructs graphs.
	Builder = graph.Builder
	// LoadOptions configures text-format loading.
	LoadOptions = graph.LoadOptions
)

// Workload types.
type (
	// Algorithm names one of the Graphalytics workloads.
	Algorithm = algo.Kind
	// Params carries algorithm parameters.
	Params = algo.Params
	// StatsOutput is the STATS result type platforms return.
	StatsOutput = algo.StatsOutput
	// BFSOutput is the BFS result type platforms return.
	BFSOutput = algo.BFSOutput
	// ConnOutput is the CONN result type platforms return.
	ConnOutput = algo.ConnOutput
	// CDOutput is the CD result type platforms return.
	CDOutput = algo.CDOutput
	// EvoOutput is the EVO result type platforms return.
	EvoOutput = algo.EvoOutput
	// PROutput is the PR (PageRank) result type platforms return.
	PROutput = algo.PROutput
	// SSSPOutput is the SSSP result type platforms return.
	SSSPOutput = algo.SSSPOutput
	// LCCOutput is the LCC result type platforms return.
	LCCOutput = algo.LCCOutput
)

// The workload algorithms: the paper's five (§3.2) plus the three LDBC
// Graphalytics v1.0.1 additions.
const (
	STATS = algo.STATS
	BFS   = algo.BFS
	CONN  = algo.CONN
	CD    = algo.CD
	EVO   = algo.EVO
	PR    = algo.PR
	SSSP  = algo.SSSP
	LCC   = algo.LCC
)

// Algorithms lists every registered workload in the registry's report
// order.
func Algorithms() []Algorithm { return workload.Kinds() }

// Workload registry re-exports: the registry is the single place a
// workload is described (reference, validation policy, capability
// requirements); see internal/workload.
type (
	// WorkloadSpec is one self-describing workload registration.
	WorkloadSpec = workload.Spec
	// ValidationPolicy names an output-comparison policy.
	ValidationPolicy = workload.Policy
)

// Workloads returns every registered workload spec in report order.
func Workloads() []WorkloadSpec { return workload.All() }

// ParseAlgorithm resolves a workload name or LDBC alias ("wcc",
// "pagerank", any case) through the registry.
func ParseAlgorithm(name string) (Algorithm, error) {
	s, err := workload.Parse(name)
	if err != nil {
		return "", err
	}
	return s.Kind, nil
}

// RegisterWorkload adds a custom workload to the registry; the harness,
// report, and conformance suite pick it up without further wiring.
func RegisterWorkload(s WorkloadSpec) { workload.Register(s) }

// Harness types.
type (
	// Platform is a system under test.
	Platform = platform.Platform
	// Benchmark is a configured campaign over platforms × graphs ×
	// algorithms.
	Benchmark = core.Benchmark
	// Report is a finished campaign's results.
	Report = report.Report
	// RunResult is one cell of the benchmark matrix.
	RunResult = report.RunResult
	// IngestStat is the load phase (time + EVPS) of one dataset.
	IngestStat = report.IngestStat
	// Characteristics is a Table 1 measurement row.
	Characteristics = gmetrics.Characteristics
)

// Platform option re-exports.
type (
	// PregelOptions configures the BSP (Giraph-analogue) platform.
	PregelOptions = pregel.Options
	// MapReduceOptions configures the Hadoop-analogue platform.
	MapReduceOptions = mapreduce.Options
	// DataflowOptions configures the GraphX-analogue platform.
	DataflowOptions = dataflow.Options
	// GraphDBOptions configures the Neo4j-analogue platform.
	GraphDBOptions = graphdb.Options
)

// NewPregel returns the BSP (Giraph-analogue) platform.
func NewPregel(opts PregelOptions) Platform { return pregel.New(opts) }

// NewMapReduce returns the Hadoop-analogue platform.
func NewMapReduce(opts MapReduceOptions) Platform { return mapreduce.New(opts) }

// NewDataflow returns the GraphX-analogue platform.
func NewDataflow(opts DataflowOptions) Platform { return dataflow.New(opts) }

// NewGraphDB returns the Neo4j-analogue platform.
func NewGraphDB(opts GraphDBOptions) Platform { return graphdb.New(opts) }

// AllPlatforms returns all four platforms with default options — the
// §3.3 benchmark matrix.
func AllPlatforms() []Platform {
	return []Platform{
		NewPregel(PregelOptions{}),
		NewMapReduce(MapReduceOptions{}),
		NewDataflow(DataflowOptions{}),
		NewGraphDB(GraphDBOptions{}),
	}
}

// LoadGraph reads a graph from a Graphalytics-format edge file (.e) and
// optional vertex file (.v; pass "" to derive vertices from edges).
// Loading runs the parallel ingest pipeline on all cores; use
// LoadGraphOpts to pin the worker count.
func LoadGraph(edgePath, vertexPath string, directed bool) (*Graph, error) {
	return graph.LoadEdgeList(edgePath, vertexPath, graph.LoadOptions{Directed: directed})
}

// LoadGraphOpts is LoadGraph with full options: dataset name, self-loop
// dropping, and ingest parallelism (Workers 0 = all cores, 1 = the file
// parsed as one chunk). Every worker count runs the same loader, which
// holds the file bytes in memory, and produces a byte-identical graph.
func LoadGraphOpts(edgePath, vertexPath string, opts LoadOptions) (*Graph, error) {
	return graph.LoadEdgeList(edgePath, vertexPath, opts)
}

// GenerateSocialNetwork produces a Datagen person-knows-person graph
// with the default (Facebook-like) degree distribution.
func GenerateSocialNetwork(persons int, seed uint64) (*Graph, error) {
	return datagen.Generate(datagen.Config{Persons: persons, Seed: seed})
}

// DatagenConfig re-exports the full generator configuration.
type DatagenConfig = datagen.Config

// GenerateSocialNetworkConfig produces a Datagen graph from a full
// configuration (degree plugin, window, pass fractions, workers).
func GenerateSocialNetworkConfig(cfg DatagenConfig) (*Graph, error) {
	return datagen.Generate(cfg)
}

// GenerateRMAT produces a Graph500-style R-MAT graph of 2^scale
// vertices (edgeFactor <= 0 selects the Graph500 default of 16).
func GenerateRMAT(scale, edgeFactor int, seed uint64) (*Graph, error) {
	return rmat.Generate(rmat.Config{Scale: scale, EdgeFactor: edgeFactor, Seed: seed})
}

// RMATConfig re-exports the full R-MAT generator configuration
// (including the seeded Weighted option).
type RMATConfig = rmat.Config

// GenerateRMATConfig produces an R-MAT graph from a full configuration.
func GenerateRMATConfig(cfg RMATConfig) (*Graph, error) {
	return rmat.Generate(cfg)
}

// GenerateSurrogate synthesizes a stand-in for one of the Table 1
// datasets ("amazon", "youtube", "livejournal", "patents", "wikipedia")
// at 1/scaleDiv of its published size (0 = default scale).
func GenerateSurrogate(name string, scaleDiv int) (*Graph, error) {
	spec, err := surrogate.Find(name)
	if err != nil {
		return nil, err
	}
	return surrogate.Generate(spec, surrogate.Options{ScaleDiv: scaleDiv})
}

// Measure computes the Table 1 characteristics of g.
func Measure(g *Graph) Characteristics { return gmetrics.Measure(g) }

// RewireTarget re-exports the rewiring target of §2.2.
type RewireTarget = rewire.Target

// Rewire hill-climbs an undirected graph toward target structural
// characteristics while preserving its degree sequence (§2.2).
func Rewire(g *Graph, target RewireTarget) (*Graph, error) {
	res, err := rewire.Rewire(g, target)
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}

// Reference implementations (the Output Validator's gold standard).

// RunReferenceBFS runs the sequential reference BFS.
func RunReferenceBFS(g *Graph, source VertexID) []int64 {
	return algo.RunBFS(g, source)
}

// RunReferenceStats runs the sequential reference STATS.
func RunReferenceStats(g *Graph) algo.StatsOutput { return algo.RunStats(g) }

// RunReferenceConn runs the sequential reference CONN.
func RunReferenceConn(g *Graph) []VertexID { return algo.RunConn(g) }

// RunReferenceCD runs the sequential reference CD.
func RunReferenceCD(g *Graph, p Params) []int64 { return algo.RunCD(g, p) }

// RunReferenceEvo runs the sequential reference EVO.
func RunReferenceEvo(g *Graph, p Params) algo.EvoOutput { return algo.RunEvo(g, p) }

// RunReferencePageRank runs the sequential reference PageRank.
func RunReferencePageRank(g *Graph, p Params) PROutput { return algo.RunPageRank(g, p) }

// RunReferenceSSSP runs the sequential reference SSSP (Dijkstra over
// the graph's edge weights; unit weights when unweighted).
func RunReferenceSSSP(g *Graph, source VertexID) SSSPOutput { return algo.RunSSSP(g, source) }

// RunReferenceLCC runs the sequential reference per-vertex LCC.
func RunReferenceLCC(g *Graph) LCCOutput { return algo.RunLCC(g) }

// Modularity scores a community labeling (the CD quality measure).
func Modularity(g *Graph, labels []int64) float64 {
	return algo.Modularity(g, algo.CDOutput(labels))
}

// Report rendering re-exports.

// Figure4Table renders the runtime matrix in the shape of Figure 4.
func Figure4Table(results []RunResult) string { return report.Figure4Table(results) }

// Figure5Table renders CONN kTEPS in the shape of Figure 5.
func Figure5Table(results []RunResult) string { return report.Figure5Table(results) }

// IngestTable renders the per-dataset load-time/EVPS table.
func IngestTable(ingests []IngestStat) string { return report.IngestTable(ingests) }

// DegreeDistribution re-exports the Datagen degree plugin interface.
type DegreeDistribution = dist.Distribution

// NewZetaDegrees returns the Zeta(s) degree plugin (Figure 1 uses 1.7).
func NewZetaDegrees(s float64, maxDegree int) (DegreeDistribution, error) {
	return dist.NewZeta(s, maxDegree)
}

// NewGeometricDegrees returns the Geometric(p) degree plugin (Figure 1
// uses 0.12).
func NewGeometricDegrees(p float64, maxDegree int) (DegreeDistribution, error) {
	return dist.NewGeometric(p, maxDegree)
}

// DefaultTimeout is a reasonable per-run timeout for interactive use.
const DefaultTimeout = 10 * time.Minute
