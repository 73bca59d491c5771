// Package algo defines the Graphalytics workload algorithms and provides
// their sequential reference implementations, which serve as the gold
// standard the Output Validator checks every platform against.
//
// The five workloads of the source paper (§3.2):
//
//   - STATS: vertex/edge counts and mean local clustering coefficient;
//   - BFS:   breadth-first search depths from a seed vertex;
//   - CONN:  connected components (weakly connected for directed graphs);
//   - CD:    community detection by Leung et al. label propagation with
//     hop attenuation and node-degree preference;
//   - EVO:   graph evolution prediction with the Leskovec et al.
//     forest-fire model.
//
// Plus the three workloads the LDBC Graphalytics benchmark v1.0.1 added
// to the suite:
//
//   - PR:    PageRank with damping 0.85 and a fixed iteration count
//     (dangling mass redistributed uniformly, the LDBC definition);
//   - SSSP:  single-source shortest paths over float64 edge weights
//     (unit weights when the graph is unweighted);
//   - LCC:   the per-vertex local clustering coefficient (STATS reports
//     only the mean; LCC reports the full vector).
//
// Every algorithm is specified deterministically (fixed iteration styles,
// ordered tie-breaking, per-entity seeded randomness) so that all four
// platform implementations produce byte-identical outputs — the property
// that makes exact output validation possible. PR relaxes this to an
// epsilon per vertex because platforms sum floats in different orders.
package algo

import "graphalytics/internal/graph"

// Kind names a workload algorithm.
type Kind string

// The workload algorithms: the paper's five plus the three LDBC
// Graphalytics additions.
const (
	STATS Kind = "STATS"
	BFS   Kind = "BFS"
	CONN  Kind = "CONN"
	CD    Kind = "CD"
	EVO   Kind = "EVO"
	PR    Kind = "PR"
	SSSP  Kind = "SSSP"
	LCC   Kind = "LCC"
)

// Kinds lists all algorithms: the paper's five in its reporting order,
// then the LDBC additions. The workload registry
// (internal/workload) is the authoritative iteration order for the
// harness; this list only enumerates the Kind constants.
var Kinds = []Kind{BFS, CD, CONN, EVO, STATS, PR, SSSP, LCC}

// Params carries per-algorithm parameters. Zero values select the
// benchmark defaults.
type Params struct {
	// Source is the BFS seed vertex.
	Source graph.VertexID

	// CDIterations caps label-propagation rounds (default 10).
	CDIterations int
	// CDDelta is the Leung hop attenuation δ (default 0.05).
	CDDelta float64
	// CDPreference is the node preference exponent m on degree
	// (default 0.1, the value Leung et al. recommend).
	CDPreference float64

	// EvoNewVertices is the number of vertices EVO adds (default
	// max(1, |V|/100)).
	EvoNewVertices int
	// EvoPForward is the forward burning probability (default 0.35).
	EvoPForward float64
	// EvoRBackward is the backward burning ratio (default 0.32).
	EvoRBackward float64
	// EvoMaxBurn caps the vertices burned per fire (default 4096).
	EvoMaxBurn int
	// Seed drives EVO's randomized burning.
	Seed uint64

	// PRIterations is the fixed PageRank iteration count (default 10,
	// the LDBC Graphalytics convention of a parameterized fixed count).
	PRIterations int
	// PRDamping is the PageRank damping factor (default 0.85).
	PRDamping float64

	// MaxIterations is a safety bound for fixpoint algorithms
	// (default 2×|V|+1 supersteps; CONN always converges sooner).
	MaxIterations int
}

// WithDefaults returns p with zero fields replaced by the benchmark
// defaults for a graph with n vertices.
func (p Params) WithDefaults(n int) Params {
	if p.CDIterations <= 0 {
		p.CDIterations = 10
	}
	if p.CDDelta == 0 {
		p.CDDelta = 0.05
	}
	if p.CDPreference == 0 {
		p.CDPreference = 0.1
	}
	if p.EvoNewVertices <= 0 {
		p.EvoNewVertices = n / 100
		if p.EvoNewVertices < 1 {
			p.EvoNewVertices = 1
		}
	}
	if p.EvoPForward == 0 {
		p.EvoPForward = 0.35
	}
	if p.EvoRBackward == 0 {
		p.EvoRBackward = 0.32
	}
	if p.EvoMaxBurn <= 0 {
		p.EvoMaxBurn = 4096
	}
	if p.PRIterations <= 0 {
		p.PRIterations = 10
	}
	if p.PRDamping <= 0 || p.PRDamping >= 1 {
		p.PRDamping = 0.85
	}
	if p.MaxIterations <= 0 {
		p.MaxIterations = 2*n + 1
	}
	return p
}

// StatsOutput is the STATS result.
type StatsOutput struct {
	Vertices int
	Edges    int64
	MeanLCC  float64
}

// BFSOutput holds the BFS depth of every vertex (-1 = unreachable).
type BFSOutput []int64

// ConnOutput holds, per vertex, the smallest vertex ID in its component.
type ConnOutput []graph.VertexID

// CDOutput holds the community label of every vertex (labels are vertex
// IDs of community "founders").
type CDOutput []int64

// EvoOutput is the EVO result: the vertices added and the new edges
// created, sorted lexicographically.
type EvoOutput struct {
	NewVertices int
	Edges       [][2]graph.VertexID
}

// PROutput holds the PageRank of every vertex (sums to 1).
type PROutput []float64

// SSSPOutput holds the shortest-path distance of every vertex from the
// source (+Inf = unreachable).
type SSSPOutput []float64

// LCCOutput holds the local clustering coefficient of every vertex.
type LCCOutput []float64
