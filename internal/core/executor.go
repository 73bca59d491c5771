package core

import (
	"context"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
	"graphalytics/internal/stamp"
)

// CellSpec is the self-contained description of one matrix cell handed
// to a CellExecutor: everything a process that has never seen this
// campaign needs to execute the cell and reproduce the exact result a
// local run would have produced — the coordinates, the full repetition
// protocol, and the content fingerprints that key artifact fetching and
// the stamped result store.
type CellSpec struct {
	// Platform is the platform name ("pregel", "graphdb", ...). The
	// executor resolves it to a concrete configuration; the distributed
	// lease pool ships the platform's construction parameters in the
	// lease so every runner builds an identical engine.
	Platform string `json:"platform"`
	// Graph is the dataset name as it appears in reports.
	Graph string `json:"graph"`
	// Algorithm is the workload to run.
	Algorithm algo.Kind `json:"algorithm"`
	// Params are the raw campaign parameters (defaults are applied
	// against the graph's vertex count by whoever executes the cell,
	// exactly as the local pool does).
	Params algo.Params `json:"params"`

	// Timeout, Validate, Reps, Warmup, and MonitorInterval carry the
	// campaign's per-cell execution protocol.
	Timeout         time.Duration `json:"timeout_ns,omitempty"`
	Validate        bool          `json:"validate,omitempty"`
	Reps            int           `json:"reps,omitempty"`
	Warmup          int           `json:"warmup,omitempty"`
	MonitorInterval time.Duration `json:"monitor_ns,omitempty"`

	// GraphFP is the dataset fingerprint (generator identity or content
	// hash) — the content address under which the graph artifact can be
	// fetched from a cache or from the campaign manager.
	GraphFP stamp.Fingerprint `json:"graph_fp"`
	// CellFP is the cell's own content fingerprint (zero only when
	// stamping is fully disabled).
	CellFP stamp.Fingerprint `json:"cell_fp"`
	// Binary is the binary/kernel version folded into fingerprints, so
	// a remote executor stamps results under the campaign's identity,
	// not its own.
	Binary string `json:"binary,omitempty"`
	// GraphEdges is |E| of the dataset, used to fill missing-value rows
	// when the executor fails without producing a result.
	GraphEdges int64 `json:"graph_edges,omitempty"`
}

// CellExecutor is the execution seam of the campaign engine: the
// scheduler, restore logic, stamping, and report collation
// are identical for every campaign, and only the way a pending cell
// turns into a RunResult differs. The default (Benchmark.Executor ==
// nil) is the local pool — the in-process DAG with one ETL per
// (platform, graph) pair feeding per-cell run jobs. internal/dist's
// Manager implements this interface as a remote lease pool that leases
// cells to runner processes over the network.
//
// ExecuteCell returns the finished cell and, if it has one, the raw
// execution error. A row returned with a nil error may still record a
// failure: the campaign derives the error its status stands for
// (errOf), so a row that crossed a process boundary retries exactly as
// the local pool would. The retry policy classifies the error, and on
// the final attempt the RunResult is recorded. An executor that cannot
// produce a result at all returns a zero RunResult and its error; the
// campaign then records MissingValue.
// ExecuteCell must be safe for concurrent use: the scheduler overlaps
// cells up to the campaign parallelism.
type CellExecutor interface {
	ExecuteCell(ctx context.Context, spec CellSpec) (report.RunResult, error)
}

// cellSpec assembles the executor hand-off for one pending cell.
func (c *campaign) cellSpec(p platform.Platform, g *graph.Graph, a algo.Kind, fp stamp.Fingerprint) CellSpec {
	b := c.b
	return CellSpec{
		Platform:        p.Name(),
		Graph:           g.Name(),
		Algorithm:       a,
		Params:          b.Params,
		Timeout:         b.Timeout,
		Validate:        b.Validate,
		Reps:            b.Reps,
		Warmup:          b.Warmup,
		MonitorInterval: b.MonitorInterval,
		GraphFP:         c.graphFPs[g.Name()],
		CellFP:          fp,
		Binary:          c.binary,
		GraphEdges:      g.NumEdges(),
	}
}

// Campaign is the inverse of cellSpec: the 1×1×1 campaign that runs
// the cell in another process on p and g, the platform and dataset the
// spec names as that process built and resolved them. The caller adds
// its own stamp store and artifact cache.
func (s CellSpec) Campaign(p platform.Platform, g *graph.Graph) *Benchmark {
	return &Benchmark{
		Platforms:       []platform.Platform{p},
		Graphs:          []*graph.Graph{g},
		Algorithms:      []algo.Kind{s.Algorithm},
		Params:          s.Params,
		Timeout:         s.Timeout,
		Validate:        s.Validate,
		Reps:            s.Reps,
		Warmup:          s.Warmup,
		MonitorInterval: s.MonitorInterval,
		Parallelism:     1,
		BinaryVersion:   s.Binary,
		GraphStamps:     map[string]stamp.Fingerprint{g.Name(): s.GraphFP},
	}
}
