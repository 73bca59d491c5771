// Package platform defines the service-provider interface every
// graph-processing platform implements to join the benchmark — the
// "Platform-specific algorithm implementation" box of the Graphalytics
// architecture (Figure 2). A platform performs ETL once per graph
// (LoadGraph, untimed by the harness, matching §3.3: "does not include
// ETL") and then executes workload algorithms on the loaded graph.
//
// The package also defines the shared counter set through which engines
// expose the §2.1 choke points as measurable quantities: message and
// network volume (excessive network utilization), peak memory (large
// graph memory footprint), and per-superstep activity and per-worker
// busy time (skewed execution intensity).
package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
)

// Platform is one system under test.
type Platform interface {
	// Name identifies the platform in reports ("pregel", "mapreduce",
	// "dataflow", "graphdb").
	Name() string
	// LoadGraph ingests g (the ETL step). It may fail if the graph does
	// not fit the platform's resources (ErrOutOfMemory).
	LoadGraph(g *graph.Graph) (Loaded, error)
}

// ConcurrencyHinter is optionally implemented by platforms whose
// resources bound how many benchmark jobs the harness should run on
// them at once. A memory-budgeted engine returns 1 so its jobs
// serialize (each run checks the budget against the resident graph
// plus its own bytes, not against what concurrent jobs hold) while
// unconstrained platforms keep the campaign saturated.
type ConcurrencyHinter interface {
	// ConcurrencyLimit returns the maximum number of campaign jobs to
	// run concurrently on this platform (0 = unlimited).
	ConcurrencyLimit() int
}

// ConcurrencyLimitOf returns p's concurrency hint, or 0 (unlimited)
// for platforms that do not implement ConcurrencyHinter.
func ConcurrencyLimitOf(p Platform) int {
	if h, ok := p.(ConcurrencyHinter); ok {
		return h.ConcurrencyLimit()
	}
	return 0
}

// ConfigStamper is optionally implemented by platforms to expose a
// canonical configuration string for content-addressed fingerprints:
// everything that changes results or resource behaviour (worker budget,
// memory budget, engine knobs) and nothing that does not. The
// incremental campaign engine folds it into every cell fingerprint, so
// a stamped result is never reused across a configuration change.
type ConfigStamper interface {
	// StampConfig returns the canonical configuration string.
	StampConfig() string
}

// StampConfigOf returns p's configuration stamp, degrading to the bare
// platform name for platforms that do not implement ConfigStamper
// (wrapped or external platforms): their results then invalidate only
// on name/binary changes, which is conservative but never wrong in the
// unsafe direction as long as the wrapper is deterministic.
func StampConfigOf(p Platform) string {
	if s, ok := p.(ConfigStamper); ok {
		return s.StampConfig()
	}
	return p.Name()
}

// CachedLoader is optionally implemented by platforms whose ETL output
// can be serialized to the artifact cache and restored without
// re-running the transformation. The harness stores the blob under the
// ETL fingerprint (dataset × platform config × ETLVersion × binary) and
// feeds it back through ReadETL on later campaigns.
type CachedLoader interface {
	Platform
	// ETLVersion names the blob encoding; bump it whenever the
	// serialization or the loaded representation changes so stale
	// artifacts miss instead of mis-loading.
	ETLVersion() string
	// WriteETL serializes the platform-resident form of a loaded graph.
	WriteETL(l Loaded, w io.Writer) error
	// ReadETL reconstructs a Loaded from a blob written by WriteETL for
	// the same graph. It must enforce the same resource budgets as
	// LoadGraph (a cached load still counts against memory budgets).
	ReadETL(g *graph.Graph, r io.Reader) (Loaded, error)
}

// Loaded is a graph resident on a platform, ready to run algorithms.
type Loaded interface {
	// Run executes the algorithm and returns its output and counters.
	// Cancellation via ctx must be honored between iterations.
	Run(ctx context.Context, kind algo.Kind, params algo.Params) (*Result, error)
	// Graph returns the loaded graph.
	Graph() *graph.Graph
	// Close releases platform resources.
	Close() error
}

// Result is the outcome of one algorithm execution.
type Result struct {
	// Output is one of algo.StatsOutput, algo.BFSOutput, algo.ConnOutput,
	// algo.CDOutput, or algo.EvoOutput.
	Output any
	// Counters holds the engine-level metrics for the run.
	Counters Counters
}

// Counters is the shared metric set engines populate during a run. All
// fields are engine-maintained totals for one algorithm execution.
type Counters struct {
	// Supersteps / rounds / jobs executed.
	Supersteps int64
	// Messages delivered between vertices (BSP/dataflow) or records
	// shuffled (MapReduce).
	Messages int64
	// MessageBytes approximates the payload volume of Messages.
	MessageBytes int64
	// NetworkBytes is the subset of MessageBytes that crossed a
	// partition boundary — the "excessive network utilization" choke
	// point measure.
	NetworkBytes int64
	// SpilledBytes counts bytes materialized to (simulated) stable
	// storage between rounds (MapReduce, dataflow shuffles).
	SpilledBytes int64
	// PeakMemoryBytes is the engine's own accounting of its maximum
	// live data-structure footprint during this run: the graph it keeps
	// resident plus the run's own peak, never another run's.
	PeakMemoryBytes int64
	// ActivePerStep records active vertices per superstep — the decay
	// curve behind the "skewed execution intensity" choke point.
	ActivePerStep []int64
	// WorkerBusy records cumulative busy time per worker, whose spread
	// measures load skew.
	WorkerBusy []time.Duration
	// EdgesTraversed counts edge examinations (TEPS numerator for
	// traversal algorithms).
	EdgesTraversed int64
	// CacheHits / CacheMisses report page-cache behaviour for
	// store-backed platforms (the graph database) — the "poor access
	// locality" choke point measure. Each run starts on a cold cache, so
	// they count this run's accesses alone.
	CacheHits   int64
	CacheMisses int64
}

// Merge accumulates other into c.
func (c *Counters) Merge(other Counters) {
	c.Supersteps += other.Supersteps
	c.Messages += other.Messages
	c.MessageBytes += other.MessageBytes
	c.NetworkBytes += other.NetworkBytes
	c.SpilledBytes += other.SpilledBytes
	if other.PeakMemoryBytes > c.PeakMemoryBytes {
		c.PeakMemoryBytes = other.PeakMemoryBytes
	}
	c.ActivePerStep = append(c.ActivePerStep, other.ActivePerStep...)
	c.EdgesTraversed += other.EdgesTraversed
	c.CacheHits += other.CacheHits
	c.CacheMisses += other.CacheMisses
	if len(other.WorkerBusy) > 0 {
		if len(c.WorkerBusy) < len(other.WorkerBusy) {
			grown := make([]time.Duration, len(other.WorkerBusy))
			copy(grown, c.WorkerBusy)
			c.WorkerBusy = grown
		}
		for i, d := range other.WorkerBusy {
			c.WorkerBusy[i] += d
		}
	}
}

// Failure taxonomy. The harness records which failure produced each
// missing value in the Figure 4 matrix.
var (
	// ErrOutOfMemory reports that the platform exceeded its memory
	// budget (the GraphX/Neo4j failure mode in §3.3).
	ErrOutOfMemory = errors.New("platform: out of memory")
	// ErrUnsupported reports that the platform cannot run the algorithm.
	ErrUnsupported = errors.New("platform: unsupported algorithm")
	// ErrInterrupted marks a kernel stopped mid-phase by context
	// cancellation or deadline. It always wraps the context's own error,
	// so errors.Is against context.Canceled / context.DeadlineExceeded
	// keeps working through it; the harness uses the sentinel to tell
	// "the campaign stopped this cell" apart from "this cell failed".
	ErrInterrupted = errors.New("platform: interrupted")
)

// OOMError wraps ErrOutOfMemory with budget context.
type OOMError struct {
	Platform string
	Need     int64
	Budget   int64
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("%s: out of memory: need %d bytes, budget %d", e.Platform, e.Need, e.Budget)
}

// Unwrap makes errors.Is(err, ErrOutOfMemory) succeed.
func (e *OOMError) Unwrap() error { return ErrOutOfMemory }

// MemoryTracker is a small atomic accounting helper that enforces a
// memory budget and records the peak. LoadedGraph.Run gives every run
// its own.
type MemoryTracker struct {
	platform string
	budget   int64
	current  atomic.Int64
	peak     atomic.Int64
}

// NewMemoryTracker returns a tracker with the given budget
// (0 = unlimited).
func NewMemoryTracker(platform string, budget int64) *MemoryTracker {
	return &MemoryTracker{platform: platform, budget: budget}
}

// Alloc records n bytes of live data; it returns an *OOMError when the
// budget would be exceeded (the allocation is still recorded so the
// caller can Free it uniformly).
func (t *MemoryTracker) Alloc(n int64) error {
	cur := t.current.Add(n)
	for {
		peak := t.peak.Load()
		if cur <= peak || t.peak.CompareAndSwap(peak, cur) {
			break
		}
	}
	if t.budget > 0 && cur > t.budget {
		return &OOMError{Platform: t.platform, Need: cur, Budget: t.budget}
	}
	return nil
}

// Free releases n bytes.
func (t *MemoryTracker) Free(n int64) { t.current.Add(-n) }

// Peak returns the maximum recorded usage.
func (t *MemoryTracker) Peak() int64 { return t.peak.Load() }

// CheckStride is the amortization interval for in-loop context checks:
// kernel hot loops probe the context once every CheckStride work units
// (vertices computed, records decoded, frontier pops) so the probe cost
// stays negligible while cancellation latency stays bounded by one
// stride of work.
const CheckStride = 4096

// CheckContext returns ctx.Err() wrapped in ErrInterrupted for uniform
// reporting; engines call it between supersteps/rounds.
func CheckContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrInterrupted, err)
	}
	return nil
}

// CheckContextPhase is CheckContext with the interrupted kernel phase
// recorded in the error ("pregel/compute", "mapreduce/map", ...), so a
// cancelled cell reports where inside the engine it stopped.
func CheckContextPhase(ctx context.Context, phase string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w in %s: %w", ErrInterrupted, phase, err)
	}
	return nil
}
