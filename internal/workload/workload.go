// Package workload is the workload registry: the single place where a
// benchmark workload is described — its name and aliases, its reference
// implementation, its output-validation policy, and the graph
// capabilities it needs. The harness (internal/core), the Report
// Generator (internal/report), the conformance suite
// (internal/platform/platformtest), and the CLI all iterate this
// registry instead of a hardcoded algorithm list, so adding a workload
// is one Register call plus platform implementations — not an edit in
// every layer.
//
// The built-in registrations (builtin.go) cover the source paper's five
// workloads (BFS, CD, CONN, EVO, STATS) and the three the LDBC
// Graphalytics benchmark v1.0.1 added (PR, SSSP, LCC).
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/validation"
)

// Policy names the output-comparison policy a workload validates under.
// The registry records which one a workload's Check function applies so
// reports and docs can state the acceptance criterion. Every built-in
// workload is exact; a workload registered from outside may name and
// check a tolerance of its own.
type Policy string

// PolicyExact: outputs must match the reference bit-identically.
const PolicyExact Policy = "exact"

// Spec is one self-describing workload.
type Spec struct {
	// Kind is the algorithm identifier platforms dispatch on.
	Kind algo.Kind
	// Aliases are alternate names Parse accepts (e.g. the LDBC names
	// "wcc" for CONN and "cdlp" for CD). Case-insensitive.
	Aliases []string
	// Description is a one-line summary for reports and -help output.
	Description string
	// Policy names the validation policy Check applies.
	Policy Policy
	// NeedsWeights marks workloads that consume edge weights (SSSP).
	// Unweighted graphs still run them with unit weights.
	NeedsWeights bool
	// NeedsReverse marks workloads whose specification reads in-edges
	// (the N(v) = out ∪ in neighborhood), which directed graphs only
	// have when built with reverse adjacency.
	NeedsReverse bool
	// Reference runs the sequential reference implementation — the
	// Output Validator's gold standard. Its output depends only on g and
	// p, so one call per (graph, params) serves every platform.
	Reference func(g *graph.Graph, p algo.Params) any
	// Check compares a platform output against want, the output
	// Reference returned for the same g and p, under the workload's
	// policy. It never computes the reference and never modifies want,
	// so callers may share one want across platforms. A wrong-typed
	// output is an invalid result, not a panic. Params must already
	// carry defaults.
	Check func(g *graph.Graph, p algo.Params, output, want any) validation.Result
}

// Name returns the canonical workload name (the Kind string).
func (s Spec) Name() string { return string(s.Kind) }

// Supports reports whether g satisfies the workload's hard graph
// capability requirements (a nil error means it runs; soft requirements
// like weights degrade to unit weights instead of failing).
func (s Spec) Supports(g *graph.Graph) error {
	if s.NeedsReverse && g.Directed() && !g.HasReverse() {
		return fmt.Errorf("workload %s needs reverse adjacency on directed graphs (build with WithReverse)", s.Kind)
	}
	return nil
}

// registry state. Registration happens in package init functions
// (builtin.go) and, for external workloads, from user init code; reads
// dominate after startup, so a plain mutex is fine.
var (
	mu      sync.RWMutex
	ordered []Spec                   // registration order = report order
	byKind  = map[algo.Kind]int{}    // kind -> index in ordered
	byName  = map[string]algo.Kind{} // lowercased name/alias -> kind
)

// Register adds a workload to the registry. It panics on a duplicate
// kind or alias, or on a spec missing its Reference or Check
// function — these are programming errors caught at init.
func Register(s Spec) {
	if s.Kind == "" || s.Reference == nil || s.Check == nil {
		panic("workload: Register needs Kind, Reference, and Check")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := byKind[s.Kind]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %s", s.Kind))
	}
	for _, name := range append([]string{string(s.Kind)}, s.Aliases...) {
		key := strings.ToLower(name)
		if prev, dup := byName[key]; dup {
			panic(fmt.Sprintf("workload: name %q already registered by %s", name, prev))
		}
		byName[key] = s.Kind
	}
	byKind[s.Kind] = len(ordered)
	ordered = append(ordered, s)
}

// All returns every registered workload in registration order (the
// canonical report row order).
func All() []Spec {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Spec, len(ordered))
	copy(out, ordered)
	return out
}

// Kinds returns the registered algorithm kinds in registration order.
func Kinds() []algo.Kind {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]algo.Kind, len(ordered))
	for i, s := range ordered {
		out[i] = s.Kind
	}
	return out
}

// Lookup returns the spec registered for kind.
func Lookup(kind algo.Kind) (Spec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	i, okL := byKind[kind]
	if !okL {
		return Spec{}, false
	}
	return ordered[i], true
}

// Parse resolves a workload name or alias (any case) to its spec. The
// error lists the known names, so a typo in -algorithms is
// self-explaining.
func Parse(name string) (Spec, error) {
	mu.RLock()
	defer mu.RUnlock()
	kind, okN := byName[strings.ToLower(strings.TrimSpace(name))]
	if !okN {
		known := make([]string, 0, len(byName))
		for n := range byName {
			known = append(known, n)
		}
		sort.Strings(known)
		return Spec{}, fmt.Errorf("workload: unknown workload %q (known: %s)", name, strings.Join(known, ", "))
	}
	return ordered[byKind[kind]], nil
}

// Validate checks a platform output for kind against a freshly computed
// reference output. A caller checking several outputs on one graph
// computes Spec.Reference once and calls Spec.Check for each instead.
func Validate(g *graph.Graph, kind algo.Kind, p algo.Params, output any) validation.Result {
	s, okL := Lookup(kind)
	if !okL {
		return validation.Fail("unknown workload %s", kind)
	}
	return s.Check(g, p, output, s.Reference(g, p))
}
