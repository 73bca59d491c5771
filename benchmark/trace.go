package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Root kinds. Layer time is normalised per root of its kind, so a metric
// reads "seconds per set-up" or "seconds per round" whatever the number of
// rounds a run had time for.
const (
	kindSetup  = "setup"  // one set-up of the workload
	kindUser   = "user"   // one round through the user path (no child spans)
	kindReplay = "replay" // one round with the benchmark calling each layer itself
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was made. Parent is the index+1 of the enclosing span (0 = root);
// spans of one cell or request share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	kind   string
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a handle on an open span; the zero value is disabled.
type spanRef struct {
	t    *tracer
	idx  int
	kind string
}

// replaying reports whether s belongs to a replay round, in which the
// benchmark calls the layers itself.
func (s spanRef) replaying() bool { return s.kind == kindReplay }

func (t *tracer) open(parent int, op int, name, kind string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, kind: kind,
		Start: int64(time.Since(t.t0)),
	})
	return spanRef{t: t, idx: len(t.spans) - 1, kind: kind}
}

// root opens the span of one set-up or round.
func (t *tracer) root(kind string) spanRef { return t.open(0, 0, kind, kind) }

// child opens a span under s for operation op. Under a disabled span, and
// under a user-path root (which the benchmark must not look inside), it is
// disabled too.
func (s spanRef) child(name string, op int) spanRef {
	if s.t == nil || s.kind == kindUser {
		return spanRef{}
	}
	return s.t.open(s.idx+1, op, name, s.kind)
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	s.t.spans[s.idx].End = now
	s.t.mu.Unlock()
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	self  float64 // seconds of self time per root of the spans' kind
	calls int     // number of spans
	total float64 // seconds of self time over the whole run
}

// summary is the tracer's account of a finished run.
type summary struct {
	layers   map[string]layerTime
	roots    map[string][]float64 // root durations in seconds, per kind
	coverage float64              // share of replay-root time inside child spans
}

// summarize computes span self times: a span's duration minus the part of it
// that its children cover (children of concurrent clients may overlap, so
// the covered part is the union of their intervals).
func (t *tracer) summarize() summary {
	sum := summary{layers: map[string]layerTime{}, roots: map[string][]float64{}}
	if t == nil {
		return sum
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int, len(t.spans))
	nRoots := map[string]float64{}
	for i, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent-1] = append(children[sp.Parent-1], i)
		} else {
			nRoots[sp.kind]++
		}
	}
	var replayDur, replayCovered float64
	for i, sp := range t.spans {
		covered := unionLength(t.spans, children[i])
		if sp.Parent == 0 {
			sum.roots[sp.kind] = append(sum.roots[sp.kind], float64(sp.End-sp.Start)/1e9)
			if sp.kind == kindReplay {
				replayDur += float64(sp.End-sp.Start) / 1e9
				replayCovered += float64(covered) / 1e9
			}
			continue
		}
		self := float64(sp.End-sp.Start-covered) / 1e9
		lt := sum.layers[sp.Name]
		lt.total += self
		lt.self += self / nRoots[sp.kind]
		lt.calls++
		sum.layers[sp.Name] = lt
	}
	if replayDur > 0 {
		sum.coverage = replayCovered / replayDur
	}
	return sum
}

// unionLength is the total length of the union of the given spans'
// intervals, in nanoseconds.
func unionLength(spans []span, idx []int) int64 {
	if len(idx) == 0 {
		return 0
	}
	sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	var total int64
	lo, hi := spans[idx[0]].Start, spans[idx[0]].End
	for _, i := range idx[1:] {
		sp := spans[i]
		if sp.Start > hi {
			total += hi - lo
			lo, hi = sp.Start, sp.End
		} else if sp.End > hi {
			hi = sp.End
		}
	}
	return total + hi - lo
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
