// Package telemetry is the observability spine of the harness: a
// process-wide tracer plus a metrics registry that every layer reports
// into. The tracer records cheap monotonic-clock spans and emits them
// as Chrome trace_event JSON (loadable in chrome://tracing or
// Perfetto), one complete "X" event per span; the registry holds
// counters, gauges, and histograms with a snapshot API and a Prometheus
// text exposition. Both are nil-safe and disabled by default: with no
// sink installed a span is a single atomic load, so instrumented hot
// paths cost nothing in normal runs.
//
// The LDBC Graphalytics specification calls this layer fine-grained
// performance analysis (its Granula integration); "SoK: The Faults in
// our Graph Benchmarks" faults suites that report one mean runtime with
// no phase breakdown or resource envelope. Spans give the phase
// breakdown (scheduler queue-wait vs execute, per-cell load / warmup /
// timed-rep / validate, ingest pipeline stages, engine supersteps);
// the metrics registry gives the envelope.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer writes spans as Chrome trace_event JSON. The zero Tracer is
// valid and disabled; Start installs a sink and enables it.
type Tracer struct {
	enabled atomic.Bool

	mu     sync.Mutex
	w      io.Writer
	base   time.Time // monotonic zero of the trace
	wrote  bool      // whether any event line was written yet
	closed bool
	err    error // first write error (sticky; disables further writes)
}

// Start enables the tracer, writing Chrome trace events to w. Events
// are streamed as they complete; Stop finishes the JSON array. Starting
// an already-started tracer replaces the sink.
func (t *Tracer) Start(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.w = w
	t.base = time.Now()
	t.wrote = false
	t.closed = false
	t.err = nil
	if _, err := io.WriteString(w, "[\n"); err != nil {
		t.err = err
		return
	}
	t.enabled.Store(true)
}

// Stop disables the tracer and terminates the JSON array. It returns
// the first write error encountered, if any. Stop is idempotent.
func (t *Tracer) Stop() error {
	t.enabled.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.w == nil {
		return t.err
	}
	t.closed = true
	if t.err == nil {
		if _, err := io.WriteString(t.w, "\n]\n"); err != nil {
			t.err = err
		}
	}
	return t.err
}

// Enabled reports whether spans are currently being recorded.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Span is one traced operation. A nil *Span (tracer disabled) is valid:
// every method is a no-op, so call sites never branch on tracing.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	tid   int
	start time.Time
	attrs []attr
}

type attr struct {
	key string
	val any
}

// StartSpan opens a span in category cat. The span lanes under tid 0;
// use StartSpanT to place it in a specific lane (trace viewers render
// one row per tid).
func (t *Tracer) StartSpan(cat, name string) *Span { return t.StartSpanT(cat, name, 0) }

// StartSpanT opens a span in category cat on lane tid.
func (t *Tracer) StartSpanT(cat, name string, tid int) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &Span{t: t, cat: cat, name: name, tid: tid, start: time.Now()}
}

// SetAttr attaches a key/value argument to the span (rendered in the
// viewer's args pane). Values must be JSON-encodable primitives.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attr{key: key, val: val})
}

// End completes the span and emits it as one complete ("X") trace
// event. Spans that started while the tracer was enabled still emit
// after Stop began only if the sink is open; late Ends after Stop are
// dropped.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.emit(s)
}

// emit writes one complete event. ts/dur are microseconds, the
// trace_event clock domain. The end time is read under the lock, so the
// file order of events is their end order.
func (t *Tracer) emit(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := time.Now()
	if t.closed || t.err != nil || t.w == nil {
		return
	}
	ts := s.start.Sub(t.base)
	if ts < 0 {
		ts = 0
	}
	dur := end.Sub(s.start)
	if dur < 0 {
		dur = 0
	}
	line := fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f`,
		jsonString(s.name), jsonString(s.cat), s.tid,
		float64(ts.Nanoseconds())/1e3, float64(dur.Nanoseconds())/1e3)
	if len(s.attrs) > 0 {
		line += `,"args":{`
		for i, a := range s.attrs {
			if i > 0 {
				line += ","
			}
			line += jsonString(a.key) + ":" + jsonValue(a.val)
		}
		line += "}"
	}
	line += "}"
	prefix := ""
	if t.wrote {
		prefix = ",\n"
	}
	if _, err := io.WriteString(t.w, prefix+line); err != nil {
		t.err = err
		return
	}
	t.wrote = true
}

// jsonString encodes s as a JSON string without allocation-heavy
// marshalling for the common no-escape case.
func jsonString(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' || c == '\\' || c < 0x20 {
			return jsonStringSlow(s)
		}
	}
	return `"` + s + `"`
}

func jsonStringSlow(s string) string {
	out := make([]byte, 0, len(s)+8)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			out = append(out, '\\', '"')
		case c == '\\':
			out = append(out, '\\', '\\')
		case c < 0x20:
			out = append(out, fmt.Sprintf(`\u%04x`, c)...)
		default:
			out = append(out, c)
		}
	}
	return string(append(out, '"'))
}

func jsonValue(v any) string {
	switch x := v.(type) {
	case string:
		return jsonString(x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case int:
		return fmt.Sprintf("%d", x)
	case int64:
		return fmt.Sprintf("%d", x)
	case uint64:
		return fmt.Sprintf("%d", x)
	case float64:
		return fmt.Sprintf("%g", x)
	case time.Duration:
		return fmt.Sprintf("%d", x.Microseconds())
	default:
		return jsonString(fmt.Sprint(x))
	}
}

// ---------------------------------------------------------------------
// Process-wide defaults.

// defaultTracer is the process-wide tracer every instrumented layer
// reports into. Disabled until StartTrace installs a sink.
var defaultTracer Tracer

// StartTrace enables the process-wide tracer on w.
func StartTrace(w io.Writer) { defaultTracer.Start(w) }

// StopTrace disables the process-wide tracer and finishes the JSON
// array, returning the first sink write error.
func StopTrace() error { return defaultTracer.Stop() }

// StartSpan opens a span on the process-wide tracer (nil when tracing
// is disabled — all Span methods are nil-safe).
func StartSpan(cat, name string) *Span { return defaultTracer.StartSpan(cat, name) }

// StartSpanT opens a span on the process-wide tracer in lane tid.
func StartSpanT(cat, name string, tid int) *Span { return defaultTracer.StartSpanT(cat, name, tid) }

// sortedKeys returns m's keys sorted (shared by the metrics renderers).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
