package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceEvent mirrors the Chrome trace_event fields the sink emits.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func parseTrace(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var events []traceEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	return events
}

func TestTracerEmitsCompleteEvents(t *testing.T) {
	var buf bytes.Buffer
	var tr Tracer
	tr.Start(&buf)

	s := tr.StartSpanT("sched", "job:load/pregel/g1", 3)
	s.SetAttr("attempt", 1)
	s.SetAttr("queue_wait_us", time.Millisecond)
	s.SetAttr("note", `quote " and \ back`)
	time.Sleep(time.Millisecond)
	s.End()
	tr.StartSpan("cell", "rep").End()
	if err := tr.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	events := parseTrace(t, buf.Bytes())
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	e := events[0]
	if e.Ph != "X" || e.Cat != "sched" || e.Name != "job:load/pregel/g1" || e.Tid != 3 {
		t.Fatalf("bad event: %+v", e)
	}
	if e.Dur < 900 { // slept 1ms = 1000us
		t.Fatalf("dur %v too short for a 1ms span", e.Dur)
	}
	if e.Args["attempt"] != float64(1) {
		t.Fatalf("args = %v", e.Args)
	}
	if e.Args["note"] != `quote " and \ back` {
		t.Fatalf("escaped attr round-trip failed: %q", e.Args["note"])
	}
}

func TestTracerDisabledIsNilSafe(t *testing.T) {
	var tr Tracer
	s := tr.StartSpan("x", "y")
	if s != nil {
		t.Fatal("disabled tracer must return nil spans")
	}
	s.SetAttr("k", "v") // must not panic
	s.End()

	// The process-wide default is disabled in tests too.
	sp := StartSpan("a", "b")
	if sp != nil {
		t.Fatal("default tracer should be disabled")
	}
	sp.End()
}

func TestTracerStopIdempotentAndOrdered(t *testing.T) {
	var buf bytes.Buffer
	var tr Tracer
	tr.Start(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				tr.StartSpanT("load", "chunk", i).End()
			}
		}(i)
	}
	wg.Wait()
	if err := tr.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := tr.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if tr.StartSpan("late", "late") != nil {
		t.Fatal("span after Stop should be nil")
	}

	events := parseTrace(t, buf.Bytes())
	if len(events) != 160 {
		t.Fatalf("got %d events, want 160", len(events))
	}
	// Events are written at span End under one mutex, so file order is
	// completion order: end timestamps (ts+dur) never decrease.
	last := -1.0
	for _, e := range events {
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("negative ts/dur: %+v", e)
		}
		if end := e.Ts + e.Dur; end < last-0.002 { // float /1e3 rounding slack
			t.Fatalf("end time went backwards: %v after %v", end, last)
		} else if end > last {
			last = end
		}
	}
}

func TestTracerRestart(t *testing.T) {
	var first, second bytes.Buffer
	var tr Tracer
	tr.Start(&first)
	tr.StartSpan("a", "one").End()
	if err := tr.Stop(); err != nil {
		t.Fatal(err)
	}
	tr.Start(&second)
	tr.StartSpan("a", "two").End()
	if err := tr.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := parseTrace(t, first.Bytes()); len(got) != 1 || got[0].Name != "one" {
		t.Fatalf("first trace: %+v", got)
	}
	if got := parseTrace(t, second.Bytes()); len(got) != 1 || got[0].Name != "two" {
		t.Fatalf("second trace: %+v", got)
	}
}

func TestJSONStringEscaping(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", `"plain"`},
		{`a"b`, `"a\"b"`},
		{`a\b`, `"a\\b"`},
		{"a\nb", `"a\u000ab"`},
	} {
		if got := jsonString(tc.in); got != tc.want {
			t.Errorf("jsonString(%q) = %s, want %s", tc.in, got, tc.want)
		}
		var back string
		if err := json.Unmarshal([]byte(jsonString(tc.in)), &back); err != nil || back != tc.in {
			t.Errorf("round trip %q failed: %v %q", tc.in, err, back)
		}
	}
}

func TestTraceContainsNoTrailingComma(t *testing.T) {
	var buf bytes.Buffer
	var tr Tracer
	tr.Start(&buf)
	tr.StartSpan("a", "b").End()
	tr.Stop()
	s := buf.String()
	if strings.Contains(s, ",\n]") {
		t.Fatalf("trailing comma before ]:\n%s", s)
	}
}

// A span opened while tracing but ended after Stop is dropped: the
// closed array stays valid JSON.
func TestTracerDropsSpanEndedAfterStop(t *testing.T) {
	var buf bytes.Buffer
	var tr Tracer
	tr.Start(&buf)
	tr.StartSpan("a", "kept").End()
	late := tr.StartSpan("a", "late")
	if err := tr.Stop(); err != nil {
		t.Fatal(err)
	}
	late.End()
	if got := parseTrace(t, buf.Bytes()); len(got) != 1 || got[0].Name != "kept" {
		t.Fatalf("trace after late End: %+v", got)
	}
}

// failingWriter accepts the first n writes, then fails every write.
type failingWriter struct {
	n      int
	writes int
}

var errSinkFull = errors.New("sink full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes > w.n {
		return 0, errSinkFull
	}
	return len(p), nil
}

// The first write error sticks: Stop reports it and no later event or
// array terminator is attempted.
func TestTracerWriteErrorIsSticky(t *testing.T) {
	w := &failingWriter{n: 2} // "[\n" and one event
	var tr Tracer
	tr.Start(w)
	tr.StartSpan("a", "ok").End()
	tr.StartSpan("a", "fails").End()
	tr.StartSpan("a", "skipped").End()
	if err := tr.Stop(); !errors.Is(err, errSinkFull) {
		t.Fatalf("Stop = %v, want the sink's write error", err)
	}
	if w.writes != 3 {
		t.Fatalf("sink saw %d writes, want 3 (writes after the error must stop)", w.writes)
	}
}
