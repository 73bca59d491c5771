package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json. Unknown keys fail the decode: the file
// has exactly these.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestManifest holds BENCHMARK.json to the contract it is read under, and to
// the lists the program prints from.
func TestManifest(t *testing.T) {
	m := readManifest(t)

	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(m.Command))
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q is too long or leaves the checkout", c)
		}
		if strings.Contains(c, "/") && !strings.HasPrefix(c, "benchmark/") {
			t.Errorf("command string %q names a file outside paths", c)
		}
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) {
			t.Errorf("path %q has characters outside the contract's", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	// 4 + 22 per workload runs and two builds have to fit in 3420 s; a run
	// is its measured seconds plus set-ups and start-up, allowed 6 s here.
	if total := (4+22*len(m.Workloads))*(m.RunSeconds+6) + 2*120; total > 3420 {
		t.Errorf("the driver's runs would take about %d s, over 3420 s", total)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(m.Workloads))
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(m.EndToEnd))
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, the program %d", len(m.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, e := range m.EndToEnd {
		name("end-to-end", e.Name)
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s] in the manifest, %s [%s] in the program", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q does not match %s", e.Name, e.Unit, unitRE)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better = %q", e.Name, e.Better)
		}
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", e.Name)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s, lower is better")
	}

	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(m.PerLayer))
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayer))
	}
	for i, l := range m.PerLayer {
		name("per-layer", l.Name)
		if l.Name != perLayer[i].name || l.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in the manifest, %s [%s] in the program", i, l.Name, l.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("%s: unit %q does not match %s", l.Name, l.Unit, unitRE)
		}
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("%s: better = %q", l.Name, l.Better)
		}
	}
}

// TestWorkloadsPrintManifestMetrics runs every workload at the tiny size,
// untraced and traced, and checks that no operation fails and that the
// metrics printed are the manifest's for that kind of run, no more and no
// fewer.
func TestWorkloadsPrintManifestMetrics(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			mode := map[bool]string{false: "untraced", true: "traced"}[traced]
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				out := t.TempDir()
				var log bytes.Buffer
				res, err := runWorkload(w, tinySizes, 7, 0.05, traced, out, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := map[string]string{}
				if traced {
					for _, l := range m.PerLayer {
						want[l.Name] = l.Unit
					}
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				} else {
					for _, e := range m.EndToEnd {
						want[e.Name] = e.Unit
					}
				}
				for n, v := range res.Metrics {
					if want[n] != v.Unit {
						t.Errorf("printed %s [%s], the manifest has unit %q for it", n, v.Unit, want[n])
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v", n, v.Value)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", n, v.Value)
					}
				}
				for n := range want {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("manifest metric %s was not printed", n)
					}
				}
				if traced && res.Metrics["trace.coverage_frac"].Value < 0.9 && !strings.HasPrefix(w.name, "results_") {
					t.Errorf("spans cover %.3f of the replay rounds, want at least 0.9", res.Metrics["trace.coverage_frac"].Value)
				}
			})
		}
	}
}

// TestResultLine checks the shape of the line the driver parses.
func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	printResult(&out, result{Correct: true, Attempted: 3, Metrics: map[string]metricValue{"setup_s": {0.5, "s"}}})
	var got map[string]json.RawMessage
	if err := json.Unmarshal(lastLine(out.Bytes()), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, lastLine(out.Bytes()))
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want 4", len(got))
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Errorf("exit code %d, output %q", code, out.String())
	}
}

// TestQuartiles compares with Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{3, 1, 7, 8, 9}, [3]float64{2, 7, 8.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestSelfTime: a span's self time excludes what its children cover, and
// overlapping children (two clients at once) are not subtracted twice.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: kindReplay, kind: kindReplay, Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Name: "a", kind: kindReplay, Start: 10e9, End: 50e9},
		{ID: 3, Parent: 1, Name: "a", kind: kindReplay, Start: 30e9, End: 70e9},
		{ID: 4, Parent: 2, Name: "b", kind: kindReplay, Start: 20e9, End: 25e9},
	}
	sum := tr.summarize()
	if got := sum.layers["a"]; got.total != 75 || got.calls != 2 {
		t.Errorf("layer a: %+v, want 75 s of self time in 2 calls", got)
	}
	if got := sum.layers["b"].self; got != 5 {
		t.Errorf("layer b: %v s per round, want 5", got)
	}
	if sum.coverage != 0.6 {
		t.Errorf("coverage %v, want 0.6", sum.coverage)
	}
}
