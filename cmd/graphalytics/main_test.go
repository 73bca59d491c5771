package main

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"graphalytics"
	"graphalytics/internal/algo"
	"graphalytics/internal/artifact"
	"graphalytics/internal/config"
	"graphalytics/internal/core"
	"graphalytics/internal/dist"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
	"graphalytics/internal/resultsdb"
	"graphalytics/internal/sched"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"a,b,c", 3},
		{" a , b ", 2},
		{"", 0},
		{",,", 0},
	}
	for _, c := range cases {
		if got := splitList(c.in); len(got) != c.want {
			t.Errorf("splitList(%q) = %v", c.in, got)
		}
	}
}

func TestParseAlgorithms(t *testing.T) {
	// Canonical names, case-insensitive, and LDBC aliases all resolve
	// through the workload registry.
	algs, err := parseAlgorithms([]string{"BFS", "conn", "pagerank", "wcc", "sssp"})
	if err != nil {
		t.Fatal(err)
	}
	want := []algo.Kind{algo.BFS, algo.CONN, algo.PR, algo.CONN, algo.SSSP}
	for i, k := range want {
		if algs[i] != k {
			t.Errorf("algs[%d] = %v, want %v", i, algs[i], k)
		}
	}
	if _, err := parseAlgorithms([]string{"nosuchworkload"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestBuildPlatforms(t *testing.T) {
	props := config.New()
	props.Set("platform.dataflow.memory", "123456")
	props.Set("platform.pregel.workers", "3")
	specs, plats, err := buildPlatforms([]string{"pregel", "mapreduce", "dataflow", "graphdb"}, props, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plats) != 4 || len(specs) != 4 {
		t.Fatalf("platforms = %d, specs = %d", len(plats), len(specs))
	}
	for i, want := range []string{"pregel", "mapreduce", "dataflow", "graphdb"} {
		if plats[i].Name() != want || specs[i].Name != want {
			t.Errorf("platform %d = %s (spec %s), want %s", i, plats[i].Name(), specs[i].Name, want)
		}
	}
	if specs[0].Workers != 3 || specs[1].Workers != 2 || specs[2].Memory != 123456 {
		t.Errorf("properties not applied: %+v", specs)
	}
	if _, _, err := buildPlatforms([]string{"spark"}, props, 0); err == nil {
		t.Error("unknown platform should fail")
	}
	props.Set("platform.pregel.memory", "notanumber")
	if _, _, err := buildPlatforms([]string{"pregel"}, props, 0); err == nil {
		t.Error("bad memory value should fail")
	}
	props.Set("platform.pregel.memory", "0")
	props.Set("platform.pregel.workers", "notanumber")
	if _, _, err := buildPlatforms([]string{"pregel"}, props, 0); err == nil {
		t.Error("bad workers value should fail")
	}
}

// A runner with fewer cores than the driver must build the engine the
// driver stamped: with -platform-workers 0 the specs pin the driver's
// GOMAXPROCS instead of leaving 0 for each process to resolve.
func TestPlatformSpecsPinWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	specs, plats, err := buildPlatforms([]string{"pregel", "mapreduce", "dataflow", "graphdb"}, config.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	for i, spec := range specs {
		p, err := dist.BuildPlatform(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := platform.StampConfigOf(p), platform.StampConfigOf(plats[i]); got != want {
			t.Errorf("%s: runner stamps %q, driver stamped %q", spec.Name, got, want)
		}
	}
}

func TestBuildGraphs(t *testing.T) {
	graphs, ingests, _, err := buildGraphs([]string{"social:500", "rmat:9", "amazon:512"}, 1, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 3 {
		t.Fatalf("graphs = %d", len(graphs))
	}
	if graphs[0].NumVertices() != 500 {
		t.Errorf("social vertices = %d", graphs[0].NumVertices())
	}
	if graphs[1].NumVertices() != 512 {
		t.Errorf("rmat vertices = %d", graphs[1].NumVertices())
	}
	// Every dataset's ingest phase is recorded, with its spec as source.
	if len(ingests) != 3 {
		t.Fatalf("ingests = %d", len(ingests))
	}
	for i, in := range ingests {
		if in.Graph != graphs[i].Name() {
			t.Errorf("ingest[%d].Graph = %q, want %q", i, in.Graph, graphs[i].Name())
		}
		if in.Edges != graphs[i].NumEdges() || in.Duration <= 0 || in.EVPS <= 0 {
			t.Errorf("ingest[%d] not populated: %+v", i, in)
		}
	}
	if ingests[1].Source != "rmat:9" {
		t.Errorf("ingest source = %q", ingests[1].Source)
	}
	for _, bad := range []string{"social:x", "rmat:", "unknown:1", "amazon:x"} {
		if _, _, _, err := buildGraphs([]string{bad}, 1, false, 0, nil); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

func TestBuildGraphsWeighted(t *testing.T) {
	graphs, _, _, err := buildGraphs([]string{"social:300", "rmat:8"}, 1, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range graphs {
		if !g.Weighted() {
			t.Errorf("%s: -weighted generation produced an unweighted graph", g.Name())
		}
	}
}

func TestBuildGraphsFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.e")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	graphs, _, _, err := buildGraphs([]string{"file:" + path}, 1, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if graphs[0].NumEdges() != 2 {
		t.Errorf("file graph edges = %d", graphs[0].NumEdges())
	}
	// A weighted .e file loads with weights reachable from the engines.
	wpath := filepath.Join(dir, "tinyw.e")
	if err := os.WriteFile(wpath, []byte("0 1 0.5\n1 2 2.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	graphs, _, _, err = buildGraphs([]string{"file:" + wpath}, 1, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !graphs[0].Weighted() {
		t.Error("weighted .e file loaded unweighted")
	}
}

func TestWriteReport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	rep := &report.Report{
		Started:  time.Now(),
		Finished: time.Now(),
		Results: []report.RunResult{{
			Platform: "pregel", Graph: "g", Algorithm: algo.BFS,
			Status: report.StatusSuccess, Runtime: time.Second,
		}},
		Ingests: []report.IngestStat{{
			Graph: "g", Source: "social:500", Vertices: 10, Edges: 20,
			Duration: time.Millisecond, EVPS: 20000,
		}},
	}
	if err := writeReport(dir, rep); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"report.txt", "results.csv", "report.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s empty", name)
		}
	}
	txt, _ := os.ReadFile(filepath.Join(dir, "report.txt"))
	if !strings.Contains(string(txt), "BFS") {
		t.Error("report.txt missing algorithm row")
	}
	// The ingest phase renders as its own table ahead of the matrix.
	if !strings.Contains(string(txt), "ingest (graph load)") {
		t.Error("report.txt missing the ingest table")
	}
	js, _ := os.ReadFile(filepath.Join(dir, "report.json"))
	if !strings.Contains(string(js), `"ingests"`) {
		t.Error("report.json missing the ingests field")
	}
}

// TestStatusEndpointMidCampaign runs a real (small) campaign with the
// /status listener attached and snapshots it from the Progress callback
// — i.e. while the scheduler is still resolving jobs — asserting the
// endpoint serves valid, populated JSON before the campaign finishes.
func TestStatusEndpointMidCampaign(t *testing.T) {
	graphs, ingests, _, err := buildGraphs([]string{"social:300"}, 1, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracker := sched.NewTracker()
	srv := httptest.NewServer(statusJSONHandler(tracker))
	defer srv.Close()

	var (
		mu       sync.Mutex
		sampled  bool
		sampleIn sched.Snapshot
	)
	bench := &core.Benchmark{
		Platforms:  []platform.Platform{graphalytics.NewPregel(graphalytics.PregelOptions{})},
		Graphs:     graphs,
		Algorithms: []algo.Kind{algo.BFS, algo.CONN, algo.STATS},
		Params:     algo.Params{Seed: 1},
		Timeout:    time.Minute,
		Ingests:    ingests,
		Tracker:    tracker,
		Progress: func(report.RunResult) {
			mu.Lock()
			defer mu.Unlock()
			if sampled {
				return
			}
			resp, err := http.Get(srv.URL + "/status")
			if err != nil {
				t.Errorf("GET /status: %v", err)
				return
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			if err := json.NewDecoder(resp.Body).Decode(&sampleIn); err != nil {
				t.Errorf("decoding /status: %v", err)
				return
			}
			sampled = true
		},
	}
	if _, err := bench.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if !sampled {
		t.Fatal("Progress never sampled /status")
	}
	s := sampleIn
	if s.Counts.Total == 0 {
		t.Fatalf("mid-campaign snapshot empty: %+v", s)
	}
	if s.Finished {
		t.Error("snapshot taken from Progress claims the campaign finished")
	}
	// Progress fires from inside a job, before the scheduler resolves it,
	// so that job still counts as running in the snapshot.
	if s.Counts.Running == 0 {
		t.Errorf("no running jobs in mid-campaign snapshot: %+v", s.Counts)
	}
	if sum := s.Counts.Pending + s.Counts.Ready + s.Counts.Running +
		s.Counts.Done + s.Counts.Failed + s.Counts.Skipped; sum != s.Counts.Total {
		t.Errorf("counts do not sum to total: %+v", s.Counts)
	}
	if s.Started.IsZero() || s.Elapsed <= 0 {
		t.Errorf("timing fields unpopulated: started=%v elapsed=%v", s.Started, s.Elapsed)
	}

	// After Run returns, the tracker reports completion.
	final := tracker.Snapshot()
	if !final.Finished {
		t.Error("tracker not finished after Run returned")
	}
	if got := final.Counts.Done + final.Counts.Failed + final.Counts.Skipped; got != final.Counts.Total {
		t.Errorf("final counts unresolved: %+v", final.Counts)
	}
}

// TestFetchTrendSection exercises the post-submit regression fetch and
// the report.txt append.
func TestFetchTrendSection(t *testing.T) {
	store := resultsdb.NewStore()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	mk := func(kteps float64) *report.Report {
		return &report.Report{
			Started: time.Now(), Finished: time.Now(),
			Results: []report.RunResult{{
				Platform: "pregel", Graph: "g", Algorithm: algo.BFS,
				Status: report.StatusSuccess, Runtime: time.Second, KTEPS: kteps,
			}},
		}
	}
	// Quiet history → "none flagged" line.
	for _, v := range []float64{1000, 1010} {
		if _, err := submitReport(srv.URL, "t", mk(v)); err != nil {
			t.Fatal(err)
		}
	}
	trend, err := fetchTrendSection(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trend, "none flagged") {
		t.Fatalf("quiet trend = %q", trend)
	}
	// A halved submission → rendered regression table naming the platform.
	for _, v := range []float64{990, 400} {
		if _, err := submitReport(srv.URL, "t", mk(v)); err != nil {
			t.Fatal(err)
		}
	}
	trend, err = fetchTrendSection(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trend, "pregel") || !strings.Contains(trend, "regressions") {
		t.Fatalf("regressed trend = %q", trend)
	}

	// The section lands at the end of report.txt.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), []byte("base\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendReportSection(dir, trend); err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(txt), "base\n") || !strings.Contains(string(txt), "pregel") {
		t.Fatalf("report.txt = %q", txt)
	}
}

func TestSubmitReport(t *testing.T) {
	store := resultsdb.NewStore()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	rep := &report.Report{
		Started:  time.Now(),
		Finished: time.Now(),
		Results: []report.RunResult{{
			Platform: "pregel", Graph: "g", Algorithm: algo.BFS,
			Status: report.StatusSuccess, Runtime: time.Second,
		}},
	}
	id, err := submitReport(srv.URL+"/", "tester", rep)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("id = %d", id)
	}
	sub, ok := store.Get(id)
	if !ok || sub.Submitter != "tester" {
		t.Fatalf("stored submission: %+v %v", sub, ok)
	}
	// Rejected submission surfaces the HTTP status.
	if _, err := submitReport(srv.URL, "", &report.Report{}); err == nil {
		t.Error("empty report should fail")
	}
}

func TestBuildGraphsArtifactCache(t *testing.T) {
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache.Verify = true
	specs := []string{"social:300", "rmat:8"}

	graphs1, ingests1, stamps1, err := buildGraphs(specs, 1, false, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, ing := range ingests1 {
		if strings.HasPrefix(ing.Source, "cache:") {
			t.Errorf("cold cache reported a hit: %s", ing.Source)
		}
	}
	for _, g := range graphs1 {
		if fp, ok := stamps1[g.Name()]; !ok || fp.IsZero() {
			t.Errorf("%s: no dataset fingerprint", g.Name())
		}
	}

	graphs2, ingests2, stamps2, err := buildGraphs(specs, 1, false, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, ing := range ingests2 {
		if !strings.HasPrefix(ing.Source, "cache:") {
			t.Errorf("warm cache regenerated %s (source %s)", ing.Graph, ing.Source)
		}
	}
	for i := range graphs1 {
		if graphs1[i].Name() != graphs2[i].Name() ||
			graphs1[i].NumVertices() != graphs2[i].NumVertices() ||
			graphs1[i].NumEdges() != graphs2[i].NumEdges() {
			t.Errorf("cached graph %s differs from generated", graphs1[i].Name())
		}
		if stamps1[graphs1[i].Name()] != stamps2[graphs2[i].Name()] {
			t.Errorf("%s: fingerprint changed across runs", graphs1[i].Name())
		}
	}

	// A different seed must miss: the fingerprint names the content.
	_, ingests3, _, err := buildGraphs(specs, 2, false, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, ing := range ingests3 {
		if strings.HasPrefix(ing.Source, "cache:") {
			t.Errorf("changed seed hit the cache: %s", ing.Source)
		}
	}
}

// A campaign opens exactly one stamped result store: -resume wins,
// -cache-dir supplies the default, neither means no store.
func TestStampStorePath(t *testing.T) {
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		resume string
		cache  *artifact.Cache
		want   string
	}{
		{"neither", "", nil, ""},
		{"resume", "run.jsonl", nil, "run.jsonl"},
		{"cache", "", cache, cache.StampStorePath()},
		{"resume-overrides-cache", "run.jsonl", cache, "run.jsonl"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := stampStorePath(tc.resume, tc.cache); got != tc.want {
				t.Errorf("stampStorePath(%q) = %q, want %q", tc.resume, got, tc.want)
			}
		})
	}
}

// Every cell that did not restore from the store counts as executed,
// whatever its status or other provenance.
func TestCellCounts(t *testing.T) {
	results := []report.RunResult{
		{Status: report.StatusSuccess, Provenance: report.ProvenanceUptodate},
		{Status: report.StatusSuccess, Provenance: report.ProvenanceUptodate},
		{Status: report.StatusSuccess},
		{Status: report.StatusSuccess, Provenance: report.ProvenanceETLCache},
		{Status: report.StatusOOM},
	}
	if got, want := cellCounts(results), "cells: 3 executed, 2 uptodate"; got != want {
		t.Errorf("cellCounts = %q, want %q", got, want)
	}
	if got, want := cellCounts(nil), "cells: 0 executed, 0 uptodate"; got != want {
		t.Errorf("cellCounts(nil) = %q, want %q", got, want)
	}
}

// Flags the command line sets beat their properties keys; properties
// fill the rest; a value the flag cannot parse fails naming the key.
func TestApplyProperties(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		props   string
		want    map[string]string // flag -> value after the merge
		wantErr string
	}{
		{
			name:  "set flag beats property",
			args:  []string{"-reps", "1", "-out", "cli"},
			props: "benchmark.run.reps = 3\nbenchmark.output.dir = props\n",
			want:  map[string]string{"reps": "1", "out": "cli"},
		},
		{
			name:  "property alone takes effect",
			props: "benchmark.run.reps = 3\nbenchmark.run.timeout = 2m\nbenchmark.run.validate = false\n",
			want:  map[string]string{"reps": "3", "timeout": "2m0s", "validate": "false", "warmup": "0"},
		},
		{
			name:  "output dir honoured without -out",
			props: "benchmark.output.dir = props\n",
			want:  map[string]string{"out": "props"},
		},
		{
			name: "no properties keeps defaults",
			want: map[string]string{"reps": "1", "out": "graphalytics-report", "validate": "true"},
		},
		{
			name:    "malformed int",
			props:   "benchmark.run.warmup = two\n",
			wantErr: "benchmark.run.warmup",
		},
		{
			name:    "malformed duration",
			props:   "benchmark.run.timeout = soon\n",
			wantErr: "benchmark.run.timeout",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("graphalytics", flag.ContinueOnError)
			fs.Int("reps", 1, "")
			fs.Int("warmup", 0, "")
			fs.Duration("timeout", 5*time.Minute, "")
			fs.Bool("validate", true, "")
			fs.String("out", "graphalytics-report", "")
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			props, err := config.Load(strings.NewReader(tc.props))
			if err != nil {
				t.Fatal(err)
			}
			err = applyProperties(fs, props)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range tc.want {
				if got := fs.Lookup(name).Value.String(); got != want {
					t.Errorf("-%s = %q, want %q", name, got, want)
				}
			}
		})
	}
}
