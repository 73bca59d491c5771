package resultsdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/report"
)

func sampleReport(platform string, runtimeMS float64) *report.Report {
	return &report.Report{
		Started:  time.Now().Add(-time.Minute),
		Finished: time.Now(),
		Results: []report.RunResult{
			{
				Platform: platform, Graph: "snb-1000", Algorithm: algo.CONN,
				Status: report.StatusSuccess, Runtime: time.Duration(runtimeMS * 1e6),
				KTEPS: 1000,
			},
			{
				Platform: platform, Graph: "snb-1000", Algorithm: algo.BFS,
				Status: report.StatusOOM,
			},
		},
	}
}

func TestSubmitAndGet(t *testing.T) {
	s := NewStore()
	id, err := s.Submit(Submission{Submitter: "tudelft", Environment: "10-node cluster", Report: sampleReport("pregel", 50)})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first id = %d", id)
	}
	sub, ok := s.Get(id)
	if !ok || sub.Submitter != "tudelft" {
		t.Fatalf("Get: %v %v", sub, ok)
	}
	if sub.SubmittedAt.IsZero() {
		t.Error("SubmittedAt not stamped")
	}
	if _, ok := s.Get(99); ok {
		t.Error("Get(99) should miss")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := NewStore()
	cases := []Submission{
		{},
		{Submitter: "x"},
		{Submitter: "x", Report: &report.Report{}},
		{Report: sampleReport("pregel", 1)},
		{Submitter: "x", Report: &report.Report{Results: []report.RunResult{{}}}},
	}
	for i, sub := range cases {
		if _, err := s.Submit(sub); !errors.Is(err, ErrInvalidSubmission) {
			t.Errorf("case %d: err = %v, want ErrInvalidSubmission", i, err)
		}
	}
}

func TestListSummaries(t *testing.T) {
	s := NewStore()
	s.Submit(Submission{Submitter: "a", Report: sampleReport("pregel", 10)})
	s.Submit(Submission{Submitter: "b", Report: sampleReport("mapreduce", 500)})
	list := s.List()
	if len(list) != 2 {
		t.Fatalf("list = %d entries", len(list))
	}
	if list[0].ID != 2 || list[1].ID != 1 {
		t.Error("list must be newest first")
	}
	if list[0].Runs != 2 || len(list[0].Platforms) != 1 || list[0].Platforms[0] != "mapreduce" {
		t.Errorf("summary = %+v", list[0])
	}
}

func TestResultsFilter(t *testing.T) {
	s := NewStore()
	s.Submit(Submission{Submitter: "a", Report: sampleReport("pregel", 10)})
	s.Submit(Submission{Submitter: "b", Report: sampleReport("mapreduce", 500)})
	if rows := s.Results(Filter{}); len(rows) != 4 {
		t.Errorf("unfiltered rows = %d, want 4", len(rows))
	}
	if rows := s.Results(Filter{Platform: "pregel"}); len(rows) != 2 {
		t.Errorf("pregel rows = %d, want 2", len(rows))
	}
	if rows := s.Results(Filter{Algorithm: "CONN"}); len(rows) != 2 {
		t.Errorf("CONN rows = %d, want 2", len(rows))
	}
	if rows := s.Results(Filter{Graph: "nope"}); len(rows) != 0 {
		t.Errorf("nope rows = %d, want 0", len(rows))
	}
}

func TestCompareLeaderboard(t *testing.T) {
	s := NewStore()
	s.Submit(Submission{Submitter: "slow", Report: sampleReport("pregel", 100)})
	s.Submit(Submission{Submitter: "fast", Report: sampleReport("pregel", 20)})
	s.Submit(Submission{Submitter: "mr", Report: sampleReport("mapreduce", 900)})
	cmp := s.Compare("snb-1000", "CONN")
	if len(cmp.Best) != 2 {
		t.Fatalf("best = %v", cmp.Best)
	}
	if cmp.Best["pregel"].Submitter != "fast" || cmp.Best["pregel"].RuntimeMS != 20 {
		t.Errorf("pregel best = %+v", cmp.Best["pregel"])
	}
	// A later run as fast as the best one does not take the cell.
	s.Submit(Submission{Submitter: "tie", Report: sampleReport("pregel", 20)})
	if got := s.Compare("snb-1000", "CONN").Best["pregel"]; got.Submitter != "fast" || got.SubmissionID != 2 {
		t.Errorf("pregel best after a tie = %+v, want submission 2", got)
	}
	// Failed runs (the BFS OOM rows) never enter the leaderboard.
	if _, ok := s.Compare("snb-1000", "BFS").Best["pregel"]; ok {
		t.Error("OOM run must not win a leaderboard cell")
	}
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s1, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(Submission{Submitter: "a", Report: sampleReport("pregel", 10)})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := s2.Get(id)
	if !ok || sub.Submitter != "a" {
		t.Fatal("submission lost across reopen")
	}
	// IDs continue after reload.
	id2, err := s2.Submit(Submission{Submitter: "b", Report: sampleReport("graphdb", 5)})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id+1 {
		t.Errorf("id after reload = %d, want %d", id2, id+1)
	}
}

func TestOpenStoreCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := writeFile(path, "{not json\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil {
		t.Error("corrupt store should fail to open")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// record is one store line: submission id by submitter a.
func record(t *testing.T, id int64) string {
	t.Helper()
	data, err := json.Marshal(Submission{ID: id, Submitter: "a", Report: sampleReport("pregel", 10)})
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// The store file is one submission per line. A torn final line is a
// crash mid-Submit and is cut; anything else that is not the next
// submission is an error that leaves the file as it was.
func TestOpenStoreFileFormat(t *testing.T) {
	r1, r2, r3 := record(t, 1), record(t, 2), record(t, 3)
	var legacy bytes.Buffer
	if err := json.Indent(&legacy, []byte("["+strings.TrimSpace(r1)+","+strings.TrimSpace(r2)+"]"), "", " "); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		content string
		keep    int    // submissions loaded (when wantErr is empty)
		wantErr string // substring of the OpenStore error
	}{
		{name: "empty", content: "", keep: 0},
		{name: "torn tail", content: r1 + r2 + r3[:len(r3)/2], keep: 2},
		{name: "torn only line", content: r1[:10], keep: 0},
		{name: "id gap", content: r1 + r3, keep: 2},
		{name: "malformed line", content: r1 + "{not json\n" + r3, wantErr: "line 2"},
		{name: "malformed line before torn tail", content: r1 + "{not json\n" + r3[:5], wantErr: "line 2"},
		{name: "blank line", content: r1 + "\n" + r2, wantErr: "line 2"},
		{name: "repeated id", content: r1 + r2 + r2, wantErr: "line 3"},
		{name: "decreasing id", content: r2 + r1, wantErr: "line 2"},
		{name: "no report", content: `{"id":1,"submitter":"a"}` + "\n", wantErr: "line 1"},
		{name: "legacy array", content: legacy.String(), wantErr: "jq -c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "results.jsonl")
			if err := writeFile(path, tc.content); err != nil {
				t.Fatal(err)
			}
			s, err := OpenStore(path)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("OpenStore error = %v, want one containing %q", err, tc.wantErr)
				}
				if data, _ := os.ReadFile(path); string(data) != tc.content {
					t.Fatalf("a rejected store was modified:\n%q", data)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			list := s.List()
			if len(list) != tc.keep {
				t.Fatalf("loaded %d submissions, want %d", len(list), tc.keep)
			}
			var next int64 = 1
			if len(list) > 0 {
				next = list[0].ID + 1
			}
			id, err := s.Submit(Submission{Submitter: "b", Report: sampleReport("graphdb", 5)})
			if err != nil || id != next {
				t.Fatalf("Submit = %d, %v; want %d", id, err, next)
			}
			// The new record starts a fresh line and the store reopens whole.
			s2, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := s2.List(); len(got) != tc.keep+1 || got[0].ID != id || got[0].Submitter != "b" {
				t.Fatalf("reopened store: %+v", got)
			}
		})
	}
}

// ---------------------------------------------------------------------
// HTTP API tests.

func newServer(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	s := NewStore()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func TestHTTPSubmitListGet(t *testing.T) {
	_, srv := newServer(t)

	body, _ := json.Marshal(Submission{Submitter: "web", Environment: "laptop", Report: sampleReport("pregel", 42)})
	resp, err := http.Post(srv.URL+"/api/v1/submissions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	var created map[string]int64
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if created["id"] != 1 {
		t.Fatalf("created id = %d", created["id"])
	}

	resp, err = http.Get(srv.URL + "/api/v1/submissions")
	if err != nil {
		t.Fatal(err)
	}
	var list []Summary
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].Submitter != "web" {
		t.Fatalf("list = %+v", list)
	}

	resp, err = http.Get(srv.URL + "/api/v1/submissions/1")
	if err != nil {
		t.Fatal(err)
	}
	var sub Submission
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if sub.Environment != "laptop" {
		t.Fatalf("sub = %+v", sub)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := newServer(t)

	// Bad JSON.
	resp, _ := http.Post(srv.URL+"/api/v1/submissions", "application/json", bytes.NewReader([]byte("{")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Invalid submission.
	body, _ := json.Marshal(Submission{Submitter: ""})
	resp, _ = http.Post(srv.URL+"/api/v1/submissions", "application/json", bytes.NewReader(body))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("invalid submission status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Missing submission.
	resp, _ = http.Get(srv.URL + "/api/v1/submissions/42")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing submission status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad ID.
	resp, _ = http.Get(srv.URL + "/api/v1/submissions/zzz")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Wrong method.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/submissions", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Compare without parameters.
	resp, _ = http.Get(srv.URL + "/api/v1/compare")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("compare status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPResultsAndCompare(t *testing.T) {
	s, srv := newServer(t)
	s.Submit(Submission{Submitter: "a", Report: sampleReport("pregel", 10)})
	s.Submit(Submission{Submitter: "b", Report: sampleReport("mapreduce", 700)})

	resp, err := http.Get(srv.URL + "/api/v1/results?platform=pregel&algorithm=CONN")
	if err != nil {
		t.Fatal(err)
	}
	var rows []ResultRow
	json.NewDecoder(resp.Body).Decode(&rows)
	resp.Body.Close()
	if len(rows) != 1 || rows[0].Submitter != "a" {
		t.Fatalf("rows = %+v", rows)
	}

	resp, err = http.Get(srv.URL + "/api/v1/compare?graph=snb-1000&algorithm=CONN")
	if err != nil {
		t.Fatal(err)
	}
	var cmp Comparison
	json.NewDecoder(resp.Body).Decode(&cmp)
	resp.Body.Close()
	if len(cmp.Best) != 2 || cmp.Best["pregel"].RuntimeMS != 10 {
		t.Fatalf("compare = %+v", cmp)
	}

	// No matching row is an empty array, not null.
	resp, err = http.Get(srv.URL + "/api/v1/results?graph=nope")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "[]\n" {
		t.Fatalf("no-match results: status %d, body %q", resp.StatusCode, body)
	}
}

// ---------------------------------------------------------------------
// Brute-force oracle: the reads as the store answered them before it
// kept views, each rescanning the submission log. The views must agree
// with it on any store.

func oracleGet(subs []*Submission, id int64) (*Submission, bool) {
	for _, sub := range subs {
		if sub.ID == id {
			return sub, true
		}
	}
	return nil, false
}

func oracleList(subs []*Submission) []Summary {
	out := make([]Summary, 0, len(subs))
	for _, sub := range subs {
		sm := Summary{
			ID: sub.ID, Submitter: sub.Submitter, Environment: sub.Environment,
			SubmittedAt: sub.SubmittedAt, Runs: len(sub.Report.Results),
		}
		seenP, seenG := map[string]bool{}, map[string]bool{}
		for _, r := range sub.Report.Results {
			if !seenP[r.Platform] {
				seenP[r.Platform] = true
				sm.Platforms = append(sm.Platforms, r.Platform)
			}
			if !seenG[r.Graph] {
				seenG[r.Graph] = true
				sm.Graphs = append(sm.Graphs, r.Graph)
			}
		}
		sort.Strings(sm.Platforms)
		sort.Strings(sm.Graphs)
		out = append(out, sm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

func oracleResults(subs []*Submission, f Filter) []ResultRow {
	var out []ResultRow
	for _, sub := range subs {
		for _, r := range sub.Report.Results {
			if f.Platform != "" && r.Platform != f.Platform {
				continue
			}
			if f.Graph != "" && r.Graph != f.Graph {
				continue
			}
			if f.Algorithm != "" && string(r.Algorithm) != f.Algorithm {
				continue
			}
			out = append(out, ResultRow{SubmissionID: sub.ID, Submitter: sub.Submitter, Result: r})
		}
	}
	return out
}

func oracleCompare(subs []*Submission, graphName, algorithm string) Comparison {
	cmp := Comparison{Graph: graphName, Algorithm: algorithm, Best: map[string]BestCell{}}
	for _, row := range oracleResults(subs, Filter{Graph: graphName, Algorithm: algorithm}) {
		if row.Result.Status != report.StatusSuccess {
			continue
		}
		ms := float64(row.Result.Runtime) / 1e6
		cur, ok := cmp.Best[row.Result.Platform]
		if !ok || ms < cur.RuntimeMS {
			cmp.Best[row.Result.Platform] = BestCell{
				RuntimeMS:    ms,
				KTEPS:        row.Result.KTEPS,
				SubmissionID: row.SubmissionID,
				Submitter:    row.Submitter,
			}
		}
	}
	return cmp
}

func oracleSeries(subs []*Submission) map[seriesKey][]MetricPoint {
	out := map[seriesKey][]MetricPoint{}
	for _, sub := range subs {
		best := map[seriesKey]float64{}
		for _, r := range sub.Report.Results {
			if r.Status != report.StatusSuccess || r.KTEPS <= 0 {
				continue
			}
			k := seriesKey{r.Platform, r.Graph, string(r.Algorithm), "kteps"}
			if r.KTEPS > best[k] {
				best[k] = r.KTEPS
			}
		}
		for _, in := range sub.Report.Ingests {
			if in.EVPS <= 0 {
				continue
			}
			k := seriesKey{"ingest", in.Graph, "", "evps"}
			if in.EVPS > best[k] {
				best[k] = in.EVPS
			}
		}
		for k, v := range best {
			out[k] = append(out[k], MetricPoint{SubmissionID: sub.ID, Value: v})
		}
	}
	return out
}

func oracleRegressions(subs []*Submission, opts RegressionOptions) ([]report.Regression, int) {
	opts = opts.withDefaults()
	all := oracleSeries(subs)
	var regs []report.Regression
	for k, pts := range all {
		if r, ok := judge(k, pts, opts); ok {
			regs = append(regs, r)
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Drop != regs[j].Drop {
			return regs[i].Drop > regs[j].Drop
		}
		a, b := regs[i], regs[j]
		return a.Platform+"|"+a.Graph+"|"+a.Algorithm < b.Platform+"|"+b.Graph+"|"+b.Algorithm
	})
	return regs, len(all)
}

var (
	propPlatforms = []string{"pregel", "mapreduce", "graphdb"}
	propGraphs    = []string{"snb-1000", "rmat-10"}
	propAlgs      = []algo.Kind{algo.BFS, algo.CONN, algo.PR}
)

// randomSubmission draws submission k of a property store. Runtimes
// take three values, so equal runtimes on one cell are common; one run
// in five times out (with a kTEPS that must not count); graphdb is in
// every third report only; some cells run twice; about half the
// reports carry ingest statistics.
func randomSubmission(rng *rand.Rand, k int) Submission {
	var results []report.RunResult
	for _, p := range propPlatforms {
		if p == "graphdb" && k%3 != 0 {
			continue
		}
		for _, g := range propGraphs {
			for _, a := range propAlgs {
				for range 1 + rng.IntN(2) {
					r := report.RunResult{
						Platform: p, Graph: g, Algorithm: a, Status: report.StatusSuccess,
						Runtime: time.Duration(10*(1+rng.IntN(3))) * time.Millisecond,
						KTEPS:   float64(100 * rng.IntN(6)),
					}
					if rng.IntN(5) == 0 {
						r.Status = report.StatusTimeout
					}
					results = append(results, r)
				}
			}
		}
	}
	rep := &report.Report{Results: results}
	if rng.IntN(2) == 0 {
		for _, g := range propGraphs {
			rep.Ingests = append(rep.Ingests, report.IngestStat{Graph: g, Edges: 100, EVPS: float64(1e6 * rng.IntN(4))})
		}
	}
	return Submission{
		Submitter:   fmt.Sprintf("user-%d", rng.IntN(3)),
		Environment: "env",
		SubmittedAt: time.Date(2024, 1, 1, 0, 0, k, 0, time.UTC),
		Report:      rep,
	}
}

// regressionOpts are the options the oracle comparison runs; window 1
// leaves the static threshold, so random series flag often.
var regressionOpts = []RegressionOptions{{}, {Threshold: 0.05}, {Window: 1}, {Threshold: 0.5, Window: 10}}

// jsonBody is what writeJSON sends for v.
func jsonBody(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkOracle asserts that every read of s, direct and over HTTP,
// equals the oracle's answer from the submission log. It returns the
// number of regressions flagged across regressionOpts.
func checkOracle(t *testing.T, s *Store) int {
	t.Helper()
	subs := s.subs
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	expect := func(path string, status int, body string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != status || string(got) != body {
			t.Fatalf("GET %s = %d %q,\nwant %d %q", path, resp.StatusCode, got, status, body)
		}
	}

	ids := []int64{0, -1, s.nextID}
	for _, sub := range subs {
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		got, ok := s.Get(id)
		want, wantOK := oracleGet(subs, id)
		if got != want || ok != wantOK {
			t.Fatalf("Get(%d) = %p %t, want %p %t", id, got, ok, want, wantOK)
		}
		path := "/api/v1/submissions/" + strconv.FormatInt(id, 10)
		if wantOK {
			expect(path, http.StatusOK, jsonBody(t, want))
		} else {
			expect(path, http.StatusNotFound, jsonBody(t, apiError{Error: "no such submission"}))
		}
	}

	wantList := oracleList(subs)
	if got := s.List(); !reflect.DeepEqual(got, wantList) {
		t.Fatalf("List = %+v\nwant %+v", got, wantList)
	}
	expect("/api/v1/submissions", http.StatusOK, jsonBody(t, wantList))

	for _, p := range append([]string{"", "nope"}, propPlatforms...) {
		for _, g := range append([]string{"", "nope"}, propGraphs...) {
			for _, a := range []string{"", "nope", "BFS", "CONN", "PR"} {
				f := Filter{Platform: p, Graph: g, Algorithm: a}
				want := oracleResults(subs, f)
				if got := s.Results(f); !reflect.DeepEqual(got, want) {
					t.Fatalf("Results(%+v): %d rows, want %d", f, len(got), len(want))
				}
				q := url.Values{}
				for k, v := range map[string]string{"platform": p, "graph": g, "algorithm": a} {
					if v != "" {
						q.Set(k, v)
					}
				}
				if want == nil {
					want = []ResultRow{}
				}
				expect("/api/v1/results?"+q.Encode(), http.StatusOK, jsonBody(t, want))
			}
		}
	}

	for _, g := range append([]string{"nope"}, propGraphs...) {
		for _, a := range []string{"nope", "BFS", "CONN", "PR"} {
			want := oracleCompare(subs, g, a)
			if got := s.Compare(g, a); !reflect.DeepEqual(got, want) {
				t.Fatalf("Compare(%s, %s) = %+v\nwant %+v", g, a, got, want)
			}
			expect("/api/v1/compare?"+url.Values{"graph": {g}, "algorithm": {a}}.Encode(), http.StatusOK, jsonBody(t, want))
		}
	}

	if want := oracleSeries(subs); !reflect.DeepEqual(s.history, want) {
		t.Fatalf("regression series = %v\nwant %v", s.history, want)
	}
	flagged := 0
	for _, o := range regressionOpts {
		want, wantN := oracleRegressions(subs, o)
		got, n := s.Regressions(o)
		if !reflect.DeepEqual(got, want) || n != wantN {
			t.Fatalf("Regressions(%+v) = %+v, %d\nwant %+v, %d", o, got, n, want, wantN)
		}
		flagged += len(want)
		q := url.Values{}
		if o.Threshold > 0 {
			q.Set("threshold", strconv.FormatFloat(o.Threshold, 'g', -1, 64))
		}
		if o.Window > 0 {
			q.Set("window", strconv.Itoa(o.Window))
		}
		if want == nil {
			want = []report.Regression{}
		}
		eff := o.withDefaults()
		expect("/api/v1/regressions?"+q.Encode(), http.StatusOK, jsonBody(t, regressionsResponse{
			Checked: wantN, Threshold: eff.Threshold, Window: eff.Window, Regressions: want,
		}))
	}
	return flagged
}

// The read views equal the scanning oracle on stores built by Submit,
// in memory and on file, by replaying that file, and by submitting
// more after the replay.
func TestViewsMatchOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 7))
			var subs []Submission
			for k := range 16 {
				subs = append(subs, randomSubmission(rng, k))
			}
			submit := func(s *Store, subs []Submission) {
				t.Helper()
				for _, sub := range subs {
					if _, err := s.Submit(sub); err != nil {
						t.Fatal(err)
					}
				}
			}
			open := func(path string) *Store {
				t.Helper()
				s, err := OpenStore(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.log.Close() })
				return s
			}

			flagged := checkOracle(t, NewStore())
			mem := NewStore()
			submit(mem, subs)
			flagged += checkOracle(t, mem)

			path := filepath.Join(t.TempDir(), "results.jsonl")
			written := open(path)
			submit(written, subs[:10])
			flagged += checkOracle(t, written)
			written.log.Close()

			replayed := open(path)
			flagged += checkOracle(t, replayed)
			submit(replayed, subs[10:])
			flagged += checkOracle(t, replayed)
			replayed.log.Close()

			flagged += checkOracle(t, open(path))
			if flagged == 0 {
				t.Fatal("no regression flagged: the stores do not exercise judge")
			}
		})
	}
}

// Reads hand out copies: changing what List or Compare returned does
// not change the next answer.
func TestReadsReturnCopies(t *testing.T) {
	s := NewStore()
	s.Submit(Submission{Submitter: "a", Report: sampleReport("pregel", 10)})
	s.Submit(Submission{Submitter: "b", Report: sampleReport("mapreduce", 500)})

	list := s.List()
	list[0].Submitter = "x"
	list[1] = Summary{ID: 7}
	if got, want := s.List(), oracleList(s.subs); !reflect.DeepEqual(got, want) {
		t.Errorf("List after mutating an earlier answer = %+v, want %+v", got, want)
	}

	for _, g := range []string{"snb-1000", "nope"} {
		cmp := s.Compare(g, "CONN")
		cmp.Best["pregel"] = BestCell{Submitter: "x"}
		delete(cmp.Best, "mapreduce")
		if got, want := s.Compare(g, "CONN"), oracleCompare(s.subs, g, "CONN"); !reflect.DeepEqual(got, want) {
			t.Errorf("Compare(%s) after mutating an earlier answer = %+v, want %+v", g, got, want)
		}
	}
}

// Submissions and reads run concurrently (run under -race), and the
// views end equal to the oracle.
func TestConcurrentSubmitAndReads(t *testing.T) {
	s := NewStore()
	const perWriter = 40
	var writers, readers sync.WaitGroup
	for w := range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range perWriter {
				rep := sampleReport(propPlatforms[w], float64(1+i%7))
				rep.Results[0].KTEPS = float64(1000 - i)
				if _, err := s.Submit(Submission{Submitter: fmt.Sprint("w", w), Report: rep}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Compare("snb-1000", "CONN")
				s.Regressions(RegressionOptions{})
				list := s.List()
				if len(list) == 0 {
					continue
				}
				if sub, ok := s.Get(list[0].ID); !ok || sub.ID != list[0].ID {
					t.Errorf("Get(%d) = %v, %t after List named it", list[0].ID, sub, ok)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if n := len(s.List()); n != 2*perWriter {
		t.Fatalf("List has %d submissions, want %d", n, 2*perWriter)
	}
	checkOracle(t, s)
}
