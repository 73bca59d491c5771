package resultsdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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
}
