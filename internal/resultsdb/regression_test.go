package resultsdb

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/jsonlog"
	"graphalytics/internal/report"
	"graphalytics/internal/telemetry"
)

// ktepsReport builds a one-cell successful report with the given kTEPS.
func ktepsReport(platform, graphName string, kteps float64) *report.Report {
	return &report.Report{
		Started:  time.Now().Add(-time.Minute),
		Finished: time.Now(),
		Results: []report.RunResult{{
			Platform: platform, Graph: graphName, Algorithm: algo.CONN,
			Status: report.StatusSuccess, Runtime: time.Second, KTEPS: kteps,
		}},
	}
}

// submitSeries submits one report per kTEPS value, oldest first.
func submitSeries(t *testing.T, s *Store, platform string, kteps ...float64) {
	t.Helper()
	for _, v := range kteps {
		if _, err := s.Submit(Submission{Submitter: "ci", Report: ktepsReport(platform, "snb-1000", v)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegressionsEmptyHistory(t *testing.T) {
	s := NewStore()
	regs, checked := s.Regressions(RegressionOptions{})
	if len(regs) != 0 || checked != 0 {
		t.Fatalf("empty store: regs=%v checked=%d", regs, checked)
	}
}

func TestRegressionsSinglePointNeverFlags(t *testing.T) {
	s := NewStore()
	submitSeries(t, s, "pregel", 1000)
	regs, checked := s.Regressions(RegressionOptions{})
	if checked != 1 {
		t.Fatalf("checked = %d, want 1", checked)
	}
	if len(regs) != 0 {
		t.Fatalf("single point flagged: %+v", regs)
	}
}

func TestRegressionsGenuineDrop(t *testing.T) {
	s := NewStore()
	// Stable around 1000 kTEPS, then the last submission halves.
	submitSeries(t, s, "pregel", 1000, 1020, 980, 500)
	regs, _ := s.Regressions(RegressionOptions{})
	if len(regs) != 1 {
		t.Fatalf("regs = %+v", regs)
	}
	r := regs[0]
	if r.Platform != "pregel" || r.Graph != "snb-1000" || r.Algorithm != "CONN" || r.Metric != "kteps" {
		t.Fatalf("identity: %+v", r)
	}
	if r.Latest != 500 || r.Baseline < 990 || r.Baseline > 1010 {
		t.Fatalf("values: %+v", r)
	}
	if r.Drop < 0.45 || r.Drop > 0.55 {
		t.Fatalf("drop: %+v", r)
	}
	if r.SubmissionID != 4 {
		t.Fatalf("submission id: %+v", r)
	}
}

func TestRegressionsNoisyButFlatStaysQuiet(t *testing.T) {
	s := NewStore()
	// ±25% swings are this series' normal; the final point sits inside
	// that noise band even though it is >15% below the window mean.
	submitSeries(t, s, "pregel", 1000, 1400, 800, 1200, 820)
	regs, _ := s.Regressions(RegressionOptions{})
	if len(regs) != 0 {
		t.Fatalf("noisy-but-flat flagged: %+v", regs)
	}
	// A tight series with the same relative final drop must flag.
	s2 := NewStore()
	submitSeries(t, s2, "pregel", 1000, 1010, 990, 1000, 780)
	regs, _ = s2.Regressions(RegressionOptions{})
	if len(regs) != 1 {
		t.Fatalf("tight-series drop missed: %+v", regs)
	}
}

func TestRegressionsRecoveryNotFlagged(t *testing.T) {
	s := NewStore()
	// A past dip that already recovered must not flag: only the latest
	// point is judged.
	submitSeries(t, s, "pregel", 1000, 400, 1000, 1010)
	regs, _ := s.Regressions(RegressionOptions{})
	if len(regs) != 0 {
		t.Fatalf("recovered series flagged: %+v", regs)
	}
}

func TestRegressionsIngestEVPS(t *testing.T) {
	s := NewStore()
	mk := func(evps float64) *report.Report {
		rep := ktepsReport("pregel", "snb-1000", 1000)
		rep.Ingests = []report.IngestStat{{Graph: "snb-1000", Vertices: 10, Edges: 100, Duration: time.Second, EVPS: evps}}
		return rep
	}
	for _, evps := range []float64{5e6, 5.1e6, 4.9e6, 2e6} {
		if _, err := s.Submit(Submission{Submitter: "ci", Report: mk(evps)}); err != nil {
			t.Fatal(err)
		}
	}
	regs, checked := s.Regressions(RegressionOptions{})
	if checked != 2 { // kteps series + evps series
		t.Fatalf("checked = %d, want 2", checked)
	}
	if len(regs) != 1 || regs[0].Metric != "evps" || regs[0].Platform != "ingest" {
		t.Fatalf("evps regression: %+v", regs)
	}
}

// A slower second run of a cell within one submission is not a history
// point of its own: the submission contributes its best run, so the
// baseline the next submission is judged against is that best run.
func TestRegressionsUseBestRunPerSubmission(t *testing.T) {
	s := NewStore()
	rep := ktepsReport("pregel", "snb-1000", 700)
	rep.Results = append(rep.Results, report.RunResult{
		Platform: "pregel", Graph: "snb-1000", Algorithm: algo.CONN,
		Status: report.StatusSuccess, Runtime: 2 * time.Second, KTEPS: 350,
	})
	if _, err := s.Submit(Submission{Submitter: "ci", Report: rep}); err != nil {
		t.Fatal(err)
	}
	submitSeries(t, s, "pregel", 500)
	regs, checked := s.Regressions(RegressionOptions{})
	if checked != 1 {
		t.Fatalf("checked = %d, want 1 (only the CONN series)", checked)
	}
	if len(regs) != 1 || regs[0].Baseline != 700 || regs[0].Points != 1 || regs[0].Latest != 500 {
		t.Fatalf("regressions: %+v", regs)
	}
}

func TestRegressionsEndpoint(t *testing.T) {
	s := NewStore()
	submitSeries(t, s, "pregel", 1000, 1020, 980, 500)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/regressions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var body struct {
		Checked     int                 `json:"checked"`
		Threshold   float64             `json:"threshold"`
		Regressions []report.Regression `json:"regressions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Checked != 1 || body.Threshold != 0.15 {
		t.Fatalf("body: %+v", body)
	}
	if len(body.Regressions) != 1 || body.Regressions[0].Platform != "pregel" {
		t.Fatalf("regressions: %+v", body.Regressions)
	}

	// An empty store returns an empty array, not null.
	empty := httptest.NewServer(NewStore().Handler())
	defer empty.Close()
	resp2, err := http.Get(empty.URL + "/api/v1/regressions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["regressions"]) != "[]" {
		t.Fatalf("empty regressions = %s", raw["regressions"])
	}

	// Parameter validation.
	for _, q := range []string{"?threshold=2", "?threshold=abc", "?window=0", "?window=x"} {
		resp, err := http.Get(srv.URL + "/api/v1/regressions" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %s, want 400", q, resp.Status)
		}
	}
	// A loose threshold still returns 200 with no regressions flagged.
	resp3, err := http.Get(srv.URL + "/api/v1/regressions?threshold=0.9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Regressions) != 0 {
		t.Fatalf("0.9 threshold flagged: %+v", body.Regressions)
	}
}

// An Append that cannot reach the disk fails the submission with a 500
// and a counted failure, consumes no ID, and leaves memory unchanged.
func TestSubmitPersistFailureSurfacesAndCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Submission{Submitter: "ci", Report: ktepsReport("pregel", "g", 100)}); err != nil {
		t.Fatal(err)
	}
	s.log.Close()
	before := telemetry.Metrics.Counter("resultsdb_persist_failures_total", "").Value()

	// The HTTP caller sees a 500, not a silent 201.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, _ := json.Marshal(Submission{Submitter: "ci", Report: ktepsReport("pregel", "g", 100)})
	resp, err := http.Post(srv.URL+"/api/v1/submissions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %s, want 500", resp.Status)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Error == "" {
		t.Fatal("500 body missing the persist error")
	}
	if after := telemetry.Metrics.Counter("resultsdb_persist_failures_total", "").Value(); after != before+1 {
		t.Fatalf("persist failure counter: %d -> %d", before, after)
	}
	if len(s.List()) != 1 {
		t.Fatal("failed submission left in memory")
	}

	// Once the log is back, the next submission takes the ID the failed
	// one did not consume.
	if s.log, err = jsonlog.Open(path, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if id, err := s.Submit(Submission{Submitter: "ci", Report: ktepsReport("pregel", "g", 100)}); err != nil || id != 2 {
		t.Fatalf("Submit after recovery = %d, %v; want 2", id, err)
	}
	if s2, err := OpenStore(path); err != nil || len(s2.List()) != 2 {
		t.Fatalf("reopen after recovery: %v", err)
	}
}
