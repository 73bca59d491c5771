package report

import (
	"strings"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/validation"
)

func sampleResults() []RunResult {
	return []RunResult{
		{Platform: "pregel", Graph: "g500", Algorithm: algo.BFS, Status: StatusSuccess,
			Runtime: 86 * time.Second, KTEPS: 1500, GraphEdges: 1000, Validation: validation.Result{Valid: true}},
		{Platform: "mapreduce", Graph: "g500", Algorithm: algo.BFS, Status: StatusSuccess,
			Runtime: 6179 * time.Second, KTEPS: 20, GraphEdges: 1000, Validation: validation.Result{Valid: true}},
		{Platform: "dataflow", Graph: "g500", Algorithm: algo.BFS, Status: StatusOOM, GraphEdges: 1000},
		{Platform: "pregel", Graph: "g500", Algorithm: algo.CONN, Status: StatusSuccess,
			Runtime: time.Second, KTEPS: 6272, GraphEdges: 1000, Validation: validation.Result{Valid: true}},
		{Platform: "pregel", Graph: "patents", Algorithm: algo.CONN, Status: StatusTimeout, GraphEdges: 500},
	}
}

func TestCellRendering(t *testing.T) {
	cases := []struct {
		r    RunResult
		want string
	}{
		{RunResult{Status: StatusSuccess, Runtime: 250 * time.Second}, "250 s"},
		{RunResult{Status: StatusSuccess, Runtime: 2500 * time.Millisecond}, "2.5 s"},
		{RunResult{Status: StatusSuccess, Runtime: 42 * time.Millisecond}, "0.042 s"},
		{RunResult{Status: StatusOOM}, "—(oom)"},
		{RunResult{Status: StatusTimeout}, "—(timeout)"},
	}
	for _, c := range cases {
		if got := c.r.Cell(); got != c.want {
			t.Errorf("Cell() = %q, want %q", got, c.want)
		}
	}
}

func TestFigure4TableLayout(t *testing.T) {
	table := Figure4Table(sampleResults())
	// One block per graph, algorithms as rows, platforms as columns.
	if !strings.Contains(table, "=== g500 ===") || !strings.Contains(table, "=== patents ===") {
		t.Fatalf("missing graph blocks:\n%s", table)
	}
	for _, want := range []string{"BFS", "CONN", "pregel", "mapreduce", "dataflow", "—(oom)", "—(timeout)"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// The patents block has no BFS results, so no BFS row there.
	patentsBlock := table[strings.Index(table, "=== patents ==="):]
	if strings.Contains(patentsBlock, "BFS") {
		t.Errorf("patents block should not have a BFS row:\n%s", patentsBlock)
	}
}

func TestFigure5TableLayout(t *testing.T) {
	table := Figure5Table(sampleResults())
	if !strings.Contains(table, "kTEPS") {
		t.Fatal("missing header")
	}
	if !strings.Contains(table, "6272") {
		t.Errorf("missing pregel CONN kTEPS:\n%s", table)
	}
	if !strings.Contains(table, "—(timeout)") {
		t.Errorf("failed CONN cells must be marked:\n%s", table)
	}
	// BFS rows never appear in the Figure 5 view.
	if strings.Contains(table, "1500") {
		t.Errorf("BFS kTEPS leaked into Figure 5:\n%s", table)
	}
}

func TestWriteCSVShape(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, sampleResults()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(sampleResults())+1 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "platform,graph,algorithm,status") {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != strings.Count(lines[0], ",") {
			t.Errorf("column count mismatch: %q", line)
		}
	}
}

func TestReportJSONAndSummary(t *testing.T) {
	rep := &Report{
		Started:  time.Date(2015, 5, 31, 12, 0, 0, 0, time.UTC),
		Finished: time.Date(2015, 5, 31, 12, 5, 0, 0, time.UTC),
		Results:  sampleResults(),
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"results\"", "\"pregel\"", "\"oom\""} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
	s := rep.Summary()
	for _, want := range []string{"5 runs", "3 success", "1 oom", "1 timeout", "5m0s"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
}

func TestEmptyResults(t *testing.T) {
	if got := Figure4Table(nil); got != "" {
		t.Errorf("empty Figure4Table = %q", got)
	}
	table := Figure5Table(nil)
	if !strings.Contains(table, "kTEPS") {
		t.Errorf("Figure5Table should still print a header: %q", table)
	}
}

func TestResourceTableProvenance(t *testing.T) {
	results := []RunResult{
		{Platform: "pregel", Graph: "g", Algorithm: algo.BFS, Status: StatusSuccess,
			Runtime: time.Second, Provenance: ProvenanceUptodate},
		{Platform: "pregel", Graph: "g", Algorithm: algo.CONN, Status: StatusSuccess,
			Runtime: time.Second, Provenance: ProvenanceETLCache},
		// Live cell without monitor data: excluded, as before.
		{Platform: "pregel", Graph: "g", Algorithm: algo.PR, Status: StatusSuccess,
			Runtime: time.Second},
	}
	table := ResourceTable(results)
	if !strings.Contains(table, "origin") {
		t.Fatalf("resource table lacks an origin column:\n%s", table)
	}
	if !strings.Contains(table, "uptodate") {
		t.Errorf("restored cells dropped from resource table:\n%s", table)
	}
	// Restored rows have no monitor samples: they render n/a, not zeros.
	if !strings.Contains(table, "n/a") {
		t.Errorf("restored rows must render n/a for missing resources:\n%s", table)
	}
	if strings.Contains(table, string(algo.PR)) {
		t.Errorf("live cell without resources leaked into the table:\n%s", table)
	}
}

func TestSummaryProvenanceCounts(t *testing.T) {
	results := sampleResults()
	results[0].Provenance = ProvenanceUptodate
	results[3].Provenance = ProvenanceETLCache
	rep := &Report{Results: results}
	s := rep.Summary()
	for _, want := range []string{"uptodate", "etl-cache"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary lacks %q count:\n%s", want, s)
		}
	}
	// All-live reports stay unchanged: no provenance noise.
	if s := (&Report{Results: sampleResults()}).Summary(); strings.Contains(s, "uptodate") {
		t.Errorf("all-live summary mentions provenance:\n%s", s)
	}
}
