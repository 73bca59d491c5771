// Package resultsdb implements the Results database of the Graphalytics
// architecture (Figure 2): "a database for Results that is hosted by us
// online and accepts results submissions from Graphalytics users",
// which the paper's vision says "will evolve into a public database of
// useful results" (§4).
//
// The store keeps submissions (a benchmark report plus submitter
// metadata) in a file-backed JSON log — one submission per line, in ID
// order, through the same jsonlog file the stamp store uses — and
// serves them over HTTP:
//
//	POST /api/v1/submissions          submit a report (JSON body)
//	GET  /api/v1/submissions          list submissions (summaries)
//	GET  /api/v1/submissions/{id}     fetch one submission
//	GET  /api/v1/results?platform=&graph=&algorithm=   filtered results
//	GET  /api/v1/compare?graph=&algorithm=             per-platform best runtimes
//	GET  /api/v1/regressions?threshold=&window=        platforms whose kTEPS/EVPS dropped vs their history
//
// Everything is stdlib net/http + encoding/json; the store is safe for
// concurrent use.
package resultsdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphalytics/internal/jsonlog"
	"graphalytics/internal/report"
	"graphalytics/internal/telemetry"
)

// Submission is one user-contributed benchmark report.
type Submission struct {
	ID          int64          `json:"id"`
	Submitter   string         `json:"submitter"`
	Environment string         `json:"environment"` // free-form SUT description
	SubmittedAt time.Time      `json:"submitted_at"`
	Report      *report.Report `json:"report"`
}

// Summary is the listing view of a submission.
type Summary struct {
	ID          int64     `json:"id"`
	Submitter   string    `json:"submitter"`
	Environment string    `json:"environment"`
	SubmittedAt time.Time `json:"submitted_at"`
	Runs        int       `json:"runs"`
	Platforms   []string  `json:"platforms"`
	Graphs      []string  `json:"graphs"`
}

// Store is the submission database.
type Store struct {
	mu     sync.RWMutex
	nextID int64
	subs   []*Submission
	log    *jsonlog.Log // nil = memory only
}

// NewStore returns an empty in-memory store.
func NewStore() *Store { return &Store{nextID: 1} }

// OpenStore loads (or creates) a file-backed store. Unlike the stamp
// store it rejects, rather than skips, a malformed line or an ID that
// does not exceed its predecessor's: a skipped line would be a lost
// submission, and the regression series rely on ID order. A rejected
// file is left untouched.
func OpenStore(path string) (*Store, error) {
	s := NewStore()
	log, err := jsonlog.Open(path, func(line []byte) error {
		if bytes.HasPrefix(line, []byte("[")) {
			return errors.New("store is a JSON array, the format before one submission per line; " +
				"convert it with: jq -c '.[]' old.json > new.jsonl")
		}
		var sub Submission
		if err := json.Unmarshal(line, &sub); err != nil {
			return err
		}
		if err := validate(&sub); err != nil {
			return err
		}
		if sub.ID < s.nextID {
			return fmt.Errorf("submission id %d does not follow id %d", sub.ID, s.nextID-1)
		}
		s.subs = append(s.subs, &sub)
		s.nextID = sub.ID + 1
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultsdb: %w", err)
	}
	s.log = log
	return s, nil
}

// ErrInvalidSubmission reports a rejected submission.
var ErrInvalidSubmission = errors.New("resultsdb: invalid submission")

// validate checks what every stored submission must carry, whether it
// arrives by Submit or from the file.
func validate(sub *Submission) error {
	if sub.Report == nil || len(sub.Report.Results) == 0 {
		return fmt.Errorf("%w: empty report", ErrInvalidSubmission)
	}
	if sub.Submitter == "" {
		return fmt.Errorf("%w: submitter required", ErrInvalidSubmission)
	}
	for _, r := range sub.Report.Results {
		if r.Platform == "" || r.Graph == "" || r.Algorithm == "" {
			return fmt.Errorf("%w: result missing platform/graph/algorithm", ErrInvalidSubmission)
		}
	}
	return nil
}

// Submit validates and stores a submission, returning its assigned ID.
// A file-backed store appends it to the log first: memory takes the
// submission (and the ID is consumed) only once the disk has it.
func (s *Store) Submit(sub Submission) (int64, error) {
	if err := validate(&sub); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sub.ID = s.nextID
	if sub.SubmittedAt.IsZero() {
		sub.SubmittedAt = time.Now().UTC()
	}
	if s.log != nil {
		if err := s.log.Append(&sub); err != nil {
			// The caller (and its HTTP 500) sees the error; the counter
			// makes a flaky volume visible on /metrics instead of
			// one-off response bodies.
			telemetry.Metrics.Counter("resultsdb_persist_failures_total",
				"submissions rejected because the store could not be persisted").Inc()
			return 0, fmt.Errorf("resultsdb: persisting submission: %w", err)
		}
	}
	s.nextID++
	s.subs = append(s.subs, &sub)
	return sub.ID, nil
}

// Get returns the submission with the given ID.
func (s *Store) Get(id int64) (*Submission, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sub := range s.subs {
		if sub.ID == id {
			return sub, true
		}
	}
	return nil, false
}

// List returns submission summaries, newest first.
func (s *Store) List() []Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Summary, 0, len(s.subs))
	for _, sub := range s.subs {
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

// Filter selects results across all submissions. Empty fields match
// everything.
type Filter struct {
	Platform  string
	Graph     string
	Algorithm string
}

// ResultRow is one filtered result with its provenance.
type ResultRow struct {
	SubmissionID int64            `json:"submission_id"`
	Submitter    string           `json:"submitter"`
	Result       report.RunResult `json:"result"`
}

// Results returns all result rows matching f.
func (s *Store) Results(f Filter) []ResultRow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ResultRow
	for _, sub := range s.subs {
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

// Comparison is the per-platform best successful runtime for one
// (graph, algorithm) — the cross-submission leaderboard view the public
// database exists to provide.
type Comparison struct {
	Graph     string              `json:"graph"`
	Algorithm string              `json:"algorithm"`
	Best      map[string]BestCell `json:"best"`
}

// BestCell is one platform's best entry.
type BestCell struct {
	RuntimeMS    float64 `json:"runtime_ms"`
	KTEPS        float64 `json:"kteps"`
	SubmissionID int64   `json:"submission_id"`
	Submitter    string  `json:"submitter"`
}

// Compare computes the leaderboard for (graph, algorithm).
func (s *Store) Compare(graphName, algorithm string) Comparison {
	rows := s.Results(Filter{Graph: graphName, Algorithm: algorithm})
	cmp := Comparison{Graph: graphName, Algorithm: algorithm, Best: map[string]BestCell{}}
	for _, row := range rows {
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

// ---------------------------------------------------------------------
// HTTP service.

// Handler returns the HTTP API for the store.
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/submissions", s.handleSubmissions)
	mux.HandleFunc("/api/v1/submissions/", s.handleSubmission)
	mux.HandleFunc("/api/v1/results", s.handleResults)
	mux.HandleFunc("/api/v1/compare", s.handleCompare)
	mux.HandleFunc("/api/v1/regressions", s.handleRegressions)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Store) handleSubmissions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.List())
	case http.MethodPost:
		var sub Submission
		if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad JSON: " + err.Error()})
			return
		}
		id, err := s.Submit(sub)
		if errors.Is(err, ErrInvalidSubmission) {
			writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: err.Error()})
			return
		}
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "method not allowed"})
	}
}

func (s *Store) handleSubmission(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "method not allowed"})
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/api/v1/submissions/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad submission id"})
		return
	}
	sub, ok := s.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such submission"})
		return
	}
	writeJSON(w, http.StatusOK, sub)
}

func (s *Store) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "method not allowed"})
		return
	}
	q := r.URL.Query()
	rows := s.Results(Filter{
		Platform:  q.Get("platform"),
		Graph:     q.Get("graph"),
		Algorithm: q.Get("algorithm"),
	})
	writeJSON(w, http.StatusOK, rows)
}

func (s *Store) handleCompare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "method not allowed"})
		return
	}
	q := r.URL.Query()
	graphName, algorithm := q.Get("graph"), q.Get("algorithm")
	if graphName == "" || algorithm == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "graph and algorithm query parameters required"})
		return
	}
	writeJSON(w, http.StatusOK, s.Compare(graphName, algorithm))
}
