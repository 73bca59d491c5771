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
// Reads are served from in-memory views — the submission summaries,
// the per-(graph, algorithm) leaderboard and the regression series —
// that one insertion path keeps current as each submission is accepted
// or replayed from the file. Opening a store therefore costs time in
// proportion to the file, while a read costs the same however many
// submissions it holds; only the filtered /results query still scans.
//
// Everything is stdlib net/http + encoding/json; the store is safe for
// concurrent use.
package resultsdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
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
	subs   []*Submission // in ID order
	log    *jsonlog.Log  // nil = memory only

	// Views of subs, written only by add.
	summaries []Summary                    // summaries[i] describes subs[i]
	board     map[cell]map[string]BestCell // (graph, algorithm) → platform → best run
	history   map[seriesKey][]MetricPoint  // regression series, oldest first
}

// cell identifies one leaderboard.
type cell struct{ graph, algorithm string }

// NewStore returns an empty in-memory store.
func NewStore() *Store {
	return &Store{nextID: 1, board: map[cell]map[string]BestCell{}, history: map[seriesKey][]MetricPoint{}}
}

// add appends a validated submission whose ID exceeds every stored one
// and brings every view up to date with it. It is the only writer of
// subs and the views; the caller holds the write lock (or, while
// OpenStore replays the file, the only reference to the store).
func (s *Store) add(sub *Submission) {
	s.subs = append(s.subs, sub)
	s.nextID = sub.ID + 1

	sm := Summary{
		ID: sub.ID, Submitter: sub.Submitter, Environment: sub.Environment,
		SubmittedAt: sub.SubmittedAt, Runs: len(sub.Report.Results),
	}
	// A submission has one point per series, its best value; a value
	// that is not positive is no point.
	point := func(k seriesKey, v float64) {
		if !(v > 0) {
			return
		}
		pts := s.history[k]
		if n := len(pts); n > 0 && pts[n-1].SubmissionID == sub.ID {
			pts[n-1].Value = max(pts[n-1].Value, v)
			return
		}
		s.history[k] = append(pts, MetricPoint{SubmissionID: sub.ID, Value: v})
	}
	seenP, seenG := map[string]bool{}, map[string]bool{}
	for i := range sub.Report.Results {
		r := &sub.Report.Results[i]
		if !seenP[r.Platform] {
			seenP[r.Platform] = true
			sm.Platforms = append(sm.Platforms, r.Platform)
		}
		if !seenG[r.Graph] {
			seenG[r.Graph] = true
			sm.Graphs = append(sm.Graphs, r.Graph)
		}
		if r.Status != report.StatusSuccess {
			continue
		}
		// Strictly faster wins, so a tie stays with the earlier run.
		c := cell{r.Graph, string(r.Algorithm)}
		row := s.board[c]
		if row == nil {
			row = map[string]BestCell{}
			s.board[c] = row
		}
		ms := float64(r.Runtime) / 1e6
		if cur, ok := row[r.Platform]; !ok || ms < cur.RuntimeMS {
			row[r.Platform] = BestCell{RuntimeMS: ms, KTEPS: r.KTEPS, SubmissionID: sub.ID, Submitter: sub.Submitter}
		}
		point(seriesKey{r.Platform, r.Graph, string(r.Algorithm), "kteps"}, r.KTEPS)
	}
	for _, in := range sub.Report.Ingests {
		point(seriesKey{"ingest", in.Graph, "", "evps"}, in.EVPS)
	}
	sort.Strings(sm.Platforms)
	sort.Strings(sm.Graphs)
	s.summaries = append(s.summaries, sm)
}

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
		s.add(&sub)
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
//
// The store takes ownership of sub.Report: Get returns it and the read
// views are derived from it, so the caller must not modify it after
// the call.
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
	s.add(&sub)
	return sub.ID, nil
}

// Get returns the submission with the given ID.
func (s *Store) Get(id int64) (*Submission, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// IDs strictly increase along subs.
	i := sort.Search(len(s.subs), func(i int) bool { return s.subs[i].ID >= id })
	if i < len(s.subs) && s.subs[i].ID == id {
		return s.subs[i], true
	}
	return nil, false
}

// List returns submission summaries, newest first. The slice is the
// caller's own; the Platforms and Graphs lists in it are shared with
// the store and must not be modified.
func (s *Store) List() []Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Summary, len(s.summaries))
	for i, sm := range s.summaries {
		out[len(out)-1-i] = sm
	}
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
		for i := range sub.Report.Results {
			r := &sub.Report.Results[i]
			if f.Platform != "" && r.Platform != f.Platform {
				continue
			}
			if f.Graph != "" && r.Graph != f.Graph {
				continue
			}
			if f.Algorithm != "" && string(r.Algorithm) != f.Algorithm {
				continue
			}
			out = append(out, ResultRow{SubmissionID: sub.ID, Submitter: sub.Submitter, Result: *r})
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

// Compare returns the leaderboard for one (graph, algorithm): each
// platform's fastest successful run, the earliest one on a tie. Both
// names must match exactly; an unknown pair has an empty Best. The
// returned map is the caller's own.
func (s *Store) Compare(graphName, algorithm string) Comparison {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur := s.board[cell{graphName, algorithm}]
	best := make(map[string]BestCell, len(cur))
	maps.Copy(best, cur)
	return Comparison{Graph: graphName, Algorithm: algorithm, Best: best}
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
	if rows == nil {
		rows = []ResultRow{}
	}
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
