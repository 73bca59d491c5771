package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/report"
	"graphalytics/internal/resultsdb"
)

// clients is the number of closed-loop clients of the results service: one
// per core of the box the sizes were tuned on. Each sends its next request
// when the previous one has been answered.
const clients = 2

var (
	reportPlatforms = []string{"pregel", "dataflow", "graphdb", "mapreduce"}
	reportGraphs    = []string{"social-10k", "graph500-15", "patents"}
	reportAlgs      = algo.Kinds
)

// regressed is the series whose newest point the seeded store makes three
// times slower than its history, so that /regressions has a verdict to give.
var regressed = [3]string{"dataflow", "social-10k", "BFS"}

type cellKey struct{ graph, alg string }

type bestCell struct {
	runtime time.Duration
	id      int64
}

// leaderboard is what /compare must answer, computed from the reports the
// benchmark generated: per (graph, algorithm), each platform's fastest
// successful run and the submission it came from.
type leaderboard map[cellKey]map[string]bestCell

func (lb leaderboard) add(id int64, rep *report.Report) {
	for _, r := range rep.Results {
		if r.Status != report.StatusSuccess {
			continue
		}
		k := cellKey{r.Graph, string(r.Algorithm)}
		if lb[k] == nil {
			lb[k] = map[string]bestCell{}
		}
		if cur, ok := lb[k][r.Platform]; !ok || r.Runtime < cur.runtime {
			lb[k][r.Platform] = bestCell{r.Runtime, id}
		}
	}
}

// matches reports whether a /compare answer is the leaderboard's.
func (lb leaderboard) matches(c resultsdb.Comparison) bool {
	want := lb[cellKey{c.Graph, c.Algorithm}]
	if len(c.Best) != len(want) {
		return false
	}
	for p, b := range want {
		got, ok := c.Best[p]
		if !ok || got.SubmissionID != b.id || got.RuntimeMS != float64(b.runtime)/1e6 {
			return false
		}
	}
	return true
}

// synthReport is one report of a store: every platform on every graph
// with every algorithm, runtimes log-normal around a per-cell base, one cell
// in fifty a timeout.
func synthReport(rng *rand.Rand, slow bool) *report.Report {
	rep := &report.Report{}
	for pi, p := range reportPlatforms {
		for gi, g := range reportGraphs {
			edges := int64(100000 * (gi + 1))
			for ai, a := range reportAlgs {
				base := float64(5+3*ai) * float64(1+2*pi) * float64(1+gi) * float64(time.Millisecond)
				rt := time.Duration(base * math.Exp(0.1*rng.NormFloat64()))
				if slow && p == regressed[0] && g == regressed[1] && string(a) == regressed[2] {
					rt *= 3
				}
				r := report.RunResult{
					Platform: p, Graph: g, Algorithm: a, Status: report.StatusSuccess,
					Runtime: rt, LoadTime: rt / 10, GraphEdges: edges,
					KTEPS: float64(edges) / rt.Seconds() / 1000,
				}
				r.Validation.Valid = true
				if rng.IntN(50) == 0 {
					r.Status, r.KTEPS, r.Err = report.StatusTimeout, 0, "timeout"
				}
				rep.Results = append(rep.Results, r)
			}
		}
	}
	return rep
}

func submitter(k int) string { return fmt.Sprintf("user-%04d", k) }

// httpClient keeps one connection per client alive.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
}

// fetch performs one request and returns the status, the body and the time
// until the body was read.
func fetch(c *http.Client, method, url string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, data, d, err
}

// ---------------------------------------------------------------------
// results_read

// request is one read of the service.
type request struct {
	endpoint             int // index into endpointNames
	platform, graph, alg string
	id                   int64
}

// resultsRead is the results_read workload: a store of reports behind the
// HTTP handler, read by closed-loop clients with a fixed mix of requests.
// The graph code is idle; what works is resultsdb and net/http.
type resultsRead struct {
	sz     sizes
	seed   uint64
	store  *resultsdb.Store
	server *httptest.Server
	client *http.Client
	board  leaderboard

	httpMS    [5][]float64 // per endpoint, user-path rounds
	respBytes float64
	requests  float64
}

func newResultsRead(sz sizes) *resultsRead { return &resultsRead{sz: sz, board: leaderboard{}} }

func (w *resultsRead) setup(seed uint64, root spanRef) error {
	w.seed = seed
	w.store = resultsdb.NewStore()
	w.server = httptest.NewServer(w.store.Handler())
	w.client = httpClient()
	rng := rand.New(rand.NewPCG(seed, 1))
	for k := 0; k < w.sz.readSubmissions; k++ {
		rep := synthReport(rng, k == w.sz.readSubmissions-1)
		body, err := json.Marshal(resultsdb.Submission{Submitter: submitter(k), Environment: "synthetic", Report: rep})
		if err != nil {
			return err
		}
		status, data, _, err := fetch(w.client, http.MethodPost, w.server.URL+"/api/v1/submissions", body)
		var got struct{ ID int64 }
		if err == nil {
			err = json.Unmarshal(data, &got)
		}
		if err != nil || status != http.StatusCreated || got.ID != int64(k+1) {
			return fmt.Errorf("seeding submission %d: status %d, id %d, err %v", k, status, got.ID, err)
		}
		w.board.add(got.ID, rep)
	}
	return nil
}

// mix draws the requests of round i: 40 % leaderboards, 30 % filtered
// results, 15 % listings, 10 % single reports, 5 % regression scans.
func (w *resultsRead) mix(i int) []request {
	rng := rand.New(rand.NewPCG(w.seed, uint64(1000+i)))
	pick := func(xs []string) string { return xs[rng.IntN(len(xs))] }
	reqs := make([]request, w.sz.readBatch)
	for k := range reqs {
		r := request{platform: pick(reportPlatforms), graph: pick(reportGraphs), alg: string(reportAlgs[rng.IntN(len(reportAlgs))])}
		switch x := rng.IntN(100); {
		case x < 40:
			r.endpoint = 0
		case x < 70:
			r.endpoint = 1
		case x < 85:
			r.endpoint = 2
		case x < 95:
			r.endpoint = 3
			r.id = int64(1 + rng.IntN(w.sz.readSubmissions))
		default:
			r.endpoint = 4
		}
		reqs[k] = r
	}
	return reqs
}

func (r request) url(base string) string {
	q := url.Values{}
	switch r.endpoint {
	case 0:
		q.Set("graph", r.graph)
		q.Set("algorithm", r.alg)
		return base + "/api/v1/compare?" + q.Encode()
	case 1:
		q.Set("platform", r.platform)
		q.Set("graph", r.graph)
		q.Set("algorithm", r.alg)
		return base + "/api/v1/results?" + q.Encode()
	case 2:
		return base + "/api/v1/submissions"
	case 3:
		return fmt.Sprint(base, "/api/v1/submissions/", r.id)
	default:
		return base + "/api/v1/regressions"
	}
}

func (w *resultsRead) round(ctx context.Context, i int, rec *recorder, root spanRef) error {
	reqs := w.mix(i)
	if root.replaying() {
		w.replay(reqs, rec, root)
		return nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(reqs); k += clients {
				r := reqs[k]
				status, body, d, err := fetch(w.client, http.MethodGet, r.url(w.server.URL), nil)
				rec.op(d)
				rec.check(err == nil && status == http.StatusOK && w.validBody(r, body),
					"GET %s: status %d, err %v, %d bytes", r.url(""), status, err, len(body))
				mu.Lock()
				w.httpMS[r.endpoint] = append(w.httpMS[r.endpoint], float64(d)/1e6)
				w.respBytes += float64(len(body))
				w.requests++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rec.addWork(float64(len(reqs)), time.Since(start))
	return nil
}

// validBody checks a response against what the seed implies.
func (w *resultsRead) validBody(r request, body []byte) bool {
	n := w.sz.readSubmissions
	switch r.endpoint {
	case 0:
		var c resultsdb.Comparison
		return json.Unmarshal(body, &c) == nil && w.board.matches(c)
	case 1: // every report has the cell exactly once
		return bytes.Count(body, []byte(`"submission_id"`)) == n
	case 2:
		return bytes.Count(body, []byte(`"submitted_at"`)) == n
	case 3:
		var sub struct {
			ID        int64
			Submitter string
		}
		return json.Unmarshal(body, &sub) == nil && sub.ID == r.id && sub.Submitter == submitter(int(r.id-1))
	default:
		var resp struct {
			Checked     int
			Regressions []report.Regression
		}
		if json.Unmarshal(body, &resp) != nil {
			return false
		}
		return resp.Checked == len(reportPlatforms)*len(reportGraphs)*len(reportAlgs) && flagged(resp.Regressions)
	}
}

func flagged(regs []report.Regression) bool {
	for _, r := range regs {
		if r.Platform == regressed[0] && r.Graph == regressed[1] && r.Algorithm == regressed[2] {
			return true
		}
	}
	return false
}

// replay answers the same requests by calling the store, without HTTP.
func (w *resultsRead) replay(reqs []request, rec *recorder, root spanRef) {
	n := w.sz.readSubmissions
	for k, r := range reqs {
		sp := root.child("resultsdb."+endpointNames[r.endpoint], k)
		ok := false
		switch r.endpoint {
		case 0:
			ok = w.board.matches(w.store.Compare(r.graph, r.alg))
		case 1:
			ok = len(w.store.Results(resultsdb.Filter{Platform: r.platform, Graph: r.graph, Algorithm: r.alg})) == n
		case 2:
			ok = len(w.store.List()) == n
		case 3:
			sub, found := w.store.Get(r.id)
			ok = found && sub.Submitter == submitter(int(r.id-1))
		default:
			regs, checked := w.store.Regressions(resultsdb.RegressionOptions{})
			ok = checked == len(reportPlatforms)*len(reportGraphs)*len(reportAlgs) && flagged(regs)
		}
		sp.end()
		rec.check(ok, "store call %s %v: wrong answer", endpointNames[r.endpoint], r)
	}
}

func (w *resultsRead) finish(lv layerValues, sum summary) {
	var all []float64
	for e, name := range endpointNames {
		lv["resultsdb.http_"+name+"_p50_ms"] = median(w.httpMS[e])
		all = append(all, w.httpMS[e]...)
		if lt := sum.layers["resultsdb."+name]; lt.calls > 0 {
			lv["resultsdb."+name+"_ms"] = lt.total / float64(lt.calls) * 1000
		}
	}
	lv["resultsdb.http_p99_ms"] = percentile(all, 99)
	if w.requests > 0 {
		lv["resultsdb.resp_kb_per_req"] = w.respBytes / w.requests / 1e3
	}
}

func (w *resultsRead) close() {
	if w.server != nil {
		w.client.CloseIdleConnections()
		w.server.Close()
	}
}

// ---------------------------------------------------------------------
// results_submit

// resultsSubmit is the results_submit workload: the same service written
// instead of read. Every round starts from the same file-backed store, so
// rounds are alike although each submission makes the store, and with it the
// next submission, larger. Each client posts reports and asks for the
// leaderboard its report must now lead.
type resultsSubmit struct {
	sz       sizes
	seed     uint64
	dir      string
	seedFile string

	postMS    []float64 // per POST, user-path rounds
	persistMB float64
}

func newResultsSubmit(sz sizes) *resultsSubmit { return &resultsSubmit{sz: sz} }

func (w *resultsSubmit) setup(seed uint64, root spanRef) error {
	w.seed = seed
	dir, err := os.MkdirTemp("", "graphbench-submit-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.seedFile = filepath.Join(dir, "seeded.json")
	store, err := resultsdb.OpenStore(w.seedFile)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 2))
	for k := 0; k < w.sz.submitSeeded; k++ {
		rep := synthReport(rng, false)
		if _, err := store.Submit(resultsdb.Submission{Submitter: submitter(k), Environment: "synthetic", Report: rep}); err != nil {
			return err
		}
	}
	return nil
}

// post is one submission of a round and the leaderboard cell it must take.
type post struct {
	sub      resultsdb.Submission
	body     []byte
	key      cellKey
	platform string
	runtime  time.Duration
}

// recordRuntime is faster than any run synthReport generates (the fastest
// cell has a base of 5 ms and a spread of a tenth).
const recordRuntime = time.Millisecond

// posts builds the reports client c submits in round i. The j-th one holds a
// run on the client's own platform that beats every earlier run of its cell,
// so the leaderboard shows whether the store has taken the report in.
func (w *resultsSubmit) posts(i, c int) ([]post, error) {
	rng := rand.New(rand.NewPCG(w.seed, uint64(100*i+c+10)))
	out := make([]post, w.sz.submitBatch/clients)
	for j := range out {
		rep := synthReport(rng, false)
		p := post{platform: reportPlatforms[c]}
		p.key = cellKey{reportGraphs[j%len(reportGraphs)], string(reportAlgs[(j/len(reportGraphs))%len(reportAlgs)])}
		p.runtime = recordRuntime - time.Duration(j)
		for k := range rep.Results {
			r := &rep.Results[k]
			if r.Platform == p.platform && r.Graph == p.key.graph && string(r.Algorithm) == p.key.alg {
				r.Status, r.Err, r.Runtime = report.StatusSuccess, "", p.runtime
				r.KTEPS = float64(r.GraphEdges) / r.Runtime.Seconds() / 1000
			}
		}
		p.sub = resultsdb.Submission{Submitter: fmt.Sprintf("client-%d", c), Environment: "synthetic", Report: rep}
		body, err := json.Marshal(p.sub)
		if err != nil {
			return nil, err
		}
		p.body = body
		out[j] = p
	}
	return out, nil
}

// leads reports whether the leaderboard of p's cell names submission id as
// the best run of p's platform.
func (p post) leads(c resultsdb.Comparison, id int64) bool {
	b, ok := c.Best[p.platform]
	return ok && b.SubmissionID == id && b.RuntimeMS == float64(p.runtime)/1e6
}

func (w *resultsSubmit) round(ctx context.Context, i int, rec *recorder, root spanRef) error {
	// Every round works on its own copy of the seeded store.
	path := filepath.Join(w.dir, "round.json")
	data, err := os.ReadFile(w.seedFile)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	var batches [clients][]post
	for c := range batches {
		if batches[c], err = w.posts(i, c); err != nil {
			return err
		}
	}
	sp := root.child("resultsdb.open", 0)
	store, err := resultsdb.OpenStore(path)
	sp.end()
	if err != nil {
		return err
	}

	if root.replaying() {
		op := 0
		for j := range batches[0] {
			for c := range batches {
				p := batches[c][j]
				op++
				sp := root.child("resultsdb.submit", op)
				id, err := store.Submit(p.sub)
				sp.end()
				sp = root.child("resultsdb.compare", op)
				cmp := store.Compare(p.key.graph, p.key.alg)
				sp.end()
				rec.check(err == nil && p.leads(cmp, id), "Submit by client %d: err %v, or the leaderboard does not show it", c, err)
			}
		}
	} else {
		server := httptest.NewServer(store.Handler())
		client := httpClient()
		var wg sync.WaitGroup
		var mu sync.Mutex
		start := time.Now()
		for c := range batches {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, p := range batches[c] {
					status, body, d, err := fetch(client, http.MethodPost, server.URL+"/api/v1/submissions", p.body)
					rec.op(d)
					mu.Lock()
					w.postMS = append(w.postMS, float64(d)/1e6)
					mu.Unlock()
					var got struct{ ID int64 }
					if err == nil {
						err = json.Unmarshal(body, &got)
					}
					rec.check(err == nil && status == http.StatusCreated, "POST submission: status %d, err %v", status, err)
					q := url.Values{"graph": {p.key.graph}, "algorithm": {p.key.alg}}
					status, body, _, err = fetch(client, http.MethodGet, server.URL+"/api/v1/compare?"+q.Encode(), nil)
					var cmp resultsdb.Comparison
					if err == nil {
						err = json.Unmarshal(body, &cmp)
					}
					rec.check(err == nil && status == http.StatusOK && p.leads(cmp, got.ID),
						"GET compare after submission %d: status %d, err %v, or it does not show the submission", got.ID, status, err)
				}
			}(c)
		}
		wg.Wait()
		rec.addWork(float64(len(batches)*len(batches[0])), time.Since(start))
		client.CloseIdleConnections()
		server.Close()
	}
	if info, err := os.Stat(path); err == nil {
		w.persistMB = float64(info.Size()) / 1e6
	}
	return nil
}

func (w *resultsSubmit) finish(lv layerValues, sum summary) {
	lv["resultsdb.http_submit_p50_ms"] = median(w.postMS)
	lv["resultsdb.persist_mb"] = w.persistMB
	for _, name := range []string{"submit", "compare"} {
		if lt := sum.layers["resultsdb."+name]; lt.calls > 0 {
			lv["resultsdb."+name+"_ms"] = lt.total / float64(lt.calls) * 1000
		}
	}
}

func (w *resultsSubmit) close() {
	if err := os.RemoveAll(w.dir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: removing %s: %v\n", w.dir, err)
	}
}
