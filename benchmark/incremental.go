package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/artifact"
	"graphalytics/internal/core"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/gen/rmat"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/report"
	"graphalytics/internal/sched"
	"graphalytics/internal/stamp"
	"graphalytics/internal/workload"
)

// incremental is the campaign_incremental workload: the same
// core.Benchmark.Run as the matrix workloads, used the other way — to
// restore a campaign that already ran, not to execute one. Set-up runs the
// campaign cold into an artifact cache and stamp store that other campaigns
// share. A round is a cycle of driver passes, each opening the cache and the
// store afresh, loading both graphs with verification, running the campaign
// and rendering its report. All passes but the last find every cell up to
// date; the last runs PageRank alone with a damping factor no campaign used
// before, so its cells execute and every (platform, graph) pair has to load.
type incremental struct {
	sz   sizes
	logw io.Writer
	seed uint64
	dir  string

	socialFP, rmatFP stamp.Fingerprint // dataset identities the graphs are cached under
	socialName       string
	replayETL        map[string]stamp.Fingerprint // graph name -> ETL blob the replay restores
	prRuns           int                          // PageRank campaigns so far: each needs an unused parameter

	// For the traced run.
	runS, etlS, prS      []float64 // per user-path round
	executed, uptodate   float64
	userRounds           int
	lookups, hits        float64 // artifact cache, as seen by the caller
	stampEntries         int     // in the store when set-up ends
	putCalls, putSeconds float64
}

func newIncremental(sz sizes, logw io.Writer) *incremental {
	return &incremental{sz: sz, logw: logw, replayETL: map[string]stamp.Fingerprint{}}
}

const replayIdentity = "graphbench-replay"

func (w *incremental) setup(seed uint64, root spanRef) error {
	w.seed = seed
	dir, err := os.MkdirTemp("", "graphbench-inc-")
	if err != nil {
		return err
	}
	w.dir = dir
	cache, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	social, err := genSocial(root, "social-inc", w.sz.incPersons, subSeed(seed, 1), false)
	if err != nil {
		return err
	}
	rm, err := genRMAT(root, "rmat-inc", w.sz.incScale, subSeed(seed, 2))
	if err != nil {
		return err
	}
	w.socialName = social.Name()
	w.socialFP = stamp.Dataset("social", datagen.Config{Persons: w.sz.incPersons, Seed: subSeed(seed, 1), Name: social.Name()}.Stamp())
	w.rmatFP = stamp.Dataset("rmat", rmat.Config{Scale: w.sz.incScale, Seed: subSeed(seed, 2), Name: rm.Name(), Weighted: true}.Stamp())
	for _, gf := range []struct {
		g  *graph.Graph
		fp stamp.Fingerprint
	}{{social, w.socialFP}, {rm, w.rmatFP}} {
		describeGraph(w.logw, gf.g)
		sp := root.child("artifact.store_graph", 0)
		err := cache.StoreGraph(gf.fp, gf.g)
		sp.end()
		if err != nil {
			return err
		}
		// The blob a replay round restores, stored as core stores its own.
		db := graphdb.New(graphdb.Options{})
		l, err := db.LoadGraph(gf.g)
		if err != nil {
			return err
		}
		fp := stamp.ETL(gf.fp, db.Name(), replayIdentity, db.ETLVersion(), replayIdentity)
		sp = root.child("artifact.etl_store", 0)
		err = cache.StoreETL(fp, func(wr io.Writer) error { return db.WriteETL(l, wr) })
		sp.end()
		if err != nil {
			return err
		}
		if err := l.Close(); err != nil {
			return err
		}
		w.replayETL[gf.g.Name()] = fp
	}

	stamps, err := stamp.OpenStore(cache.StampStorePath())
	if err != nil {
		return err
	}
	defer stamps.Close()
	cold := w.campaign(cache, stamps, []*graph.Graph{social, rm}, nil, algo.Params{Seed: seed})
	rep, err := cold.Run(context.Background())
	if err != nil {
		return err
	}
	for _, r := range rep.Results {
		if r.Status != report.StatusSuccess {
			return fmt.Errorf("cold campaign: cell %s/%s/%s: %s: %s", r.Platform, r.Graph, r.Algorithm, r.Status, r.Err)
		}
	}
	// A long-lived fleet cache holds the stamps of many other campaigns.
	for k := 0; k < w.sz.incFleetStamps; k++ {
		fp := stamp.Cell(stamp.CellInputs{Workload: "fleet", Params: fmt.Sprint(seed, "/", k)})
		start := time.Now()
		err := stamps.Put(fp, rep.Results[k%len(rep.Results)])
		w.putSeconds += time.Since(start).Seconds()
		w.putCalls++
		if err != nil {
			return err
		}
	}
	w.stampEntries = stamps.Len() // grows by 6 with every PageRank pass
	return nil
}

// campaign configures the matrix the way the graphalytics driver does with a
// cache directory. The Datagen graph is identified by its generator
// parameters; the R-MAT graph is left to core to identify by content, as a
// graph read from a file is.
func (w *incremental) campaign(cache *artifact.Cache, stamps *stamp.Store, graphs []*graph.Graph, algs []algo.Kind, params algo.Params) *core.Benchmark {
	return &core.Benchmark{
		Platforms:   inMemoryPlatforms(),
		Graphs:      graphs,
		Algorithms:  algs,
		Params:      params,
		Parallelism: 1,
		Stamps:      stamps,
		GraphStamps: map[string]stamp.Fingerprint{w.socialName: w.socialFP},
		Artifacts:   cache,
	}
}

// freshParams are PageRank parameters no campaign has used: the damping
// factor moves by a ten-thousandth, which changes every cell's fingerprint
// and nothing about its cost.
func (w *incremental) freshParams() algo.Params {
	w.prRuns++
	return algo.Params{Seed: w.seed, PRDamping: 0.85 - 1e-4*float64(w.prRuns)}
}

func (w *incremental) round(ctx context.Context, i int, rec *recorder, root spanRef) error {
	var sum passStats
	for k := 0; k < w.sz.incCycle; k++ {
		start := time.Now()
		st, err := w.pass(ctx, k, k == w.sz.incCycle-1, rec, root)
		if err != nil {
			return err
		}
		d := time.Since(start)
		rec.op(d)
		rec.addWork(float64(st.cells), d)
		sum.runS, sum.etlS, sum.prS = sum.runS+st.runS, sum.etlS+st.etlS, sum.prS+st.prS
	}
	if !root.replaying() {
		w.userRounds++
		w.runS = append(w.runS, sum.runS)
		w.etlS = append(w.etlS, sum.etlS)
		w.prS = append(w.prS, sum.prS)
	}
	return nil
}

// passStats is what one pass delivered: the cells of its report and, for a
// pass through Benchmark.Run, the seconds spent in it, in platform loads and
// in PageRank.
type passStats struct {
	cells           int
	runS, etlS, prS float64
}

// pass is one run of the driver: open the cache and the stamp store, load
// the graphs, run the campaign, render the report.
func (w *incremental) pass(ctx context.Context, op int, prOnly bool, rec *recorder, root spanRef) (passStats, error) {
	cache, err := artifact.Open(w.dir)
	if err != nil {
		return passStats{}, err
	}
	cache.Verify = true
	sp := root.child("stamp.open", op)
	stamps, err := stamp.OpenStore(cache.StampStorePath())
	sp.end()
	if err != nil {
		return passStats{}, err
	}
	defer stamps.Close()
	var graphs []*graph.Graph
	for _, fp := range []stamp.Fingerprint{w.socialFP, w.rmatFP} {
		sp := root.child("artifact.load_graph", op)
		g, hit, err := cache.LoadGraph(fp, 0)
		sp.end()
		w.lookups++
		if err != nil || !hit {
			return passStats{}, fmt.Errorf("cached graph %s: hit=%t err=%v", fp.Short(), hit, err)
		}
		w.hits++
		graphs = append(graphs, g)
	}

	var st passStats
	var results []report.RunResult
	if root.replaying() && prOnly {
		results, err = w.replayPageRank(ctx, op, cache, stamps, graphs, rec, root)
	} else {
		results, st, err = w.runCampaign(ctx, op, prOnly, cache, stamps, graphs, rec, root)
	}
	if err != nil {
		return passStats{}, err
	}
	st.cells = len(results)

	sp = root.child("report.render", op)
	_ = report.Figure4Table(results)
	_ = report.ResourceTable(results)
	err = report.WriteCSV(io.Discard, results)
	sp.end()
	return st, err
}

// runCampaign runs the matrix through Benchmark.Run and checks where every
// cell came from.
func (w *incremental) runCampaign(ctx context.Context, op int, prOnly bool, cache *artifact.Cache, stamps *stamp.Store, graphs []*graph.Graph, rec *recorder, root spanRef) ([]report.RunResult, passStats, error) {
	var st passStats
	var algs []algo.Kind
	params := algo.Params{Seed: w.seed}
	wantCells := len(workload.Kinds())
	if prOnly {
		algs, params, wantCells = []algo.Kind{algo.PR}, w.freshParams(), 1
	}
	b := w.campaign(cache, stamps, graphs, algs, params)
	wantCells *= len(b.Platforms) * len(graphs)
	if root.replaying() {
		// What core would do for the graph it has no identity for.
		sp := root.child("stamp.of_graph", op)
		fp, err := stamp.OfGraph(graphs[1])
		sp.end()
		if err != nil {
			return nil, st, err
		}
		b.GraphStamps[graphs[1].Name()] = fp
	}
	sp := root.child("core.run", op)
	start := time.Now()
	rep, err := b.Run(ctx)
	st.runS = time.Since(start).Seconds()
	sp.end()
	if err != nil {
		return nil, st, err
	}
	loaded := map[string]bool{}
	for _, r := range rep.Results {
		want := report.ProvenanceUptodate
		if prOnly {
			// Only graphdb can restore its loaded form from the cache.
			want = report.ProvenanceLive
			if r.Platform == "graphdb" {
				want = report.ProvenanceETLCache
			}
			st.prS += r.Runtime.Seconds()
			if key := r.Platform + "/" + r.Graph; !loaded[key] {
				loaded[key] = true
				st.etlS += r.LoadTime.Seconds()
			}
		}
		rec.check(r.Status == report.StatusSuccess && r.Provenance == want,
			"cell %s/%s/%s: status %s, provenance %q, want %q", r.Platform, r.Graph, r.Algorithm, r.Status, r.Provenance, want)
		if !root.replaying() {
			if r.Provenance == report.ProvenanceUptodate {
				w.uptodate++
			} else {
				w.executed++
			}
		}
	}
	rec.check(len(rep.Results) == wantCells, "campaign reported %d cells, want %d", len(rep.Results), wantCells)
	return rep.Results, st, nil
}

// replayPageRank is the last pass of a cycle with the benchmark in core's
// place: restore or load each pair, run PageRank, stamp the result.
func (w *incremental) replayPageRank(ctx context.Context, op int, cache *artifact.Cache, stamps *stamp.Store, graphs []*graph.Graph, rec *recorder, root spanRef) ([]report.RunResult, error) {
	params := w.freshParams()
	var results []report.RunResult
	for _, p := range inMemoryPlatforms() {
		for _, g := range graphs {
			var l platform.Loaded
			var err error
			provenance := report.ProvenanceLive
			loadStart := time.Now()
			if cl, ok := p.(platform.CachedLoader); ok {
				provenance = report.ProvenanceETLCache
				sp := root.child("artifact.etl_restore", op)
				rc, hit, oerr := cache.OpenETL(w.replayETL[g.Name()])
				w.lookups++
				if oerr == nil && hit {
					w.hits++
					l, err = cl.ReadETL(g, rc)
					rc.Close()
				} else {
					err = fmt.Errorf("ETL blob of %s: hit=%t err=%v", g.Name(), hit, oerr)
				}
				sp.end()
			} else {
				sp := root.child("platform."+p.Name()+".etl", op)
				l, err = p.LoadGraph(g)
				sp.end()
			}
			if err != nil {
				rec.check(false, "%s: loading %s: %v", p.Name(), g.Name(), err)
				continue
			}
			loadTime := time.Since(loadStart)
			sp := root.child("platform."+p.Name()+".pr", op)
			start := time.Now()
			res, err := l.Run(ctx, algo.PR, params)
			runtime := time.Since(start)
			sp.end()
			rec.check(err == nil, "cell %s/%s/PR: %v", p.Name(), g.Name(), err)
			if cerr := l.Close(); cerr != nil {
				return nil, cerr
			}
			if err != nil {
				continue
			}
			r := report.RunResult{
				Platform: p.Name(), Graph: g.Name(), Algorithm: algo.PR, Status: report.StatusSuccess,
				Runtime: runtime, LoadTime: loadTime, GraphEdges: g.NumEdges(), Counters: res.Counters,
				KTEPS: float64(g.NumEdges()) / runtime.Seconds() / 1000, Provenance: provenance,
			}
			fp := stamp.Cell(stamp.CellInputs{
				Graph: w.replayETL[g.Name()], Workload: "PR", Params: stamp.JSON(params),
				Platform: p.Name(), PlatformConfig: replayIdentity, Binary: replayIdentity,
			})
			sp = root.child("stamp.put", op)
			start = time.Now()
			err = stamps.Put(fp, r)
			w.putSeconds += time.Since(start).Seconds()
			w.putCalls++
			sp.end()
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
	}
	return results, nil
}

func (w *incremental) finish(lv layerValues, _ summary) {
	lv["core.run_s"] = median(w.runS)
	lv["core.etl_s"] = median(w.etlS)
	lv["core.tproc_pr_s"] = median(w.prS)
	if w.userRounds > 0 {
		lv["core.cells_executed"] = w.executed / float64(w.userRounds)
		lv["core.cells_uptodate"] = w.uptodate / float64(w.userRounds)
	}
	lv["stamp.entries"] = float64(w.stampEntries)
	if w.putCalls > 0 {
		lv["stamp.put_us"] = w.putSeconds / w.putCalls * 1e6
	}
	if w.lookups > 0 {
		lv["artifact.hit_ratio"] = w.hits / w.lookups
	}
	var bytes int64
	_ = filepath.WalkDir(w.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				bytes += info.Size()
			}
		}
		return nil // a file that vanished is not worth failing the run for
	})
	lv["artifact.disk_mb"] = float64(bytes) / 1e6
	lv["sched.dispatch_us_per_job"] = schedDispatchMicros()
}

// schedDispatchMicros times the scheduler alone: a campaign of jobs that do
// nothing, at the parallelism the campaigns above use.
func schedDispatchMicros() float64 {
	const n = 10000
	jobs := make([]sched.Job, n)
	for i := range jobs {
		jobs[i] = sched.Job{ID: fmt.Sprint("job/", i), Run: func(context.Context, int) error { return nil }}
	}
	start := time.Now()
	if _, err := sched.Run(context.Background(), jobs, sched.Options{Parallelism: 1}); err != nil {
		return 0
	}
	return float64(time.Since(start).Microseconds()) / n
}

func (w *incremental) close() {
	if err := os.RemoveAll(w.dir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: removing %s: %v\n", w.dir, err)
	}
}
