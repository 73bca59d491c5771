package main

import (
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/core"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
	"graphalytics/internal/workload"
)

// matrixKind selects one of the three workloads that execute a run matrix
// (the paper's Figure 4): the in-memory engines on a Datagen graph, the same
// on a weighted, hub-skewed R-MAT graph, and MapReduce alone.
type matrixKind int

const (
	memSocial matrixKind = iota
	memRMAT
	mrSocial
)

var (
	lightAlgs = []algo.Kind{algo.BFS, algo.SSSP, algo.CONN, algo.PR, algo.EVO}
	heavyAlgs = []algo.Kind{algo.STATS, algo.CD, algo.LCC}
)

// inMemoryPlatforms are the three engines whose cells cost milliseconds;
// worker budgets stay at their defaults.
func inMemoryPlatforms() []platform.Platform {
	return []platform.Platform{
		pregel.New(pregel.Options{}),
		dataflow.New(dataflow.Options{}),
		graphdb.New(graphdb.Options{}),
	}
}

// tier is one campaign of a round: a graph and the algorithms run on it.
type tier struct {
	g      *graph.Graph
	algs   []algo.Kind
	params algo.Params
}

// platformCounts accumulates an engine's counters over the replay rounds.
type platformCounts struct {
	messages, supersteps, edges float64
	cacheHits, cacheMisses      float64
	allocMB, peakMemMB          float64
	skewSum                     float64
	skewCells                   int
}

type matrix struct {
	kind      matrixKind
	sz        sizes
	logw      io.Writer
	platforms []platform.Platform
	tiers     []tier

	// Per user-path round, for the traced run's core.* metrics.
	runS, etlS, overheadS []float64
	tprocS                map[algo.Kind][]float64
	executed, uptodate    float64
	userRounds            int

	counts       map[string]*platformCounts
	replayRounds int
}

func newMatrix(kind matrixKind, sz sizes, logw io.Writer) *matrix {
	return &matrix{
		kind: kind, sz: sz, logw: logw,
		tprocS: map[algo.Kind][]float64{},
		counts: map[string]*platformCounts{},
	}
}

func (m *matrix) setup(seed uint64, root spanRef) error {
	var light, heavy *graph.Graph
	var err error
	switch m.kind {
	case memSocial:
		m.platforms = inMemoryPlatforms()
		if light, err = genSocial(root, "social-light", m.sz.socialLight, subSeed(seed, 1), false); err != nil {
			return err
		}
		if heavy, err = genSocial(root, "social-heavy", m.sz.socialHeavy, subSeed(seed, 2), false); err != nil {
			return err
		}
	case memRMAT:
		m.platforms = inMemoryPlatforms()
		if light, err = genRMAT(root, "rmat-light", m.sz.rmatLight, subSeed(seed, 1)); err != nil {
			return err
		}
		if heavy, err = genRMAT(root, "rmat-heavy", m.sz.rmatHeavy, subSeed(seed, 2)); err != nil {
			return err
		}
	case mrSocial:
		// The simulated per-job scheduling delay (250 ms of sleep by
		// default) is switched off: it is not work a change can speed up,
		// and it would be most of a round.
		m.platforms = []platform.Platform{mapreduce.New(mapreduce.Options{RoundOverhead: -1})}
		g, err := genSocial(root, "social-mr", m.sz.mrPersons, subSeed(seed, 1), false)
		if err != nil {
			return err
		}
		describeGraph(m.logw, g)
		m.tiers = []tier{{g, append(append([]algo.Kind{}, lightAlgs...), heavyAlgs...), paramsFor(g, seed)}}
		return nil
	}
	describeGraph(m.logw, light)
	describeGraph(m.logw, heavy)
	m.tiers = []tier{
		{light, lightAlgs, paramsFor(light, seed)},
		{heavy, heavyAlgs, paramsFor(heavy, seed)},
	}
	return nil
}

// paramsFor makes EVO grow the graph by a tenth, so that its cell is not the
// near-empty default of |V|/100 new vertices.
func paramsFor(g *graph.Graph, seed uint64) algo.Params {
	return algo.Params{Seed: seed, EvoNewVertices: max(1, g.NumVertices()/10)}
}

func (m *matrix) round(ctx context.Context, i int, rec *recorder, root spanRef) error {
	if root.replaying() {
		return m.replay(ctx, rec, root)
	}
	var runS, etlS, tprocAll float64
	tproc := map[algo.Kind]float64{}
	for _, t := range m.tiers {
		b := &core.Benchmark{
			Platforms:   m.platforms,
			Graphs:      []*graph.Graph{t.g},
			Algorithms:  t.algs,
			Params:      t.params,
			Validate:    true,
			Parallelism: 1, // cells never contend with each other
		}
		start := time.Now()
		rep, err := b.Run(ctx)
		runS += time.Since(start).Seconds()
		if err != nil {
			return err
		}
		loaded := map[string]bool{}
		for _, r := range rep.Results {
			rec.check(r.Status == report.StatusSuccess && r.Validation.Valid,
				"cell %s/%s/%s: status %s: %s%s", r.Platform, r.Graph, r.Algorithm, r.Status, r.Err, r.Validation.Detail)
			rec.op(r.Runtime)
			rec.addWork(float64(int64(t.g.NumVertices())+t.g.NumEdges()), r.Runtime)
			tproc[r.Algorithm] += r.Runtime.Seconds()
			tprocAll += r.Runtime.Seconds()
			if !loaded[r.Platform] {
				loaded[r.Platform] = true
				etlS += r.LoadTime.Seconds()
			}
			if r.Provenance == report.ProvenanceUptodate {
				m.uptodate++
			} else {
				m.executed++
			}
		}
	}
	m.userRounds++
	m.runS = append(m.runS, runS)
	m.etlS = append(m.etlS, etlS)
	m.overheadS = append(m.overheadS, runS-etlS-tprocAll)
	for a, s := range tproc {
		m.tprocS[a] = append(m.tprocS[a], s)
	}
	return nil
}

// replay does a round's work with the benchmark in the harness's place:
// load, run, reference, validate, each under its own span.
func (m *matrix) replay(ctx context.Context, rec *recorder, root spanRef) error {
	op := 0
	for _, t := range m.tiers {
		params := t.params.WithDefaults(t.g.NumVertices())
		for _, p := range m.platforms {
			pc := m.counts[p.Name()]
			if pc == nil {
				pc = &platformCounts{}
				m.counts[p.Name()] = pc
			}
			sp := root.child("platform."+p.Name()+".etl", 0)
			l, err := p.LoadGraph(t.g)
			sp.end()
			if err != nil {
				return fmt.Errorf("%s: loading %s: %w", p.Name(), t.g.Name(), err)
			}
			for _, a := range t.algs {
				op++
				spec, ok := workload.Lookup(a)
				if !ok {
					return fmt.Errorf("workload %s is not registered", a)
				}
				alloc0 := heapAllocBytes()
				sp := root.child("platform."+p.Name()+"."+strings.ToLower(string(a)), op)
				res, err := l.Run(ctx, a, t.params)
				sp.end()
				pc.allocMB += float64(heapAllocBytes()-alloc0) / 1e6
				if err != nil {
					rec.check(false, "cell %s/%s/%s: %v", p.Name(), t.g.Name(), a, err)
					continue
				}
				sp = root.child("algo.reference", op)
				spec.Reference(t.g, params)
				sp.end()
				sp = root.child("workload.validate", op)
				v := workload.Validate(t.g, a, params, res.Output)
				sp.end()
				rec.check(v.Valid, "cell %s/%s/%s: %s", p.Name(), t.g.Name(), a, v.Detail)
				pc.add(res.Counters)
			}
			if err := l.Close(); err != nil {
				return fmt.Errorf("%s: closing %s: %w", p.Name(), t.g.Name(), err)
			}
		}
	}
	m.replayRounds++
	return nil
}

func (pc *platformCounts) add(c platform.Counters) {
	pc.messages += float64(c.Messages)
	pc.supersteps += float64(c.Supersteps)
	pc.edges += float64(c.EdgesTraversed)
	pc.cacheHits += float64(c.CacheHits)
	pc.cacheMisses += float64(c.CacheMisses)
	pc.peakMemMB = max(pc.peakMemMB, float64(c.PeakMemoryBytes)/1e6)
	var sum, peak time.Duration
	for _, d := range c.WorkerBusy {
		sum += d
		peak = max(peak, d)
	}
	if sum > 0 {
		pc.skewSum += float64(peak) * float64(len(c.WorkerBusy)) / float64(sum)
		pc.skewCells++
	}
}

func (m *matrix) finish(lv layerValues, _ summary) {
	lv["core.run_s"] = median(m.runS)
	lv["core.etl_s"] = median(m.etlS)
	lv["core.overhead_s"] = median(m.overheadS)
	for a, s := range m.tprocS {
		lv["core.tproc_"+strings.ToLower(string(a))+"_s"] = median(s)
	}
	if m.userRounds > 0 {
		lv["core.cells_executed"] = m.executed / float64(m.userRounds)
		lv["core.cells_uptodate"] = m.uptodate / float64(m.userRounds)
	}
	n := float64(max(1, m.replayRounds))
	for name, pc := range m.counts {
		prefix := "platform." + name + "."
		lv[prefix+"messages"] = pc.messages / n
		lv[prefix+"supersteps"] = pc.supersteps / n
		lv[prefix+"edges_traversed"] = pc.edges / n
		lv[prefix+"alloc_mb"] = pc.allocMB / n
		lv[prefix+"peak_mem_mb"] = pc.peakMemMB
		if pc.skewCells > 0 {
			lv[prefix+"busy_skew"] = pc.skewSum / float64(pc.skewCells)
		}
		if lookups := pc.cacheHits + pc.cacheMisses; name == "graphdb" && lookups > 0 {
			lv["platform.graphdb.cache_hit_ratio"] = pc.cacheHits / lookups
		}
	}
}

func (m *matrix) close() {}

// heapAllocBytes is the cumulative number of bytes the program has
// allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
