// Command graphalytics is the benchmark driver: it runs the full matrix
// of platforms × graphs × algorithms described by a properties file (or
// flags), validates outputs, and writes the report — the executable
// counterpart of the paper's "Graphalytics includes a Unix shell script
// that triggers the execution of the benchmark. After the execution
// completes, the benchmark report is available in the local file
// system" (§2.3).
//
// Usage:
//
//	graphalytics [flags]
//	graphalytics -config bench.properties
//
// Properties understood (flags override):
//
//	benchmark.run.platforms  = pregel,mapreduce,dataflow,graphdb
//	benchmark.run.algorithms = BFS,CD,CONN,EVO,STATS,PR,SSSP,LCC
//	benchmark.run.graphs     = social:10000,rmat:12,patents
//	benchmark.run.timeout    = 5m
//	benchmark.run.validate   = true
//	benchmark.run.parallel   = 4
//	benchmark.run.reps       = 5
//	benchmark.run.warmup     = 1
//	benchmark.run.retries    = 2
//	benchmark.output.dir     = report/
//	platform.dataflow.memory = 268435456
//	platform.graphdb.memory  = 268435456
//	platform.pregel.workers  = 8
//	platform.dataflow.workers = 4
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graphalytics"
	"graphalytics/internal/algo"
	"graphalytics/internal/artifact"
	"graphalytics/internal/config"
	"graphalytics/internal/core"
	"graphalytics/internal/dist"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/gen/rmat"
	"graphalytics/internal/gen/surrogate"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
	"graphalytics/internal/resultsdb"
	"graphalytics/internal/sched"
	"graphalytics/internal/stamp"
	"graphalytics/internal/telemetry"
	"graphalytics/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphalytics:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "", "properties file")
		platforms  = flag.String("platforms", "pregel,mapreduce,dataflow,graphdb", "comma-separated platforms")
		algorithms = flag.String("algorithms", "", "comma-separated workloads, names or LDBC aliases (default: every registered workload)")
		graphsSpec = flag.String("graphs", "social:5000", "comma-separated graph specs (social:N, rmat:SCALE, amazon|youtube|livejournal|patents|wikipedia, or file:PATH.e)")
		weighted   = flag.Bool("weighted", false, "generate social/rmat graphs with seeded edge weights (SSSP consumes them)")
		loadWork   = flag.Int("load-workers", 0, "graph ingest workers: parallel parse, interning, and CSR build (0 = all cores, 1 = sequential loader)")
		platWork   = flag.Int("platform-workers", 0, "kernel workers per platform: pregel BSP workers, mapreduce slots, dataflow partitions (0 = all cores, 1 = sequential kernels; graphdb is single-threaded by design; per-platform override: platform.<name>.workers)")
		timeout    = flag.Duration("timeout", 5*time.Minute, "per-run timeout")
		outDir     = flag.String("out", "graphalytics-report", "report output directory")
		validate   = flag.Bool("validate", true, "validate outputs against the reference")
		parallel   = flag.Int("parallel", 0, "concurrent campaign jobs (0 = all cores, 1 = sequential)")
		reps       = flag.Int("reps", 1, "timed repetitions per cell (mean runtime reported)")
		warmup     = flag.Int("warmup", 0, "untimed warm-up executions per cell")
		retries    = flag.Int("retries", 0, "extra attempts for transiently failed cells")
		resume     = flag.String("resume", "", "stamped result store file: record successful cells and restore them on re-run (default with -cache-dir: the store inside the cache directory)")
		cacheDir   = flag.String("cache-dir", "", "incremental campaign cache directory: generated graphs and platform ETL outputs are stored under their content fingerprint, and unchanged matrix cells restore from the stamped result store without executing (empty = caching off)")
		noCache    = flag.Bool("no-cache", false, "ignore -cache-dir and the benchmark.cache.dir property: run everything live")
		cacheVer   = flag.Bool("cache-verify", false, "verify cached artifacts on read (recompute content checksums); corrupted artifacts are regenerated")
		seed       = flag.Uint64("seed", 42, "generator / algorithm seed")
		submitURL  = flag.String("submit", "", "results-database base URL to submit the report to (e.g. http://localhost:8080)")
		submitter  = flag.String("submitter", "anonymous", "submitter name for -submit")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON timeline of the campaign to this file (open in chrome://tracing or Perfetto)")
		metricsAdr = flag.String("metrics-addr", "", "serve Prometheus metrics plus the live /status campaign view on this address while the campaign runs (e.g. :9090)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address while the campaign runs (e.g. :6060)")
		logFormat  = flag.String("log-format", "text", "structured log format: text or json")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		serveAddr  = flag.String("serve-campaign", "", "run as a distributed campaign manager: listen on this address (e.g. :7113) and lease matrix cells to graphrunner processes instead of executing them locally")
		leaseTO    = flag.Duration("lease-timeout", dist.DefaultLeaseTimeout, "distributed mode: re-lease a cell whose runner sends no progress for this long")
	)
	flag.Parse()
	if err := telemetry.SetupLogging(nil, *logFormat, *logLevel); err != nil {
		return err
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		telemetry.StartTrace(f)
		defer func() {
			if err := telemetry.StopTrace(); err != nil {
				slog.Error("trace write failed", "path", *tracePath, "err", err)
			}
			f.Close()
		}()
	}
	// The tracker backs the live /status view; it observes the schedule
	// whether or not a listener is configured (it is cheap when nobody
	// snapshots it).
	tracker := sched.NewTracker()
	if *metricsAdr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Metrics.Handler())
		mux.Handle("/status", statusJSONHandler(tracker))
		mux.Handle("/", statusPageHandler())
		go func() {
			if err := http.ListenAndServe(*metricsAdr, mux); err != nil {
				slog.Error("metrics listener failed", "addr", *metricsAdr, "err", err)
			}
		}()
	}
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				slog.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
	}

	props := config.New()
	if *configPath != "" {
		loaded, err := config.LoadFile(*configPath)
		if err != nil {
			return err
		}
		props = loaded
	}
	if err := applyProperties(flag.CommandLine, props); err != nil {
		return err
	}

	platformNames := splitList(*platforms)
	// An empty algorithm list means "every registered workload": the
	// registry, not this file, decides what the suite contains.
	algoNames := splitList(*algorithms)
	graphSpecs := splitList(*graphsSpec)

	// The incremental campaign cache: one directory holding generated
	// graphs, platform ETL blobs, and the stamped result store. -no-cache
	// wins over both the flag and the property. A campaign opens exactly
	// one stamped result store: -resume FILE if given, else the cache's.
	cachePath := *cacheDir
	if *noCache {
		cachePath = ""
	}
	var cache *artifact.Cache
	if cachePath != "" {
		c, err := artifact.Open(cachePath)
		if err != nil {
			return err
		}
		c.Verify = *cacheVer
		cache = c
	}
	storePath := stampStorePath(*resume, cache)
	var stamps *stamp.Store
	if storePath != "" {
		s, err := stamp.OpenStore(storePath)
		if err != nil {
			return err
		}
		defer s.Close()
		stamps = s
	}

	plats, err := buildPlatforms(platformNames, props, *platWork)
	if err != nil {
		return err
	}
	algs, err := parseAlgorithms(algoNames)
	if err != nil {
		return err
	}
	graphs, ingests, graphStamps, err := buildGraphs(graphSpecs, *seed, *weighted, *loadWork, cache)
	if err != nil {
		return err
	}

	bench := &core.Benchmark{
		Platforms:       plats,
		Graphs:          graphs,
		Algorithms:      algs,
		Params:          algo.Params{Seed: *seed},
		Timeout:         *timeout,
		Validate:        *validate,
		MonitorInterval: 10 * time.Millisecond,
		Parallelism:     *parallel,
		Reps:            *reps,
		Warmup:          *warmup,
		Retries:         *retries,
		Ingests:         ingests,
		Tracker:         tracker,
		Stamps:          stamps,
		GraphStamps:     graphStamps,
		Artifacts:       cache,
		Progress: func(r report.RunResult) {
			extra := ""
			if r.Reps != nil {
				extra = fmt.Sprintf("  (reps %d: min %s mean %s max %s)",
					r.Reps.Reps, r.Reps.Min.Round(time.Microsecond),
					r.Reps.Mean.Round(time.Microsecond), r.Reps.Max.Round(time.Microsecond))
			}
			fmt.Printf("  %-10s %-14s %-6s %-10s %s%s\n", r.Platform, r.Graph, r.Algorithm, r.Status, r.Cell(), extra)
		},
	}
	// Distributed mode: instead of the local pool, a manager leases the
	// cells to graphrunner processes. Everything else — restore, retry,
	// stamping, collation, /status — is shared.
	if *serveAddr != "" {
		specs, err := platformSpecs(platformNames, props, *platWork)
		if err != nil {
			return err
		}
		graphsByName := make(map[string]*graph.Graph, len(graphs))
		for _, g := range graphs {
			graphsByName[g.Name()] = g
		}
		mgr, err := dist.NewManager(dist.ManagerOptions{
			Platforms:    specs,
			Graphs:       graphsByName,
			Artifacts:    cache,
			LeaseTimeout: *leaseTO,
		})
		if err != nil {
			return err
		}
		if err := mgr.Serve(*serveAddr); err != nil {
			return err
		}
		defer mgr.Close()
		bench.Executor = mgr
	}

	fmt.Printf("running %d platforms × %d graphs × %d algorithms\n", len(plats), len(graphs), len(algs))
	// Ctrl-C cancels the campaign context: the running kernel notices
	// within one check stride, in-flight cells come back cancelled (not
	// failed), and successful cells stay in the stamped result store, so
	// re-running the same command resumes. A second Ctrl-C after stop()
	// restores the default handler and kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	rep, err := bench.Run(ctx)
	stopSignals()
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			if stamps == nil {
				return errors.New("interrupted: campaign cancelled (no -resume or -cache-dir: nothing to resume)")
			}
			return fmt.Errorf("interrupted: campaign cancelled, finished cells stamped in %s; re-run the same command to continue", storePath)
		}
		return err
	}
	fmt.Println(rep.Summary())
	fmt.Println(cellCounts(rep.Results))
	if err := writeReport(*outDir, rep); err != nil {
		return err
	}
	if *submitURL != "" {
		id, err := submitReport(*submitURL, *submitter, rep)
		if err != nil {
			return fmt.Errorf("submitting report: %w", err)
		}
		fmt.Printf("submitted to %s as id %d\n", *submitURL, id)
		// With the submission stored, the results database can judge this
		// run against the platform's own history; the verdict becomes the
		// regression/trend section of report.txt.
		trend, err := fetchTrendSection(*submitURL)
		if err != nil {
			slog.Warn("fetching regression trend failed", "url", *submitURL, "err", err)
		} else {
			if err := appendReportSection(*outDir, trend); err != nil {
				return err
			}
			fmt.Print(trend)
		}
	}
	return nil
}

// propertyFlags pairs the properties-file keys with the flags they
// stand in for.
var propertyFlags = []struct{ key, flag string }{
	{"benchmark.run.platforms", "platforms"},
	{"benchmark.run.algorithms", "algorithms"},
	{"benchmark.run.graphs", "graphs"},
	{"benchmark.run.timeout", "timeout"},
	{"benchmark.run.validate", "validate"},
	{"benchmark.run.weighted", "weighted"},
	{"benchmark.run.parallel", "parallel"},
	{"benchmark.run.reps", "reps"},
	{"benchmark.run.warmup", "warmup"},
	{"benchmark.run.retries", "retries"},
	{"benchmark.run.loadworkers", "load-workers"},
	{"benchmark.run.platformworkers", "platform-workers"},
	{"benchmark.output.dir", "out"},
	{"benchmark.cache.dir", "cache-dir"},
	{"benchmark.cache.verify", "cache-verify"},
}

// applyProperties sets every flag the command line left unset from its
// properties key, parsed as the flag parses its own value, so flags
// override properties and properties override defaults. A value the
// flag rejects is an error naming the key.
func applyProperties(fs *flag.FlagSet, props *config.Properties) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, p := range propertyFlags {
		if set[p.flag] || !props.Has(p.key) {
			continue
		}
		v := props.String(p.key, "")
		if err := fs.Set(p.flag, v); err != nil {
			return fmt.Errorf("config: %s = %q: %w", p.key, v, err)
		}
	}
	return nil
}

// stampStorePath picks the campaign's one stamped result store: the
// -resume file if given, else the store inside the artifact cache, else
// none ("").
func stampStorePath(resume string, cache *artifact.Cache) string {
	if resume == "" && cache != nil {
		return cache.StampStorePath()
	}
	return resume
}

// cellCounts renders the driver's cell line: cells executed by this
// campaign versus cells restored uptodate from the stamped result store.
func cellCounts(results []report.RunResult) string {
	var executed, uptodate int
	for _, r := range results {
		if r.Provenance == report.ProvenanceUptodate {
			uptodate++
		} else {
			executed++
		}
	}
	return fmt.Sprintf("cells: %d executed, %d uptodate", executed, uptodate)
}

// fetchTrendSection asks the results database for history-aware
// regressions and renders the report.txt trend section.
func fetchTrendSection(baseURL string) (string, error) {
	resp, err := http.Get(strings.TrimSuffix(baseURL, "/") + "/api/v1/regressions")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("results database returned %s", resp.Status)
	}
	var body struct {
		Checked     int                 `json:"checked"`
		Regressions []report.Regression `json:"regressions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	if tbl := report.RegressionTable(body.Regressions); tbl != "" {
		return "\n" + tbl, nil
	}
	return fmt.Sprintf("\n=== regressions (vs trailing submission history) ===\nnone flagged (%d series checked)\n", body.Checked), nil
}

// appendReportSection appends text to an already-written report.txt.
func appendReportSection(dir, text string) error {
	f, err := os.OpenFile(filepath.Join(dir, "report.txt"), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(text); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statusJSONHandler serves the live campaign progress snapshot.
func statusJSONHandler(tracker *sched.Tracker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tracker.Snapshot())
	})
}

// statusPage is the minimal human view of /status: it polls the JSON
// and renders a progress line plus the per-worker table. No assets, no
// dependencies — one self-contained page.
const statusPage = `<!doctype html>
<html><head><meta charset="utf-8"><title>graphalytics campaign status</title>
<style>
body{font-family:monospace;margin:2em;background:#111;color:#ddd}
table{border-collapse:collapse;margin-top:1em}
td,th{border:1px solid #444;padding:4px 10px;text-align:left}
.bar{background:#333;width:32em;height:1em;display:inline-block}
.fill{background:#4a8;height:100%;display:block}
</style></head>
<body>
<h2>graphalytics campaign</h2>
<div id="line">loading…</div>
<div><span class="bar"><span id="fill" class="fill" style="width:0"></span></span></div>
<table id="workers"><tr><th>worker</th><th>job</th><th>class</th><th>running for</th></tr></table>
<script>
function fmtNs(ns){if(!ns)return"0s";const s=ns/1e9;return s>=60?(s/60).toFixed(1)+"m":s.toFixed(1)+"s"}
async function tick(){
  try{
    const r=await fetch("/status");const s=await r.json();
    const c=s.counts,total=c.total||1,done=c.done+c.failed+c.skipped;
    document.getElementById("line").textContent=
      (s.finished?"finished":"running")+" — "+done+"/"+c.total+" jobs ("+
      c.running+" running, "+c.ready+" ready, "+c.pending+" pending, "+
      c.failed+" failed) · elapsed "+fmtNs(s.elapsed_ns)+" · ETA "+fmtNs(s.eta_ns);
    document.getElementById("fill").style.width=(100*done/total)+"%";
    const t=document.getElementById("workers");
    while(t.rows.length>1)t.deleteRow(1);
    for(const w of s.workers||[]){
      const row=t.insertRow();
      row.insertCell().textContent=w.worker;
      row.insertCell().textContent=w.job_id||"(idle)";
      row.insertCell().textContent=w.class||"";
      row.insertCell().textContent=w.job_id?fmtNs(w.running_for_ns):"";
    }
  }catch(e){document.getElementById("line").textContent="status fetch failed: "+e}
}
tick();setInterval(tick,2000);
</script>
</body></html>
`

// statusPageHandler serves the HTML status page at the listener root.
func statusPageHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(statusPage))
	})
}

// submitReport POSTs the report to a results-database service.
func submitReport(baseURL, submitter string, rep *report.Report) (int64, error) {
	body, err := json.Marshal(resultsdb.Submission{
		Submitter:   submitter,
		Environment: fmt.Sprintf("go/%s %s", runtime.Version(), runtime.GOARCH),
		Report:      rep,
	})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(strings.TrimSuffix(baseURL, "/")+"/api/v1/submissions", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("results database returned %s", resp.Status)
	}
	var created map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		return 0, err
	}
	return created["id"], nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func buildPlatforms(names []string, props *config.Properties, workers int) ([]platform.Platform, error) {
	var out []platform.Platform
	for _, name := range names {
		mem, err := props.Int64("platform."+name+".memory", 0)
		if err != nil {
			return nil, err
		}
		w64, err := props.Int64("platform."+name+".workers", int64(workers))
		if err != nil {
			return nil, err
		}
		w := int(w64)
		switch name {
		case "pregel":
			out = append(out, graphalytics.NewPregel(graphalytics.PregelOptions{MemoryBudget: mem, Workers: w}))
		case "mapreduce":
			out = append(out, graphalytics.NewMapReduce(graphalytics.MapReduceOptions{Workers: w}))
		case "dataflow":
			out = append(out, graphalytics.NewDataflow(graphalytics.DataflowOptions{MemoryBudget: mem, Parts: w}))
		case "graphdb":
			// Single-threaded by design (record-store fidelity): the
			// workers knob intentionally does not reach it.
			out = append(out, graphalytics.NewGraphDB(graphalytics.GraphDBOptions{MemoryBudget: mem}))
		default:
			return nil, fmt.Errorf("unknown platform %q", name)
		}
	}
	return out, nil
}

// platformSpecs derives the lease-borne construction recipes from the
// same properties buildPlatforms reads, so remote runners build engines
// identical to the ones a local campaign would have used.
func platformSpecs(names []string, props *config.Properties, workers int) (map[string]dist.PlatformSpec, error) {
	specs := make(map[string]dist.PlatformSpec, len(names))
	for _, name := range names {
		mem, err := props.Int64("platform."+name+".memory", 0)
		if err != nil {
			return nil, err
		}
		w64, err := props.Int64("platform."+name+".workers", int64(workers))
		if err != nil {
			return nil, err
		}
		specs[name] = dist.PlatformSpec{Name: name, Memory: mem, Workers: int(w64)}
	}
	return specs, nil
}

// parseAlgorithms resolves workload names (or LDBC aliases) through the
// registry, so a newly registered workload is selectable with no parser
// change.
func parseAlgorithms(names []string) ([]algo.Kind, error) {
	var out []algo.Kind
	for _, n := range names {
		s, err := workload.Parse(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s.Kind)
	}
	return out, nil
}

// buildGraphs materializes the graph specs, timing each build through
// core.Ingest so the report carries the load phase (time + EVPS) of
// every dataset next to its processing times. loadWorkers threads the
// -load-workers parallelism into the file loader and the generators
// (0 = all cores, 1 = the sequential paths).
//
// Generated specs (social, rmat, surrogates) carry a dataset fingerprint
// over their generator identity; with a cache configured, the generated
// graph is stored under that fingerprint and later builds restore it
// instead of regenerating (ingest Source then reads "cache:<spec>"). The
// returned map feeds core.Benchmark.GraphStamps so matrix cells share
// the same dataset identity. File graphs have no generator identity and
// fall back to content hashing inside core.
func buildGraphs(specs []string, seed uint64, weighted bool, loadWorkers int, cache *artifact.Cache) ([]*graph.Graph, []report.IngestStat, map[string]stamp.Fingerprint, error) {
	var out []*graph.Graph
	var ingests []report.IngestStat
	graphStamps := make(map[string]stamp.Fingerprint)
	for _, spec := range specs {
		kind, arg, _ := strings.Cut(spec, ":")
		var build func() (*graph.Graph, error)
		var fp stamp.Fingerprint
		switch kind {
		case "social":
			n, err := strconv.Atoi(arg)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("graph spec %q: %w", spec, err)
			}
			name := fmt.Sprintf("social-%d", n)
			fp = stamp.Dataset("social", datagen.Config{
				Persons: n, Seed: seed, Weighted: weighted, Name: name,
			}.Stamp())
			build = func() (*graph.Graph, error) {
				g, err := graphalytics.GenerateSocialNetworkConfig(graphalytics.DatagenConfig{
					Persons: n, Seed: seed, Weighted: weighted, Workers: loadWorkers,
				})
				if err != nil {
					return nil, err
				}
				g.SetName(name)
				return g, nil
			}
		case "rmat":
			scale, err := strconv.Atoi(arg)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("graph spec %q: %w", spec, err)
			}
			fp = stamp.Dataset("rmat", rmat.Config{
				Scale: scale, Seed: seed, Weighted: weighted,
			}.Stamp())
			build = func() (*graph.Graph, error) {
				return graphalytics.GenerateRMATConfig(graphalytics.RMATConfig{
					Scale: scale, Seed: seed, Weighted: weighted, Workers: loadWorkers,
				})
			}
		case "file":
			build = func() (*graph.Graph, error) {
				return graphalytics.LoadGraphOpts(arg, "", graphalytics.LoadOptions{Workers: loadWorkers})
			}
		case "amazon", "youtube", "livejournal", "patents", "wikipedia":
			div := 0
			if arg != "" {
				d, err := strconv.Atoi(arg)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("graph spec %q: %w", spec, err)
				}
				div = d
			}
			sspec, err := surrogate.Find(kind)
			if err != nil {
				return nil, nil, nil, err
			}
			fp = stamp.Dataset("surrogate", surrogate.Stamp(sspec, surrogate.Options{ScaleDiv: div}))
			build = func() (*graph.Graph, error) { return graphalytics.GenerateSurrogate(kind, div) }
		default:
			return nil, nil, nil, fmt.Errorf("unknown graph spec %q", spec)
		}
		cached := false
		wrapped := func() (*graph.Graph, error) {
			if cache != nil && !fp.IsZero() {
				g, hit, cerr := cache.LoadGraph(fp, loadWorkers)
				if cerr != nil {
					slog.Warn("corrupt cached graph artifact; regenerating", "spec", spec, "err", cerr)
				} else if hit {
					cached = true
					return g, nil
				}
			}
			g, err := build()
			if err != nil {
				return nil, err
			}
			if cache != nil && !fp.IsZero() {
				if serr := cache.StoreGraph(fp, g); serr != nil {
					slog.Warn("storing graph artifact failed", "spec", spec, "err", serr)
				}
			}
			return g, nil
		}
		g, stat, err := core.Ingest(spec, loadWorkers, wrapped)
		if err != nil {
			return nil, nil, nil, err
		}
		if cached {
			stat.Source = "cache:" + spec
		}
		if !fp.IsZero() {
			graphStamps[g.Name()] = fp
		}
		out = append(out, g)
		ingests = append(ingests, stat)
	}
	return out, ingests, graphStamps, nil
}

func writeReport(dir string, rep *report.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ingest := report.IngestTable(rep.Ingests)
	if ingest != "" {
		ingest += "\n"
	}
	f4 := ingest + report.Figure4Table(rep.Results)
	f5 := report.Figure5Table(rep.Results)
	for _, r := range rep.Results {
		// The weighted-workload throughput table rides along when the
		// campaign ran SSSP.
		if r.Algorithm == algo.SSSP {
			f5 += "\n" + report.KTEPSTable(rep.Results, algo.SSSP)
			break
		}
	}
	if res := report.ResourceTable(rep.Results); res != "" {
		f5 += "\n" + res
	}
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), []byte(f4+"\n"+f5), 0o644); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, "results.csv"))
	if err != nil {
		return err
	}
	if err := report.WriteCSV(csv, rep.Results); err != nil {
		csv.Close()
		return err
	}
	if err := csv.Close(); err != nil {
		return err
	}
	js, err := os.Create(filepath.Join(dir, "report.json"))
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(js); err != nil {
		js.Close()
		return err
	}
	if err := js.Close(); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", dir)
	fmt.Println()
	fmt.Print(f4)
	fmt.Println(f5)
	return nil
}
