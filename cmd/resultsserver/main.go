// Command resultsserver hosts the Graphalytics results database
// (Figure 2: "a database for Results that is hosted by us online and
// accepts results submissions from Graphalytics users").
//
// Usage:
//
//	resultsserver -addr :8080 -store results.jsonl
//
// The benchmark driver submits with:
//
//	graphalytics -submit http://host:8080 ...
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"

	"graphalytics/internal/resultsdb"
	"graphalytics/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "resultsserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		store     = flag.String("store", "results.jsonl", "submission log, one JSON submission per line (empty = memory only)")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	flag.Parse()
	if err := telemetry.SetupLogging(nil, *logFormat, *logLevel); err != nil {
		return err
	}

	var db *resultsdb.Store
	var err error
	if *store == "" {
		db = resultsdb.NewStore()
	} else {
		db, err = resultsdb.OpenStore(*store)
		if err != nil {
			return err
		}
	}
	requests := telemetry.Metrics.Counter("resultsserver_requests_total", "HTTP requests served")
	api := db.Handler()
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Metrics.Handler())
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		api.ServeHTTP(w, r)
	}))
	slog.Info("results database listening", "addr", *addr, "store", storeDesc(*store))
	return http.ListenAndServe(*addr, mux)
}

func storeDesc(path string) string {
	if path == "" {
		return "memory"
	}
	return path
}
