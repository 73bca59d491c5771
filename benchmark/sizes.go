package main

import (
	"encoding/hex"
	"fmt"
	"io"

	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/gen/rmat"
	"graphalytics/internal/graph"
)

// sizes fixes how much work a round of each workload is. They are constants
// of the benchmark, not flags: a number measured at one size says nothing
// about a number measured at another.
type sizes struct {
	// mem_social / mem_rmat: the light algorithms run on a larger graph than
	// the heavy ones (STATS, CD, LCC), or the heavy three would be nine tenths
	// of every round and the light five lost in its noise.
	socialLight, socialHeavy int // Datagen persons
	rmatLight, rmatHeavy     int // R-MAT scale
	mrPersons                int // mr_social: Datagen persons

	ingestPersons, ingestScale int // ingest_pipeline: Datagen persons (weighted), R-MAT scale

	incPersons, incScale int // campaign_incremental: the two graphs of the matrix
	incFleetStamps       int // stamps of other campaigns sharing the store
	incCycle             int // passes per round; the last re-runs PageRank with a new parameter

	readSubmissions, readBatch int // results_read: reports in the store, requests per round
	submitSeeded, submitBatch  int // results_submit: reports in the store file, POSTs per round

	setupBudget float64 // seconds of set-ups a run times before it takes their median
}

// fullSizes were tuned on a 2-core box so that a round takes one to two
// seconds where it runs kernels, and a set-up about a second or less.
var fullSizes = sizes{
	socialLight: 16000, socialHeavy: 2500,
	rmatLight: 14, rmatHeavy: 11,
	mrPersons:     1500,
	ingestPersons: 24000, ingestScale: 14,
	incPersons: 1000, incScale: 9, incFleetStamps: 1500, incCycle: 4,
	readSubmissions: 300, readBatch: 500,
	submitSeeded: 40, submitBatch: 20,
	setupBudget: 1.5,
}

// tinySizes keep the benchmark's own tests to a few seconds.
var tinySizes = sizes{
	socialLight: 400, socialHeavy: 200,
	rmatLight: 8, rmatHeavy: 7,
	mrPersons:     150,
	ingestPersons: 500, ingestScale: 8,
	incPersons: 200, incScale: 7, incFleetStamps: 50, incCycle: 4,
	readSubmissions: 12, readBatch: 60,
	submitSeeded: 4, submitBatch: 4,
}

// genWorkers pins generator parallelism, so that a graph does not depend on
// the machine's core count even if a generator's chunking ever does.
const genWorkers = 2

// subSeed derives the seed of the k-th input of a run from the run's seed.
func subSeed(seed uint64, k int) uint64 { return seed*1000003 + uint64(k) }

func genSocial(root spanRef, name string, persons int, seed uint64, weighted bool) (*graph.Graph, error) {
	sp := root.child("gen.datagen", 0)
	defer sp.end()
	return datagen.Generate(datagen.Config{Persons: persons, Seed: seed, Workers: genWorkers, Name: name, Weighted: weighted})
}

func genRMAT(root spanRef, name string, scale int, seed uint64) (*graph.Graph, error) {
	sp := root.child("gen.rmat", 0)
	defer sp.end()
	return rmat.Generate(rmat.Config{Scale: scale, Seed: seed, Workers: genWorkers, Name: name, Weighted: true})
}

// describeGraph logs a generated input: the same seed must give the same
// line on any machine.
func describeGraph(logw io.Writer, g *graph.Graph) {
	if logw == io.Discard {
		return
	}
	hash := "?"
	if h, err := g.ContentHash(); err == nil {
		hash = hex.EncodeToString(h[:8])
	}
	fmt.Fprintf(logw, "benchmark: graph %-14s V=%d E=%d footprint=%d B hash=%s\n",
		g.Name(), g.NumVertices(), g.NumEdges(), g.MemoryFootprint(), hash)
}
