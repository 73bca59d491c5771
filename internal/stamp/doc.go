// Package stamp implements content-addressed fingerprints for the
// incremental campaign engine: every matrix cell, dataset, and ETL
// artifact is identified by a SHA-256 over its inputs (graph content or
// generator parameters, workload spec and validation policy, platform
// name and configuration including the worker budget, and the binary /
// kernel version). Equal fingerprints mean "re-running would reproduce
// this result", so the harness can mark unchanged cells UPTODATE and
// restore their report entries instead of executing kernels — the
// BuildStamp/UPTODATE shape of incremental build graphs applied to the
// benchmark matrix. Any single changed input changes the fingerprint
// and re-executes exactly the affected cells.
//
// The fingerprint functions are pure derivations over explicit inputs:
// Cell for one matrix cell, Dataset for a generated graph's parameters,
// OfGraph for a graph's content, ETL for a platform's transformed form
// of a dataset, and BinaryVersion for the running binary's identity
// (module version plus VCS revision, so two binaries built from the
// same tree agree). Store is the durable side and the campaign's only
// cell-result store: an append-only JSONL file ("stamps.jsonl" in the
// artifact cache, or the driver's -resume file) mapping fingerprints to
// successful cell results, crash-tolerant and last-write-wins on
// replay. Resuming an interrupted campaign is restoring from it.
//
// Fingerprints are also the distribution currency: distributed
// campaigns (internal/dist) ship them in leases so runner processes
// stamp results and address artifacts under exactly the identity the
// campaign manager computed.
package stamp
