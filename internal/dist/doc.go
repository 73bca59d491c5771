// Package dist distributes a benchmark campaign across processes: a
// manager leases matrix cells to runner processes over a streamed,
// length-prefixed JSON protocol, and merges the results they stream
// back through the same deterministic collation a local campaign uses.
//
// The manager side (Manager) implements core.CellExecutor, so the
// campaign engine in internal/core is shared verbatim between local and
// distributed execution — restore, stamping, retry
// classification, and report collation all behave identically; only the
// mechanism that turns one pending cell into a report row differs. The
// runner side (Runner) executes each lease as a single-cell local
// campaign with the manager's binary identity and dataset fingerprints,
// which makes remote results content-addressed under exactly the stamps
// a local run would have produced.
//
// The wire protocol is five message kinds — hello, lease, progress,
// result, bye — plus fetch/blob for the remote artifact store: a runner
// that misses a graph or ETL artifact in its local content-addressed
// cache fetches it from the manager over the same connection and stores
// it for future leases and future campaigns. Fault tolerance is
// lease-scoped: a runner that disconnects or stops sending progress has
// its in-flight cells re-queued for other runners, and stale results
// from resurrected runners are dropped, so every cell lands in the
// report exactly once. See docs/ARCHITECTURE.md for the protocol
// specification and docs/OPERATIONS.md for how to operate a distributed
// campaign.
package dist
