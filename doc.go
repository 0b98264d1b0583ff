// Package plasmahd is a from-scratch Go reproduction of PLASMA-HD —
// "Probing the LAttice Structure and MAkeup of High-dimensional Data"
// (Fuhry; demo at VLDB 2013, full system in the 2015 OSU dissertation) —
// together with every substrate the system depends on: a BayesLSH-style
// all-pairs similarity engine with knowledge caching (chapter 2), graph
// measure prediction over densifying graphs (chapter 3), the LAM
// linearithmic pattern miner used as a compressibility/clusterability
// estimator (chapter 4), and parallel-coordinates dimension ordering and
// energy-based de-cluttering (chapter 5).
//
// The implementation lives under internal/; cmd/plasma is the interactive
// probing shell, cmd/plasmabench regenerates every table and figure of the
// paper's evaluation, cmd/plasmad serves probe sessions to many clients
// over HTTP/JSON (docs/API.md), and examples/ holds runnable walkthroughs.
// docs/ARCHITECTURE.md maps the packages and the probe data flow.
//
// # Concurrency model
//
// The probe hot path is parallel end to end. bayeslsh.NewCache sketches
// the dataset across the same worker pool (signatures are byte-identical
// for any worker count). bayeslsh.Search keeps candidate generation
// sequential — it replays a persistent CSR candidate index built once on
// the cache's first probe, or, once a row's stored run is known to be
// exactly its candidates under the current stop-word cap, walks that run
// instead — but shards candidate evaluation, the hash-comparison, prune,
// and estimate loop, across a worker pool sized by
// bayeslsh.Params.Workers (0 = runtime.GOMAXPROCS). Outcomes are merged
// back in row order, so a probe returns byte-identical pair sets and cost
// counters for any worker count; only wall time changes. Both CLIs expose
// the knob as -workers. Repeat probes on a warm cache walk the runs and
// reuse a pooled probe scratch, allocating near-zero.
//
// What is safe to share: a bayeslsh.Cache (and therefore a core.Session)
// may serve concurrent probes. The dataset sketches and decision tables
// are immutable after construction, and the memoized pair states live in
// a PairStore that files each pair under its larger row, in a per-row run
// behind one lock: a probe worker owns whole rows and reads and writes a
// row's evidence under one lock per row, not per pair. Writes to the
// store are monotone — when two probes race on the same pair, the state
// carrying more evidence (exact > done > more hashes) wins — so
// concurrency can only deepen the knowledge cache, never corrupt or
// regress it. It also cannot change where the cache ends up: a probe
// tests each pair's stored evidence against its own prune bound before it
// compares a hash, so after any probes — any order, repeated, overlapping
// — the cache holds exactly what one cold probe at the lowest threshold
// would have left, and a repeat or higher probe compares nothing. Only a
// probe's own pair list may differ from a serial schedule's: pairs a
// deeper overlapping probe has already finished can appear in it early.
//
// The cumulative APSS curve and the incremental snapshots do not fan out:
// bayeslsh.Cache.MassAbove counts the cached pairs per distinct evidence
// state in one integer pass and pays the Beta tail once per state, so
// equal stores give bit-equal curves for any worker count. The uncached
// baseline arms of KnowledgeCachingWorkload and RunInteractiveScenario
// deliberately stay sequential on identical engine settings so their
// timing columns compare like for like with the cached arm.
//
// # Serving
//
// cmd/plasmad exposes sessions as a multi-tenant HTTP service: named
// sessions with capacity-bounded LRU eviction of idle ones, singleflight
// coalescing of duplicate in-flight probes, and JSON endpoints for the
// probe/curve/cues loop of Fig 2.1. internal/server holds the manager and
// handlers; docs/API.md documents every endpoint and is kept in lock-step
// with the route table by a test.
//
// Knowledge caches are durable: a session's state is its knowledge cache,
// which snapshots to one versioned, CRC-checked binary format (the bayeslsh
// codec), and plasmad -state-dir saves on shutdown, warm-starts on boot, and
// spills-then-revives on capacity eviction. Restores are deterministic —
// a probe after restart returns exactly the bytes an uninterrupted
// session would have produced.
//
// # Enforced invariants
//
// The determinism and trust-boundary rules above are not prose-only:
// cmd/plasmalint (engine in internal/lint, run as "make lint", ci tier
// 1b) statically enforces the bug classes this repo has shipped fixes
// for and that the code's structure does not rule out — map-iteration
// order leaking into results, function-style atomics (which allow mixed
// atomic/plain access), decoders preallocating from untrusted lengths, and
// error responses bypassing the JSON envelope. Where structure can carry
// the invariant it does: plasmad's JSON handlers return values and never
// hold a ResponseWriter, one helper owns the goroutine behind a detached
// probe, and a session has one append lock, its knowledge cache's. See the
// "Invariants and lint" section of docs/ARCHITECTURE.md.
package plasmahd

// Version identifies this reproduction.
const Version = "1.0.0"
