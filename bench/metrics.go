package main

// metricDef names one reported metric and its unit. The two tables below
// are the program's half of the contract in BENCHMARK.json; bench_test.go
// asserts the two agree name for name and unit for unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of the untraced pass. Every
// workload reports every one (each script contains every operation class;
// the workload decides which dominate). README.md has the glossary.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"requests_per_s", "1/s"},
	{"first_answer_s", "s"},
	{"probe_p50_ms", "ms"},
	{"curve_ms", "ms"},
	{"cues_cold_ms", "ms"},
	{"snapshot_s", "s"},
	{"restore_s", "s"},
	{"snapshot_bytes_per_pair", "B"},
	{"ingest_rows_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"revive_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced pass's metrics, layer = package name.
var perLayer = []metricDef{
	// lsh: sketch and match kernels on the workload's own rows.
	{"lsh.minhash_ns_per_nnz", "ns"},
	{"lsh.srp_ns_per_nnz", "ns"},
	{"lsh.match_packed_32_ns", "ns"},
	{"lsh.match_packed_256_ns", "ns"},
	{"lsh.match_u32_32_ns", "ns"},
	{"lsh.match_u32_256_ns", "ns"},
	// vec: exact verification (BayesLSH-Lite).
	{"vec.similarity_ns", "ns"},
	// bayeslsh: the engine on a shadow Cache.
	{"bayeslsh.newcache_s", "s"},
	{"bayeslsh.cold_probe_s", "s"},
	{"bayeslsh.warm_probe_s", "s"},
	{"bayeslsh.hit_probe_s", "s"},
	{"bayeslsh.ns_per_candidate", "ns"},
	{"bayeslsh.append_rows_per_s", "1/s"},
	{"bayeslsh.pairstore_get_ns", "ns"},
	{"bayeslsh.pairstore_update_ns", "ns"},
	{"bayeslsh.encode_mb_per_s", "MB/s"},
	{"bayeslsh.decode_mb_per_s", "MB/s"},
	{"bayeslsh.candidates", "count"},
	{"bayeslsh.pruned", "count"},
	{"bayeslsh.cache_hits", "count"},
	{"bayeslsh.hashes_compared", "count"},
	{"bayeslsh.pairs_emitted", "count"},
	{"bayeslsh.cached_pairs", "count"},
	{"bayeslsh.index_rebuilds", "count"},
	{"bayeslsh.sketch_share", "ratio"},
	{"bayeslsh.yield", "ratio"},
	{"bayeslsh.hashes_per_candidate", "count"},
	{"bayeslsh.probe_allocs", "count"},
	{"bayeslsh.heap_bytes_per_pair", "B"},
	// core: session-level self times.
	{"core.probe_self_ms", "ms"},
	{"core.curve_ns_per_pair_point", "ns"},
	{"core.cueset_cold_ms", "ms"},
	{"core.cueset_hit_us", "us"},
	{"core.cue_hit_ratio", "ratio"},
	{"core.snapshot_self_ms", "ms"},
	{"core.restore_self_ms", "ms"},
	{"core.append_self_ms", "ms"},
	// graph: cue kernels on the threshold graph.
	{"graph.triangles_ms", "ms"},
	{"graph.cores_ms", "ms"},
	{"graph.components_ms", "ms"},
	// server: handler self times per route class, and daemon counters.
	{"server.create_self_ms", "ms"},
	{"server.decode_mb_per_s", "MB/s"},
	{"server.probe_self_us", "us"},
	{"server.read_self_us", "us"},
	{"server.curve_self_us", "us"},
	{"server.append_self_ms", "ms"},
	{"server.snapshot_self_ms", "ms"},
	{"server.restore_self_ms", "ms"},
	{"server.proxy_hop_us", "us"},
	{"server.spill_ms", "ms"},
	{"server.revive_self_ms", "ms"},
	{"server.evictions", "count"},
	{"server.spills", "count"},
	{"server.revives", "count"},
	{"server.proxied", "count"},
	{"server.coalesced", "count"},
	{"server.http_5xx", "count"},
	{"server.rate_limited", "count"},
	// net: what the wire and the process boundary add to a request.
	{"net.read_overhead_us", "us"},
	// blob, ring, metrics.
	{"blob.put_mb_per_s", "MB/s"},
	{"blob.get_mb_per_s", "MB/s"},
	{"ring.owner_ns", "ns"},
	{"metrics.scrape_us", "us"},
	// Attribution: share of client-observed time by layer self time.
	{"share.net_pct", "%"},
	{"share.server_pct", "%"},
	{"share.core_pct", "%"},
	{"share.bayeslsh_pct", "%"},
	{"share.lsh_pct", "%"},
	{"share.graph_pct", "%"},
	{"share.blob_pct", "%"},
	{"share.attributed_pct", "%"},
	{"share.first_answer_setup_pct", "%"},
	// bench: the harness itself.
	{"bench.gen_s", "s"},
	{"bench.loadgen_cpu_share", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}
