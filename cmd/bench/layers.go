package main

// perLayer declares every per-layer metric of the traced run, grouped by
// the module whose exported functions the ladder times from outside. moves
// is the interaction note: the end-to-end metric (workload/metric) the
// number is expected to move if that layer changes. BENCHMARK.json carries
// name, unit and direction; the README carries this table in full.
var perLayer = []metricDef{
	// sparse — kernels on the kernel graph's CSR (U200k: memory-resident),
	// with a 3- and a 5-column right-hand side.
	{name: "sparse.spmm_k3_ms", unit: "ms", better: "lower", moves: "cold_pipeline/main_p50_ms"},
	{name: "sparse.spmm_k3_gbps", unit: "GB/s", better: "higher", moves: "cold_pipeline/main_p50_ms"},
	{name: "sparse.spmm_simple_k3_ms", unit: "ms", better: "lower", moves: "reference scan; nothing end to end"},
	{name: "sparse.spmm_k5_ms", unit: "ms", better: "lower", moves: "cold_pipeline/side_p50_ms"},
	{name: "sparse.spmm_k5_gbps", unit: "GB/s", better: "higher", moves: "cold_pipeline/side_p50_ms"},
	{name: "sparse.spmm_f32_k3_ms", unit: "ms", better: "lower", moves: "nothing timed: decides the float32 tier's fate"},
	{name: "sparse.triad_gbps", unit: "GB/s", better: "higher", moves: "the host's roofline, not the repo's"},
	{name: "sparse.spmm_roofline_share", unit: "ratio", better: "higher", moves: "cold_pipeline/main_p50_ms"},
	{name: "sparse.csr_build_ms", unit: "ms", better: "lower", moves: "*/setup_s, mutate_stream/main_tail_ms"},
	{name: "sparse.spectral_radius_ms", unit: "ms", better: "lower", moves: "*/setup_s, mutate_stream/main_tail_ms"},

	// core — the paper's estimator: sketches, then the optimisation.
	{name: "core.summarize_ms", unit: "ms", better: "lower", moves: "cold_pipeline/main_p50_ms"},
	{name: "core.summarize_k5_ms", unit: "ms", better: "lower", moves: "cold_pipeline/side_p50_ms"},
	{name: "core.summarize_ns_per_edge_l", unit: "ns", better: "lower", moves: "cold_pipeline/main_p50_ms"},
	{name: "core.optimize_ms", unit: "ms", better: "lower", moves: "cold_pipeline/main_p50_ms"},
	{name: "core.optimize_k5_ms", unit: "ms", better: "lower", moves: "cold_pipeline/side_p50_ms"},
	{name: "core.estimate_share", unit: "ratio", better: "lower", moves: "cold_pipeline/main_p50_ms"},
	{name: "core.reestimate_ms", unit: "ms", better: "lower", moves: "no timed path; recorded for ROADMAP item 3"},

	// propagation — dense LinBP, ten iterations.
	{name: "propagation.linbp_ms", unit: "ms", better: "lower", moves: "cold_pipeline/main_p50_ms"},
	{name: "propagation.linbp_k5_ms", unit: "ms", better: "lower", moves: "cold_pipeline/side_p50_ms"},
	{name: "propagation.linbp_ns_per_edge_iter", unit: "ns", better: "lower", moves: "cold_pipeline/main_p50_ms"},

	// engine — the root package's Engine.
	{name: "engine.build_ms", unit: "ms", better: "lower", moves: "serve_read/setup_s"},
	{name: "engine.first_query_ms", unit: "ms", better: "lower", moves: "serve_read/setup_s"},
	{name: "engine.classify_point_us", unit: "us", better: "lower", moves: "serve_read/main_p50_ms"},
	{name: "engine.classify_all_ms", unit: "ms", better: "lower", moves: "serve_read/side_p50_ms"},
	{name: "engine.patch_self_ms", unit: "ms", better: "lower", moves: "serve_mixed/main_p50_ms"},
	{name: "engine.patch_lock_wait_ms", unit: "ms", better: "lower", moves: "serve_mixed/main_p50_ms"},
	{name: "engine.mutate_self_ms", unit: "ms", better: "lower", moves: "mutate_stream/main_p50_ms"},
	{name: "engine.mutate_lock_wait_ms", unit: "ms", better: "lower", moves: "mutate_stream/main_p50_ms"},
	{name: "engine.read_beside_write_p99_ms", unit: "ms", better: "lower", moves: "mutate_stream/side_p50_ms"},

	// residual / exec — the push subsystem, used as a write (Patch) and as
	// a copy-on-write read (Overlay).
	{name: "residual.patch_flush_ms", unit: "ms", better: "lower", moves: "serve_mixed/main_p50_ms"},
	{name: "residual.patch_pushes", unit: "count", better: "lower", moves: "serve_mixed/main_p50_ms"},
	{name: "residual.patch_edges", unit: "count", better: "lower", moves: "serve_mixed/main_p50_ms"},
	{name: "residual.patch_fellback_share", unit: "ratio", better: "lower", moves: "serve_mixed/main_tail_ms"},
	{name: "exec.ns_per_edge", unit: "ns", better: "lower", moves: "serve_mixed/main_p50_ms"},
	{name: "residual.whatif_ms", unit: "ms", better: "lower", moves: "serve_mixed/side_p50_ms"},
	{name: "residual.whatif_pushes", unit: "count", better: "lower", moves: "serve_mixed/side_p50_ms"},
	{name: "residual.whatif_cloned_rows", unit: "count", better: "lower", moves: "serve_mixed/side_p50_ms"},
	{name: "residual.whatif_cached_us", unit: "us", better: "lower", moves: "no workload: the overlay cache hit path"},
	{name: "residual.flush_over_dense", unit: "ratio", better: "lower", moves: "serve_mixed/main_p50_ms"},

	// delta — the topology overlay and its compaction.
	{name: "delta.mutate_flush_ms", unit: "ms", better: "lower", moves: "mutate_stream/main_p50_ms"},
	{name: "delta.compact_ms", unit: "ms", better: "lower", moves: "mutate_stream/main_tail_ms"},
	{name: "delta.compactions", unit: "count", better: "lower", moves: "mutate_stream/throughput_per_s"},
	{name: "delta.overlay_fraction_max", unit: "ratio", better: "lower", moves: "mutate_stream/main_tail_ms"},
	{name: "delta.set_edge_us", unit: "us", better: "lower", moves: "mutate_stream/main_p50_ms"},

	// serve / registry / telemetry / http — everything outside the engine.
	{name: "serve.point_self_us", unit: "us", better: "lower", moves: "serve_read/main_p50_ms"},
	{name: "serve.stream_self_ms", unit: "ms", better: "lower", moves: "serve_read/side_p50_ms"},
	{name: "serve.stream_ns_per_record", unit: "ns", better: "lower", moves: "serve_read/side_p50_ms"},
	{name: "serve.stream_bytes", unit: "bytes", better: "lower", moves: "serve_read/side_p50_ms"},
	{name: "serve.patch_self_us", unit: "us", better: "lower", moves: "serve_mixed/main_p50_ms (< 1 %: predict no change)"},
	{name: "serve.mutate_self_us", unit: "us", better: "lower", moves: "mutate_stream/main_p50_ms (< 1 %: predict no change)"},
	{name: "registry.acquire_ns", unit: "ns", better: "lower", moves: "serve_read/main_p50_ms"},
	{name: "telemetry.point_overhead_us", unit: "us", better: "lower", moves: "serve_read/main_p50_ms"},
	{name: "http.point_self_us", unit: "us", better: "lower", moves: "serve_read/main_p50_ms (net/http floor)"},
	{name: "http.stream_self_ms", unit: "ms", better: "lower", moves: "serve_read/side_p50_ms (net/http floor)"},

	// set-up and the benchmark itself.
	{name: "gen.generate_ms", unit: "ms", better: "lower", moves: "nothing: benchmark work, excluded from setup_s"},
	{name: "bench.reader_late_p99_ms", unit: "ms", better: "lower", moves: "validity of mutate_stream/side_p50_ms"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower", moves: "validity of the ladder"},
}
