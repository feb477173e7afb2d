package factorgraph

import "factorgraph/internal/telemetry"

// Engine-level metric handles on the process registry. They complement the
// per-engine EngineStats counters: EngineStats is the per-instance view
// tests and the admin endpoint read, these are the process-wide series
// /metrics exports. Durations that happen under (or waiting for) the
// engine locks use MicroBuckets — they are expected to be micro-scale, and
// a fat tail here is exactly the lock-contention signal the sharding
// roadmap item needs.
var (
	engQueries = telemetry.Default().Counter("fg_engine_queries_total",
		"Classification queries answered.")
	engPropagations = telemetry.Default().Counter("fg_engine_propagations_total",
		"Full LinBP solves (cold residual initializations; what-ifs never add one).")
	engEstimations = telemetry.Default().Counter("fg_engine_estimations_total",
		"Compatibility estimations run.")
	engLabelPatches = telemetry.Default().Counter("fg_engine_label_patches_total",
		"Label-update batches applied.")
	engEdgeMutations = telemetry.Default().Counter("fg_engine_edge_mutations_total",
		"Streamed edge mutations applied (upserts + removals).")
	engSketchApplies = telemetry.Default().Counter("fg_engine_sketch_delta_applies_total",
		"Edge mutations folded incrementally into the cached DCEr sketches.")

	hPropagation = telemetry.Default().Histogram("fg_engine_propagation_seconds",
		"Full LinBP solve duration.", nil)

	// Patch phases by kind: lock_wait is entry-to-write-lock (patchMu plus
	// mu, i.e. what a mutator waits behind), flush is the copy-on-write
	// drain outside the locks, apply is the re-lock plus row/pointer swap.
	hPatchLockWaitLabel = telemetry.Default().Histogram("fg_engine_patch_lock_wait_seconds",
		"Mutation entry-to-write-lock wait.", telemetry.MicroBuckets, telemetry.Labels{"kind": "label"})
	hPatchLockWaitTopo = telemetry.Default().Histogram("fg_engine_patch_lock_wait_seconds",
		"Mutation entry-to-write-lock wait.", telemetry.MicroBuckets, telemetry.Labels{"kind": "topology"})
	hPatchFlushLabel = telemetry.Default().Histogram("fg_engine_patch_flush_seconds",
		"Copy-on-write patch flush (no engine lock held).", nil, telemetry.Labels{"kind": "label"})
	hPatchFlushTopo = telemetry.Default().Histogram("fg_engine_patch_flush_seconds",
		"Copy-on-write patch flush (no engine lock held).", nil, telemetry.Labels{"kind": "topology"})
	hPatchApplyLabel = telemetry.Default().Histogram("fg_engine_patch_apply_seconds",
		"Patch apply: write-lock re-acquisition plus row/pointer swap.", telemetry.MicroBuckets, telemetry.Labels{"kind": "label"})
	hPatchApplyTopo = telemetry.Default().Histogram("fg_engine_patch_apply_seconds",
		"Patch apply: write-lock re-acquisition plus row/pointer swap.", telemetry.MicroBuckets, telemetry.Labels{"kind": "topology"})

	engCompactionsSync = telemetry.Default().Counter("fg_engine_compactions_total",
		"Delta-overlay compactions installed, by build mode.", telemetry.Labels{"mode": "sync"})
	engCompactionsAsync = telemetry.Default().Counter("fg_engine_compactions_total",
		"Delta-overlay compactions installed, by build mode.", telemetry.Labels{"mode": "async"})
	hCompactSync = telemetry.Default().Histogram("fg_engine_compaction_seconds",
		"Compaction duration (merge + rho(W) + install), by build mode.", nil, telemetry.Labels{"mode": "sync"})
	hCompactAsync = telemetry.Default().Histogram("fg_engine_compaction_seconds",
		"Compaction duration (merge + rho(W) + install), by build mode.", nil, telemetry.Labels{"mode": "async"})
	hEpochSwap = telemetry.Default().Histogram("fg_engine_epoch_swap_seconds",
		"Write-lock hold of a compaction epoch swap (installEpoch critical section).", telemetry.MicroBuckets)
)
