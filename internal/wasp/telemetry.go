package wasp

import (
	"fmt"

	"repro/internal/obs"
)

// RegisterMetrics attaches this runtime's telemetry to a metrics
// registry as pull-model collectors, sampled only at Snapshot time:
// the shared code-cache and compiled-tier counters (CodeCacheStats),
// the per-platform snapshot-forest state (ForestStats), warm-pool
// occupancy, and the async cleaner's lifetime counters.
//
// The individual accessors — CodeCacheStats, ForestStats, PoolStatsFor,
// PoolImageStats, Cleaner's counters — remain supported for callers
// that want typed structs; the registry is the aggregation point new
// tooling should prefer, because it presents every subsystem under one
// namespace with one consistency point.
func (w *Wasp) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.RegisterCollector(func(emit func(string, float64)) {
		cs := w.CodeCacheStats()
		emit("wasp_code_entries", float64(cs.Entries))
		emit("wasp_code_merges", float64(cs.Merges))
		emit("wasp_jit_blocks_compiled", float64(cs.BlocksCompiled))
		emit("wasp_jit_block_hits", float64(cs.BlockHits))
		emit("wasp_jit_block_deopts", float64(cs.BlockDeopts))
		emit("wasp_jit_loop_retired", float64(cs.LoopRetired))
		emit("wasp_pool_total", float64(w.PoolTotal()))
		emit("wasp_pool_dropped", float64(w.PoolDropped()))
		for _, p := range w.Platforms() {
			name := p.Name()
			fs := w.ForestStatsOn(name)
			emit(fmt.Sprintf("wasp_forest_store_pages{platform=%s}", name), float64(fs.StorePages))
			emit(fmt.Sprintf("wasp_forest_store_bytes{platform=%s}", name), float64(fs.StoreBytes))
			emit(fmt.Sprintf("wasp_forest_dedup_hits{platform=%s}", name), float64(fs.DedupHits))
			emit(fmt.Sprintf("wasp_forest_base_layers{platform=%s}", name), float64(fs.BaseLayers))
			emit(fmt.Sprintf("wasp_forest_snapshots{platform=%s}", name), float64(fs.Snapshots))
			emit(fmt.Sprintf("wasp_forest_delta_snapshots{platform=%s}", name), float64(fs.DeltaSnapshots))
			emit(fmt.Sprintf("wasp_pool_shells{platform=%s}", name), float64(w.PoolTotalOn(name)))
			if c := w.CleanerOn(name); c != nil {
				emit(fmt.Sprintf("wasp_clean_enqueued{platform=%s}", name), float64(c.Enqueued()))
				emit(fmt.Sprintf("wasp_clean_cleaned{platform=%s}", name), float64(c.Cleaned()))
				emit(fmt.Sprintf("wasp_clean_inline_reclaims{platform=%s}", name), float64(c.InlineReclaims()))
				emit(fmt.Sprintf("wasp_clean_dropped{platform=%s}", name), float64(c.Dropped()))
				emit(fmt.Sprintf("wasp_clean_pending{platform=%s}", name), float64(c.Pending()))
			}
		}
	})
}
