package wasp

import (
	"fmt"

	"repro/internal/obs"
)

// RegisterMetrics attaches this runtime's telemetry to a metrics
// registry as pull-model collectors, sampled only at Snapshot time:
// the shared code-cache and compiled-tier counters (CodeCacheStats),
// the per-platform snapshot-forest state (ForestStats), warm-pool
// occupancy, the pages populating shells rewrote, the cold boots
// replayed and recorded, the content entries evicted past the bound,
// the pages captures hashed and took from shell content records, and
// the Wasp+CA cleaner ledger's counters. Per-backend pool occupancy and
// the cleaner's owed and cleaned counts are published here only.
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
		emit("wasp_pool_total", float64(w.PoolTotal()))
		emit("wasp_pool_dropped", float64(w.PoolDropped()))
		for _, be := range w.backends {
			name := be.platform.Name()
			fs := w.ForestStatsOn(name)
			emit(fmt.Sprintf("wasp_forest_store_pages{platform=%s}", name), float64(fs.StorePages))
			emit(fmt.Sprintf("wasp_forest_store_bytes{platform=%s}", name), float64(fs.StoreBytes))
			emit(fmt.Sprintf("wasp_forest_dedup_hits{platform=%s}", name), float64(fs.DedupHits))
			emit(fmt.Sprintf("wasp_forest_base_layers{platform=%s}", name), float64(fs.BaseLayers))
			emit(fmt.Sprintf("wasp_forest_snapshots{platform=%s}", name), float64(fs.Snapshots))
			emit(fmt.Sprintf("wasp_forest_delta_snapshots{platform=%s}", name), float64(fs.DeltaSnapshots))
			emit(fmt.Sprintf("wasp_pool_shells{platform=%s}", name), float64(be.pools.total()))
			emit(fmt.Sprintf("wasp_shell_pages_written{platform=%s}", name), float64(be.pages.written.Load()))
			emit(fmt.Sprintf("wasp_shell_pages_kept{platform=%s}", name), float64(be.pages.kept.Load()))
			emit(fmt.Sprintf("wasp_boot_replays{platform=%s}", name), float64(be.content.replays.Load()))
			emit(fmt.Sprintf("wasp_boot_recorded{platform=%s}", name), float64(be.content.recorded.Load()))
			emit(fmt.Sprintf("wasp_content_evicted{platform=%s}", name), float64(be.content.evicted.Load()))
			emit(fmt.Sprintf("wasp_capture_pages_hashed{platform=%s}", name), float64(be.pages.hashed.Load()))
			emit(fmt.Sprintf("wasp_capture_pages_reused{platform=%s}", name), float64(be.pages.reused.Load()))
			if c := be.cleaner; c != nil {
				emit(fmt.Sprintf("wasp_clean_enqueued{platform=%s}", name), float64(c.Enqueued()))
				emit(fmt.Sprintf("wasp_clean_cleaned{platform=%s}", name), float64(c.cleaned.Load()))
				emit(fmt.Sprintf("wasp_clean_inline_reclaims{platform=%s}", name), float64(c.InlineReclaims()))
				emit(fmt.Sprintf("wasp_clean_dropped{platform=%s}", name), float64(c.Dropped()))
				c.mu.Lock()
				owed := c.owed
				c.mu.Unlock()
				emit(fmt.Sprintf("wasp_clean_pending{platform=%s}", name), float64(owed))
			}
		}
	})
}
