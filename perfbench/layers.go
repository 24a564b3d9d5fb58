package main

// layerMetric is one per-layer metric: its unit and the end-to-end metric
// and workload it is predicted to move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics lists every per-layer metric a traced run reports. Layers a
// workload bypasses report 0.
var layerMetrics = []layerMetric{
	{"xmlio.read_s", "s", "setup_s on paper-cold"},
	{"query.parse_ms", "ms", "op_p50_ms on paper-cold (about 1%); 0 on api-warm, whose runner caches parsed queries"},
	{"query.path_nfa_states", "count", "op_p50_ms on paper-cold"},
	{"translate.slice_ms", "ms", "op_p50_ms and ops_per_s on paper-cold; no change on api-warm"},
	{"translate.build_ms", "ms", "op_p50_ms and ops_per_s on paper-cold; no change on api-warm"},
	{"translate.init_auto_ms", "ms", "op_p50_ms and ops_per_s on paper-cold; no change on api-warm"},
	{"translate.rules_emitted", "count", "exact count; op_p50_ms on paper-cold"},
	{"translate.rules_kept", "count", "exact count; op_p50_ms on paper-cold"},
	{"translate.cache_hit_ratio", "ratio", "op_p50_ms on api-warm"},
	{"translate.blocks_rebuilt", "count", "op_p50_ms on whatif-live"},
	{"translate.block_reuse_ratio", "ratio", "op_p50_ms on whatif-live"},
	{"pds.saturate_ms", "ms", "op_p50_ms on api-warm; also paper-cold (about 23%) and whatif-live"},
	{"pds.worklist_pops", "count", "exact count per op; op_p50_ms on api-warm"},
	{"pds.trans_inserted", "count", "exact count per op; op_p50_ms on api-warm"},
	{"pds.index_probes", "count", "exact count per op; op_p50_ms on api-warm"},
	{"pds.early_accept_ratio", "ratio", "wasted work; op_p50_ms on paper-cold"},
	{"engine.early_fallback_ratio", "ratio", "wasted work; op_tail_ms on paper-cold"},
	{"engine.reconstruct_ms", "ms", "op_tail_ms on the satisfied-heavy paper-cold and api-warm"},
	{"engine.under_used_ratio", "ratio", "op_tail_ms on the satisfied-heavy paper-cold and api-warm"},
	{"batch.busy_ratio", "ratio", "ops_per_s on whatif-live"},
	{"scenario.set_stack_ms", "ms", "op_p50_ms on whatif-live"},
	{"live.reverify_ms", "ms", "op_p50_ms on whatif-live"},
	{"live.ingest_us", "us", "nothing"},
	{"live.events_per_flush", "count", "nothing"},
	{"live.skipped_flush_ratio", "ratio", "nothing"},
	{"live.watch_gaps", "count", "nothing; must stay 0"},
	{"httpapi.handler_ms", "ms", "op_p50_ms on api-warm"},
	{"httpapi.overhead_ms", "ms", "op_p50_ms on api-warm"},
	{"http.transport_ms", "ms", "op_p50_ms on api-warm"},
	{"obs.scrape_ms", "ms", "op_p50_ms on api-warm"},
	{"runtime.alloc_mb_per_op", "MB", "peak_rss_mb and op_p50_ms on paper-cold"},
	{"runtime.mallocs_per_op", "count", "peak_rss_mb and op_p50_ms on paper-cold"},
	{"runtime.gc_cycles_per_op", "count", "peak_rss_mb and op_p50_ms on paper-cold"},
	{"runtime.gc_cpu_fraction", "ratio", "peak_rss_mb and op_p50_ms on paper-cold"},
	{"trace.overhead_ratio", "ratio", "nothing; the traced run's cost over the untraced run"},
}
