package main

// metricDef is one reported metric. For per-layer metrics, moves is the
// prediction made when the benchmark was defined: which end-to-end
// metric, on which workload, the layer should move.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
	moves              string
}

// endToEnd are the metrics of an untraced run, as a user of the server
// sees them, each with the bound a later change is gated on. The report
// prints more than this set. Write rate and latency, and the error rate,
// are left out because every workload must report every metric here and
// none may read 0, and only ingest writes; on ingest each client sends
// exactly one write per three reads, so read_qps there carries the write
// rate. read_p99_ms is left out because no bound a gate may use holds
// it: on dash, open loop, it read between 2.1 and 36 ms over twenty runs
// of the same code on the 2-core host the benchmark was defined on,
// where the quartiles of read_p50_ms stayed within 6-11% of its median.
var endToEnd = []metricDef{
	{name: "read_qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.1},
}

// perLayer are the metrics of a traced run, each with the prediction
// made when the benchmark was defined.
var perLayer = []metricDef{
	{name: "server.admission.wait_us.p50", unit: "us", better: "lower", moves: "moves read_p99_ms on dash"},
	{name: "server.admission.wait_us.p99", unit: "us", better: "lower", moves: "moves read_p99_ms on dash"},
	{name: "server.lock_wait_us.p50", unit: "us", better: "lower", moves: "moves read_p99_ms on ingest"},
	{name: "server.lock_wait_us.p99", unit: "us", better: "lower", moves: "moves read_p99_ms on ingest"},
	{name: "server.plancache.lookup_us.p50", unit: "us", better: "lower", moves: "moves read_p50_ms on dash"},
	{name: "server.plancache.hit_ratio", unit: "ratio", better: "higher", moves: "moves read_qps on adhoc"},
	{name: "server.plancache.evictions_per_kreq", unit: "1/kreq", better: "lower", moves: "moves read_qps on adhoc"},
	{name: "server.wire.encode_us.p50", unit: "us", better: "lower", moves: "moves read_p50_ms on dash"},
	{name: "server.http_us", unit: "us", better: "lower", moves: "moves read_p50_ms on dash"},
	{name: "facade.plankey_us.p50", unit: "us", better: "lower", moves: "moves read_p50_ms on dash"},
	{name: "core.prepare_us.p50", unit: "us", better: "lower", moves: "moves read_qps and read_p50_ms on adhoc"},
	{name: "core.rewritten_ratio", unit: "ratio", better: "higher", moves: "should read about 1 on dash and adhoc, 0 on scan"},
	{name: "engine.snapshot_us.p50", unit: "us", better: "lower", moves: "moves read_p99_ms on ingest"},
	{name: "engine.scan_build_us.p50", unit: "us", better: "lower", moves: "moves read_p50_ms on dash and ingest"},
	{name: "engine.image_reuse_ratio", unit: "ratio", better: "higher", moves: "moves read_p50_ms on dash"},
	{name: "engine.exec_us.p50", unit: "us", better: "lower", moves: "moves read_qps and read_p50_ms on scan"},
	{name: "engine.rows_scanned_per_result_row", unit: "ratio", better: "lower", moves: "moves read_qps on scan"},
	{name: "engine.scan.kept_ratio", unit: "ratio", better: "higher", moves: "moves read_qps on scan"},
	{name: "maintain.insert_us.p50", unit: "us", better: "lower", moves: "moves write_p50_ms and write_ps, and through lock hold time read_p99_ms, on ingest"},
	{name: "maintain.delete_us.p50", unit: "us", better: "lower", moves: "moves write_p50_ms and write_ps, and through lock hold time read_p99_ms, on ingest"},
	{name: "maintain.update_us.p50", unit: "us", better: "lower", moves: "moves write_p50_ms and write_ps, and through lock hold time read_p99_ms, on ingest"},
	{name: "maintain.delta_rows_per_write", unit: "rows", better: "lower", moves: "moves write_p50_ms on ingest"},
	{name: "maintain.fallback_ratio", unit: "ratio", better: "lower", moves: "moves write_p50_ms on ingest"},
	{name: "runtime.alloc_kb_per_op", unit: "KB", better: "lower", moves: "moves read_p99_ms on dash and read_qps on scan"},
	{name: "runtime.gc_cycles_per_kop", unit: "1/kop", better: "lower", moves: "moves read_p99_ms on dash and read_qps on scan"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "moves read_p99_ms on dash and read_qps on scan"},
	{name: "trace.read_us.p50", unit: "us", better: "lower", moves: "the replay's read p50, timed as read_p50_ms is; server.http_us is read_p50_ms minus this"},
	{name: "trace.low_coverage_requests", unit: "count", better: "lower", moves: "replayed requests whose child spans cover under 90% of them"},
}
