package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root carries the same tables; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// exact marks a per-layer count taken in the one-client in-process
	// passes: the same seed must reproduce it digit for digit.
	exact bool
}

// endToEnd are the seven metrics a user of the system would see, the
// same on every workload, printed by `-trace 0`. Timings are at
// reference speed; counts are raw. The timing bounds are what this
// sandbox can resolve between two sets of runs of the same code, not
// what one would wish for: README.md, "Why the timing bounds are 25 %".
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "server_cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "model_ms_per_op", unit: "ms", better: "lower", bound: 0.05},
	{name: "disk_bytes_per_commit", unit: "B", better: "lower", bound: 0.01},
	{name: "wire_bytes_per_op", unit: "B", better: "lower", bound: 0.01},
}

// perLayer are the single-layer metrics printed by `-trace 1`. README.md
// says which end-to-end metric each should move, and where it should
// not.
var perLayer = []metricDef{
	// client / proto / frame
	{name: "proto.req_encode_us", unit: "us", better: "lower"},
	{name: "proto.req_decode_us", unit: "us", better: "lower"},
	{name: "proto.resp_encode_us", unit: "us", better: "lower"},
	{name: "proto.resp_decode_us", unit: "us", better: "lower"},
	{name: "proto.req_bytes_per_op", unit: "B", better: "lower", exact: true},
	{name: "proto.resp_bytes_per_op", unit: "B", better: "lower", exact: true},
	{name: "client.wire_us", unit: "us", better: "lower"},
	// client tails and classes (main run)
	{name: "client.op_p99_ms", unit: "ms", better: "lower"},
	{name: "client.op_pmax10_ms", unit: "ms", better: "lower"},
	{name: "client.op_samples", unit: "count", better: "higher"},
	{name: "client.query_p50_ms", unit: "ms", better: "lower"},
	{name: "client.commit_p50_ms", unit: "ms", better: "lower"},
	// server
	{name: "server.residence_us", unit: "us", better: "lower"},
	{name: "server.overhead_us", unit: "us", better: "lower"},
	{name: "server.busy_rejects", unit: "count", better: "lower"},
	{name: "server.scaling_c2_over_c1", unit: "ratio", better: "higher"},
	{name: "server.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "server.cpu_user_frac", unit: "ratio", better: "higher"},
	// core
	{name: "core.op_us", unit: "us", better: "lower"},
	{name: "core.query_us", unit: "us", better: "lower"},
	{name: "core.commit_us", unit: "us", better: "lower"},
	{name: "core.model_ms_per_op", unit: "ms", better: "lower", exact: true},
	{name: "core.phase.query.model_ms_per_op", unit: "ms", better: "lower", exact: true},
	{name: "core.phase.screen.model_ms_per_op", unit: "ms", better: "lower", exact: true},
	{name: "core.phase.commit-write.model_ms_per_op", unit: "ms", better: "lower", exact: true},
	{name: "core.phase.imm-refresh.model_ms_per_op", unit: "ms", better: "lower", exact: true},
	{name: "core.phase.ad-read.model_ms_per_op", unit: "ms", better: "lower", exact: true},
	{name: "core.phase.def-refresh.model_ms_per_op", unit: "ms", better: "lower", exact: true},
	{name: "core.phase.fold.model_ms_per_op", unit: "ms", better: "lower", exact: true},
	{name: "core.refreshes_per_query", unit: "ratio", better: "lower", exact: true},
	{name: "core.delta_scans_per_refresh", unit: "ratio", better: "lower", exact: true},
	{name: "core.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "core.recover_ms", unit: "ms", better: "lower"},
	// exec / vec / colpage / btree
	{name: "exec.rows_scanned_per_row_out", unit: "ratio", better: "lower", exact: true},
	{name: "exec.batches_per_query", unit: "ratio", better: "lower", exact: true},
	{name: "colpage.pages_pruned_per_query", unit: "ratio", better: "higher", exact: true},
	{name: "exec.scan_us_per_krow", unit: "us", better: "lower"},
	// storage
	{name: "storage.page_reads_per_op", unit: "ratio", better: "lower", exact: true},
	{name: "storage.page_writes_per_op", unit: "ratio", better: "lower", exact: true},
	{name: "storage.screens_per_op", unit: "ratio", better: "lower", exact: true},
	{name: "storage.ad_touches_per_op", unit: "ratio", better: "lower", exact: true},
	{name: "storage.pool_resident_frac", unit: "ratio", better: "higher"},
	// wal and snapshot devices
	{name: "wal.appends_per_commit", unit: "ratio", better: "lower", exact: true},
	{name: "wal.syncs_per_commit", unit: "ratio", better: "lower", exact: true},
	{name: "wal.bytes_per_commit", unit: "B", better: "lower", exact: true},
	{name: "wal.write_us", unit: "us", better: "lower"},
	{name: "wal.sync_us", unit: "us", better: "lower"},
	{name: "snap.bytes_per_commit", unit: "B", better: "lower", exact: true},
	{name: "snap.syncs_per_commit", unit: "ratio", better: "lower", exact: true},
	// hr / bloom
	{name: "hr.ad_scans_per_query", unit: "ratio", better: "lower", exact: true},
	{name: "hr.ad_len_at_query", unit: "count", better: "lower", exact: true},
	// costmodel
	{name: "costmodel.predicted_ms_per_op", unit: "ms", better: "lower", exact: true},
	{name: "costmodel.drift", unit: "ratio", better: "lower", exact: true},
	// harness
	{name: "probe.sort_ms_p50", unit: "ms", better: "lower"},
	{name: "probe.ping_ms_p50", unit: "ms", better: "lower"},
	{name: "probe.sync_ms_p50", unit: "ms", better: "lower"},
	{name: "probe.cpu_speed", unit: "ratio", better: "lower"},
	{name: "probe.speed", unit: "ratio", better: "lower"},
	{name: "probe.speed_iqr", unit: "ratio", better: "lower"},
	{name: "raw.setup_s", unit: "s", better: "lower"},
	{name: "raw.ops_per_s", unit: "1/s", better: "higher"},
	{name: "raw.op_p50_ms", unit: "ms", better: "lower"},
	{name: "raw.server_cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "raw.build_s", unit: "s", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}
