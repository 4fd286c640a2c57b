package main

// metricDef is one metric the benchmark reports in its result line.
// BENCHMARK.json at the repository root lists the same metrics; a test
// keeps the two in step.
type metricDef struct {
	name     string
	unit     string
	better   string // "higher" or "lower"
	endToEnd bool   // reported by --trace 0; otherwise by --trace 1
}

// metricTable lists the result-line metrics. End-to-end metrics are ones
// a user of flocd sees and apply to every workload; the per-layer ones
// are timed around the public calls into one layer, and a workload that
// does not exercise a layer reports 0 for it.
var metricTable = []metricDef{
	{"throughput_mpps", "Mpps", "higher", true},
	{"cpu_us_per_pkt", "us/pkt", "lower", true},
	{"setup_s", "s", "lower", true},
	{"alloc_bytes_per_pkt", "B/pkt", "lower", true},
	{"retained_heap_mb", "MB", "lower", true},
	{"legit_share", "ratio", "higher", true},
	{"attack_admit_frac", "ratio", "lower", true},

	{"wire.parse_ns_per_pkt", "ns/pkt", "lower", false},
	{"wire.decode_ns_per_pkt", "ns/pkt", "lower", false},
	{"wire.resolve_ns_per_pkt", "ns/pkt", "lower", false},
	{"wire.resolve_miss_frac", "ratio", "lower", false},
	{"wire.egress_encode_ns_per_pkt", "ns/pkt", "lower", false},
	{"dataplane.enqueue_ns_per_pkt", "ns/pkt", "lower", false},
	{"dataplane.intern_calls", "count", "lower", false},
	{"dataplane.intern_us_p50", "us", "lower", false},
	{"dataplane.intern_us_p90", "us", "lower", false},
	{"dataplane.intern_busy_s", "s", "lower", false},
	{"dataplane.final_drain_s", "s", "lower", false},
	{"dataplane.admit_busy_s", "s", "lower", false},
	{"dataplane.admit_batches", "count", "lower", false},
	{"dataplane.snapshot_ms_p50", "ms", "lower", false},
	{"dataplane.snapshot_paths", "count", "lower", false},
	{"dataplane.install_limit_us_p50", "us", "lower", false},
	{"dataplane.install_limit_calls", "count", "lower", false},
	{"dataplane.sweep_us_p50", "us", "lower", false},
	{"dataplane.ring_drops", "count", "lower", false},
	{"dataplane.limit_drops", "count", "higher", false},
	{"core.paths_live", "count", "lower", false},
	{"core.control_runs", "count", "higher", false},
	{"core.drops.no-token", "count", "lower", false},
	{"core.drops.random-threshold", "count", "lower", false},
	{"core.drops.preferential", "count", "lower", false},
	{"core.drops.blocked", "count", "lower", false},
	{"core.drops.overflow", "count", "lower", false},
	{"defense.limit_drop_frac", "ratio", "higher", false},
	{"cluster.converge_s", "s", "lower", false},
	{"cluster.control_round_p50_ms", "ms", "lower", false},
	{"cluster.control_round_p90_ms", "ms", "lower", false},
	{"cluster.publish_ms_p50", "ms", "lower", false},
	{"cluster.frames_sent", "count", "lower", false},
	{"cluster.records_sent", "count", "lower", false},
	{"cluster.handle_frame_us_p50", "us", "lower", false},
	{"cluster.records_applied", "count", "lower", false},
	{"cluster.retransmits", "count", "lower", false},
	{"cluster.stale_dropped", "count", "lower", false},
	{"ledger.emit_ns_per_event", "ns/event", "lower", false},
	{"ledger.events", "count", "lower", false},
	{"ledger.segments", "count", "lower", false},
	{"ledger.close_ms", "ms", "lower", false},
	{"ledger.verify_s", "s", "lower", false},
	{"telemetry.trace_dropped", "count", "lower", false},
	{"telemetry.scrape_ms", "ms", "lower", false},
	{"runtime.gc_cycles", "count", "lower", false},
	{"runtime.gc_pause_ms", "ms", "lower", false},
	{"trace.overhead_frac", "ratio", "lower", false},
	{"trace.unattributed_frac", "ratio", "lower", false},
	{"trace.traced_mpps", "Mpps", "higher", false},
	{"self.wire.parse_s", "s", "lower", false},
	{"self.wire.decode_s", "s", "lower", false},
	{"self.wire.resolve_s", "s", "lower", false},
	{"self.dataplane.intern_s", "s", "lower", false},
	{"self.dataplane.enqueue_s", "s", "lower", false},
	{"self.dataplane.final_drain_s", "s", "lower", false},
	{"self.dataplane.advance_s", "s", "lower", false},
	{"self.dataplane.snapshot_s", "s", "lower", false},
	{"self.cluster.publish_s", "s", "lower", false},
	{"self.cluster.handle_frame_s", "s", "lower", false},
	{"self.dataplane.install_limit_s", "s", "lower", false},
	{"self.cluster.tick_s", "s", "lower", false},
	{"self.dataplane.sweep_s", "s", "lower", false},
	{"self.cluster.round_s", "s", "lower", false},
	{"self.other_s", "s", "lower", false},
}
