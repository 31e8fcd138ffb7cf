//! The metric tables. `BENCHMARK.json` lists exactly these names and units:
//! every workload reports every end-to-end metric with tracing off and every
//! per-layer metric with tracing on, so a layer a workload never enters
//! reads 0 there — which is itself the prediction "flat on this workload".

use crate::util::Outcome;
use std::collections::BTreeMap;

/// `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("op_latency_ms", "ms"),
    ("heavy_p10_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)`, from the traced run, grouped by the module they time.
pub const PER_LAYER: [(&str, &str); 75] = [
    // server::tcp
    ("tcp.self_us_p50", "us"),
    ("tcp.wide_self_ms_p50", "ms"),
    ("tcp.bytes_out_per_req", "bytes"),
    // server::protocol + wire
    ("protocol.parse_us_p50", "us"),
    ("protocol.render_us_p50", "us"),
    ("protocol.render_wide_ms_p50", "ms"),
    ("protocol.render_mb_per_s", "MB/s"),
    // server::ra_parse
    ("ra_parse.parse_us_p50", "us"),
    // server::cache
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.entries_end", "count"),
    ("plan_cache.lookup_us_p50", "us"),
    // core::plan
    ("plan.build_us_p50", "us"),
    ("plan.execute_tiny_us_p50", "us"),
    ("plan.execute_point_us_p50", "us"),
    ("plan.execute_agg_ms_p50", "ms"),
    ("plan.execute_wide_ms_p50", "ms"),
    ("plan.execute_bag_s_p50", "s"),
    ("plan.execute_circuit_s_p50", "s"),
    // server::service
    ("session.other_us_p50", "us"),
    ("session.other_wide_ms_p50", "ms"),
    // core::column / BatchCache
    ("batch_cache.hit_ratio", "ratio"),
    ("batch_cache.misses", "count"),
    ("batch_cache.patches", "count"),
    ("batch_cache.batches_per_scan_end", "count"),
    ("column.convert_rows_per_s", "rows/s"),
    // core::kernels
    ("kernels.key_hash_rows_per_s", "rows/s"),
    ("kernels.group_rows_per_s", "rows/s"),
    ("kernels.join_pairs_per_s", "pairs/s"),
    ("kernels.root_merge_rows_per_s", "rows/s"),
    // core::snapshot
    ("snapshot.commit_big_ms_p50", "ms"),
    ("snapshot.commit_small_us_p50", "us"),
    ("snapshot.acquire_ns_p50", "ns"),
    ("snapshot.register_view_ms", "ms"),
    // core::plan::maintain
    ("maintain.delta_us_p50", "us"),
    ("maintain.materialize_ms", "ms"),
    ("maintain.share_of_commit", "ratio"),
    // datalog
    ("datalog.parse_us_p50", "us"),
    ("datalog.import_us_p50", "us"),
    ("datalog.eval_ms_p50", "ms"),
    ("datalog.tc_natinf_s_p50", "s"),
    ("datalog.tc_trop_s_p50", "s"),
    ("datalog.rounds", "count"),
    ("datalog.idb_facts", "count"),
    ("datalog.derived_facts_per_s", "1/s"),
    // core::provenance + semiring::circuit
    ("provenance.tag_s_p50", "s"),
    ("provenance.specialize_s_p50", "s"),
    ("circuit.nodes", "count"),
    ("circuit.nodes_per_s", "1/s"),
    // semiring
    ("semiring.natural_mul_add_per_s", "1/s"),
    ("semiring.natinf_mul_add_per_s", "1/s"),
    ("semiring.integers_add_per_s", "1/s"),
    // set-up, by step
    ("setup.load_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    // process and client: the contended view, both connections running
    ("process.cpu_ms_per_req", "ms"),
    ("client.tiny_p50_ms", "ms"),
    ("client.point_p50_ms", "ms"),
    ("client.point_p95_ms", "ms"),
    ("client.point_p99_ms", "ms"),
    ("client.agg_p50_ms", "ms"),
    ("client.wide_p50_ms", "ms"),
    ("client.view_p50_ms", "ms"),
    ("client.datalog_p50_ms", "ms"),
    ("client.read_p99_ms", "ms"),
    ("client.commit_small_p50_ms", "ms"),
    ("client.commit_big_p50_ms", "ms"),
    ("client.commit_big_p95_ms", "ms"),
    ("client.commit_p99_ms", "ms"),
    ("client.commit_wait_ms_p95", "ms"),
    ("client.throughput_ops_s", "1/s"),
    // library passes
    ("pass.p50_s", "s"),
    ("pass.count", "count"),
    // tracing itself
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
    ("trace.depth0_vs_untraced_ratio", "ratio"),
    ("trace.replayed_ops", "count"),
];

/// Per-layer values by name; anything not set reads 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(known, _)| *known == name),
            "{name} is not in the per-layer table"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Emits every per-layer metric, in table order.
    pub fn report(&self, outcome: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            outcome.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
