//! The names, units and directions of every metric the benchmark reports.
//! `BENCHMARK.json` lists the same; a self-test keeps the two equal.

/// `(name, unit, better)`: what a user of the system sees. The bounds live
/// in `BENCHMARK.json` only.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Span names, one per layer boundary the staged ops cross. Each is
/// reported as `<span>_us`: the median over ops of the layer's self time.
pub const LAYER_SPANS: [&str; 19] = [
    "xquery.parse",
    "xquery.xq2sql",
    "relstore.plan",
    "relstore.exec",
    "core.tag",
    "xml.write",
    "core.reconstruct",
    "server.handle",
    "server.wire",
    "bioflat.parse",
    "datahounds.transform",
    "datahounds.validate",
    "datahounds.shred",
    "relstore.commit",
    "relstore.index_build",
    "datahounds.diff",
    "relstore.fsync",
    "datahounds.resync_other",
    // The op's root span: what the staged driver itself spends between the
    // calls into the layers.
    "harness.glue",
];

/// `(name, unit, better)` of the per-layer metrics that are not span times.
pub const LAYER_COUNTS: [(&str, &str, &str); 13] = [
    ("staged_op_us", "us", "lower"),
    ("xquery.xq2sql_catalog_queries", "count", "lower"),
    ("relstore.plan_cache_hit_share", "ratio", "higher"),
    ("relstore.rows_scanned", "count", "lower"),
    ("relstore.index_probes", "count", "lower"),
    ("relstore.keyword_postings_read", "count", "lower"),
    ("relstore.segments_pruned", "count", "higher"),
    ("relstore.rows_scanned_per_row_emitted", "ratio", "lower"),
    ("datahounds.statements_per_entry", "count", "lower"),
    ("relstore.wal_bytes_per_flat_byte", "ratio", "lower"),
    ("relstore.fsyncs_per_op", "count", "lower"),
    ("unattributed_share", "ratio", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
];

/// Every per-layer metric as `(name, unit, better)`, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    LAYER_SPANS
        .iter()
        .map(|span| (format!("{span}_us"), "us", "lower"))
        .chain(
            LAYER_COUNTS
                .iter()
                .map(|&(name, unit, better)| (name.to_string(), unit, better)),
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` and the harness name the same workloads and metrics,
    /// with the same units and directions, in the same order.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|item| {
                    fields
                        .iter()
                        .map(|f| item.get(f).and_then(Json::as_str).unwrap().to_string())
                        .collect()
                })
                .collect()
        };
        let strings = |row: &[&str]| row.iter().map(|s| s.to_string()).collect::<Vec<_>>();

        let names: Vec<Vec<String>> = WORKLOADS.iter().map(|(n, ..)| strings(&[n])).collect();
        assert_eq!(list("workloads", &["name"]), names);
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|(n, u, b)| strings(&[n, u, b]))
            .collect();
        assert_eq!(list("end_to_end", &["name", "unit", "better"]), end_to_end);
        let layers: Vec<Vec<String>> = per_layer()
            .iter()
            .map(|(n, u, b)| strings(&[n, u, b]))
            .collect();
        assert_eq!(list("per_layer", &["name", "unit", "better"]), layers);

        // The contract: set-up time has the largest bound, none above 0.25.
        let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
        let metrics = bench.get("end_to_end").and_then(Json::as_arr).unwrap();
        let setup = metrics
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .map(bound)
            .unwrap();
        assert!(metrics.iter().all(|m| bound(m) <= setup && setup <= 0.25));
    }
}
