//! P7 — "our design supports efficient keyword-based searches in the
//! relational database system" (paper §2.2).
//!
//! Measures the Figure 8-style whole-document keyword search served by the
//! inverted keyword index versus the same predicate evaluated by scan
//! (tokenizing every stored value). Expected shape: the index wins by
//! orders of magnitude and its advantage grows with corpus size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xomatiq_bench::{build_enzyme_warehouse, corpus};
use xomatiq_core::ShreddingStrategy;

fn bench_keyword(c: &mut Criterion) {
    let mut group = c.benchmark_group("keyword_search");
    group.sample_size(10);
    let query = r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
                   WHERE contains($a, "ketone", any)
                   RETURN $a//enzyme_id"#;
    for scale in [500usize, 2_000, 8_000] {
        let data = corpus(scale);
        for (label, with_indexes) in [("indexed", true), ("scan", false)] {
            let xq = build_enzyme_warehouse(&data, ShreddingStrategy::Interval, with_indexes);
            let outcome = xq.query(query).expect("runs");
            let plan = xq.db().query(&outcome.sql).planned().expect("plans");
            let uses = plan.plan.uses_index();
            assert_eq!(uses, with_indexes, "access path mismatch for {label}");
            group.bench_with_input(BenchmarkId::new(label, scale), &scale, |b, _| {
                b.iter(|| {
                    let outcome = xq.query(query).expect("query runs");
                    std::hint::black_box(outcome.rows.len())
                });
            });
            // The isolated primitive: raw CONTAINS selection on the node
            // table, with no FLWR join machinery around it.
            let raw = "SELECT doc_id FROM hlx_enzyme_default_nodes WHERE CONTAINS(val, 'ketone')";
            group.bench_with_input(
                BenchmarkId::new(format!("raw_{label}"), scale),
                &scale,
                |b, _| {
                    b.iter(|| {
                        let out = xq.db().query(raw).run().expect("raw query runs");
                        std::hint::black_box(out.rows.rows().len())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_keyword);
criterion_main!(benches);
