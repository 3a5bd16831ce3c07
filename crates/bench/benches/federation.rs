//! P10 — distributed-warehouse querying (§3: "one or more distributed or
//! local warehouses").
//!
//! Measures the Figure 11 join executed (a) on a single warehouse holding
//! both collections and (b) across a two-node federation (split into
//! per-node sub-queries and recombined). Expected shape: the federated
//! path pays a modest constant overhead — the per-node sub-queries
//! dominate, and the combine (one relstore statement over the member
//! results, in a per-query in-memory database) is cheap relative to
//! them.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xomatiq_bench::{corpus, FIGURE11};
use xomatiq_core::{Federation, ShreddingStrategy, SourceKind, Xomatiq};
use xomatiq_datahounds::source::LoadOptions;

fn bench_federation(c: &mut Criterion) {
    let mut group = c.benchmark_group("federation");
    group.sample_size(10);
    let options = LoadOptions {
        strategy: ShreddingStrategy::Interval,
        with_indexes: true,
        validate: false,
    };
    for scale in [500usize, 2_000] {
        let data = corpus(scale);

        let single = Xomatiq::in_memory();
        single
            .load_source_with("hlx_embl.inv", SourceKind::Embl, &data.embl_flat(), options)
            .expect("load");
        single
            .load_source_with(
                "hlx_enzyme.DEFAULT",
                SourceKind::Enzyme,
                &data.enzyme_flat(),
                options,
            )
            .expect("load");

        let mut federation = Federation::new();
        let node_a = Arc::new(Xomatiq::in_memory());
        node_a
            .load_source_with("hlx_embl.inv", SourceKind::Embl, &data.embl_flat(), options)
            .expect("load");
        federation.add_warehouse("node-a", node_a);
        let node_b = Arc::new(Xomatiq::in_memory());
        node_b
            .load_source_with(
                "hlx_enzyme.DEFAULT",
                SourceKind::Enzyme,
                &data.enzyme_flat(),
                options,
            )
            .expect("load");
        federation.add_warehouse("node-b", node_b);

        group.bench_with_input(
            BenchmarkId::new("single_warehouse_fig11", scale),
            &scale,
            |b, _| {
                b.iter(|| {
                    let outcome = single.query(FIGURE11).expect("runs");
                    std::hint::black_box(outcome.rows.len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("federated_fig11", scale),
            &scale,
            |b, _| {
                b.iter(|| {
                    let outcome = federation.query(FIGURE11).expect("runs");
                    std::hint::black_box(outcome.rows.len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_federation);
criterion_main!(benches);
