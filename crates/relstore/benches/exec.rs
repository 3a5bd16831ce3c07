//! Executor microbenchmarks: scan, limit-over-scan, Top-K, hash join and
//! keyword query, each timed on the streaming executor and (where the
//! comparison is meaningful) the materializing reference interpreter,
//! plus morsel-parallel scaling (1/2/4 workers) and plan-cache hit/miss
//! latency for the prepared-statement path.
//!
//! Besides the usual console output, results are recorded to
//! `BENCH_exec.json` at the workspace root so future PRs have a perf
//! trajectory to compare against. Set `XOMATIQ_BENCH_SMOKE=1` to run with
//! a tiny dataset — CI uses this to keep the harness from bit-rotting.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use xomatiq_relstore::{Database, DatabaseOptions, FaultConfig, FaultyIo, SlowIo};

/// Row count: 50k normally, 500 under `XOMATIQ_BENCH_SMOKE`.
fn scale() -> usize {
    if std::env::var("XOMATIQ_BENCH_SMOKE").is_ok() {
        500
    } else {
        50_000
    }
}

/// `big(a INT, b INT, s TEXT)` with a keyword index on `s`, plus the
/// `facts`/`dims` pair for the join benchmark.
fn build_db(n: usize) -> Database {
    build_db_opts(n, DatabaseOptions::default())
}

fn build_db_opts(n: usize, options: DatabaseOptions) -> Database {
    let db = Database::in_memory_with_options(options);
    db.query("CREATE TABLE big (a INT, b INT, s TEXT)")
        .run()
        .unwrap();
    db.query("CREATE KEYWORD INDEX kw_big_s ON big (s)")
        .run()
        .unwrap();
    db.query("CREATE TABLE facts (id INT, v INT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE dims (id INT, name TEXT)")
        .run()
        .unwrap();
    let mut stmts: Vec<String> = Vec::with_capacity(2 * n + 64);
    for i in 0..n {
        // ~1 row in 500 carries the needle keyword.
        let s = if i % 500 == 250 {
            "needle in the haystack"
        } else {
            "plain filler text"
        };
        stmts.push(format!("INSERT INTO big VALUES ({i}, {}, '{s}')", i % 97));
    }
    for i in 0..n {
        stmts.push(format!("INSERT INTO facts VALUES ({}, {i})", i % 64));
    }
    for i in 0..64 {
        stmts.push(format!("INSERT INTO dims VALUES ({i}, 'dim{i}')"));
    }
    let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
    db.execute_batch(&refs).unwrap();
    db
}

struct Recorder {
    samples: usize,
    results: Vec<(String, f64)>,
}

impl Recorder {
    /// Times `f` over `samples` iterations (after one warmup), prints the
    /// mean, records it for the JSON report and returns it (ns/iter).
    fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> f64 {
        black_box(f()); // warmup
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / self.samples as f64;
        println!("exec/{name}: {ns:.0} ns/iter");
        self.results.push((name.to_string(), ns));
        ns
    }

    fn write_json(&self, rows: usize, cores: usize) {
        let mut entries = String::new();
        for (i, (name, ns)) in self.results.iter().enumerate() {
            if i > 0 {
                entries.push_str(",\n");
            }
            entries.push_str(&format!(
                "    {{\"name\": \"{name}\", \"ns_per_iter\": {ns:.0}}}"
            ));
        }
        // `cores` is part of the header so a recorded run says whether
        // the multi-worker gates were live or self-skipped on this box.
        let json = format!(
            "{{\n  \"bench\": \"exec\",\n  \"rows\": {rows},\n  \"cores\": {cores},\n  \"results\": [\n{entries}\n  ]\n}}\n"
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
        std::fs::write(path, json).expect("write BENCH_exec.json");
        println!("wrote {path}");
    }
}

fn bench_exec(_c: &mut Criterion) {
    let n = scale();
    let db = build_db(n);
    let enforce = std::env::var("XOMATIQ_BENCH_ENFORCE").is_ok();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rec = Recorder {
        samples: if n > 1_000 { 10 } else { 30 },
        results: Vec::new(),
    };

    rec.bench("scan_full", || {
        db.query("SELECT a FROM big").run().unwrap().rows.len()
    });

    // LIMIT k over a large scan: the streaming executor pulls k rows; the
    // reference interpreter clones the table.
    let limit_sql = "SELECT a, b FROM big LIMIT 10";
    rec.bench("limit_over_scan/streaming", || {
        db.query(limit_sql).run().unwrap().rows.len()
    });
    rec.bench("limit_over_scan/reference", || {
        db.query(limit_sql)
            .via_reference()
            .run()
            .unwrap()
            .rows
            .len()
    });

    // Top-K: bounded heap vs full sort + slice.
    let topk_sql = "SELECT a, b FROM big ORDER BY b DESC, a LIMIT 10";
    rec.bench("topk_sort_limit/streaming", || {
        db.query(topk_sql).run().unwrap().rows.len()
    });
    rec.bench("topk_sort_limit/reference", || {
        db.query(topk_sql).via_reference().run().unwrap().rows.len()
    });

    // Hash join: build on 64-row dims, probe streams over facts.
    let join_sql = "SELECT f.v, d.name FROM facts f, dims d WHERE f.id = d.id AND f.v < 100";
    rec.bench("hash_join/streaming", || {
        db.query(join_sql).run().unwrap().rows.len()
    });
    rec.bench("hash_join/reference", || {
        db.query(join_sql).via_reference().run().unwrap().rows.len()
    });

    // Keyword query through the inverted index.
    let kw_sql = "SELECT a FROM big WHERE CONTAINS(s, 'needle')";
    rec.bench("keyword_query/streaming", || {
        db.query(kw_sql).run().unwrap().rows.len()
    });

    // Zone-map pruning: a ~1% selectivity range in the middle of `big`
    // lands in one-ish segment out of ~n/1024; with pruning disabled every
    // segment still runs the vectorized kernels over its column vectors.
    // With XOMATIQ_BENCH_ENFORCE (full scale) pruning must win by >= 5x.
    let (lo, hi) = (n / 2, n / 2 + n / 100);
    let sel_sql = format!("SELECT a, b FROM big WHERE a BETWEEN {lo} AND {hi}");
    db.set_zone_map_pruning(false);
    let unpruned = rec.bench("scan_filter_selective/zone_maps_off", || {
        db.query(&sel_sql).with_workers(1).run().unwrap().rows.len()
    });
    db.set_zone_map_pruning(true);
    let pruned = rec.bench("scan_filter_selective/zone_maps_on", || {
        db.query(&sel_sql).with_workers(1).run().unwrap().rows.len()
    });
    println!(
        "exec/scan_filter_selective: zone maps {:.2}x faster",
        unpruned / pruned
    );
    if enforce && n >= 50_000 {
        assert!(
            unpruned >= pruned * 5.0,
            "zone-map pruning not effective: on {pruned:.0} ns/iter vs off \
             {unpruned:.0} ns/iter (need >= 5x)"
        );
    }

    // The tentpole number: morsel-parallel scan-aggregate scaling over the
    // segment-aligned morsels. The same GROUP BY over `big` at 1, 2 and 4
    // workers; with XOMATIQ_BENCH_ENFORCE (full scale, >= 4 cores) 4
    // workers must beat sequential by >= 1.5x — and must never be slower.
    let agg_sql = "SELECT b, COUNT(*), SUM(a) FROM big GROUP BY b";
    let mut agg_ns = [0.0f64; 3];
    for (slot, workers) in [1usize, 2, 4].into_iter().enumerate() {
        agg_ns[slot] = rec.bench(&format!("scan_aggregate/workers_{workers}"), || {
            db.query(agg_sql)
                .with_workers(workers)
                .run()
                .unwrap()
                .rows
                .len()
        });
    }
    let speedup = agg_ns[0] / agg_ns[2];
    println!("exec/scan_aggregate: 4-worker speedup {speedup:.2}x over sequential");
    if enforce && n >= 50_000 && cores < 4 {
        println!(
            "exec/scan_aggregate: gate SKIPPED — {cores} core(s) available, \
             4-worker speedup needs >= 4"
        );
    }
    if enforce && n >= 50_000 && cores >= 4 {
        assert!(
            agg_ns[2] <= agg_ns[0],
            "parallel regression: 4 workers ({:.0} ns/iter) slower than \
             sequential ({:.0} ns/iter)",
            agg_ns[2],
            agg_ns[0]
        );
        assert!(
            speedup >= 1.5,
            "parallel scan-aggregate too slow: 4 workers only {speedup:.2}x \
             over sequential (need >= 1.5x)"
        );
    }

    // Plan cache: cold parse+plan vs a warm cache hit through a prepared
    // handle (whose normalized SQL is precomputed, so the hit is one LRU
    // lookup). The statement mirrors what XQ2SQL emits for shredded-XML
    // queries — a multi-way join with a pile of predicates — which is the
    // workload plan caching exists for. A hit must skip parsing and
    // planning entirely, so with XOMATIQ_BENCH_ENFORCE it must be >= 100x
    // faster. (Plan-only on both sides: nothing below executes it. The
    // cold side is the same `planned()` call against an identical database
    // whose cache is disabled, so every call pays a full miss.)
    let cached_sql = "SELECT b1.a, b2.b, b3.s, b4.a, f.v, f2.v, d.name, d2.name \
                      FROM big b1, big b2, big b3, big b4, \
                      facts f, facts f2, dims d, dims d2 \
                      WHERE b1.a = b2.a AND b2.a = b3.a AND b3.a = b4.a \
                      AND b4.b = f.id AND f.id = f2.id AND f2.id = d.id \
                      AND d.id = d2.id \
                      AND b1.b > 10 AND b1.a < 40000 AND f.v < 100000 \
                      AND b2.s LIKE '%filler%' AND b3.s LIKE '%plain%' \
                      AND b4.s LIKE '%text%' AND d.name LIKE 'dim%'";
    // Both sides are nanosecond-to-microsecond scale (no data touched),
    // so they need far more samples than the row-crunching benches above.
    let samples = std::mem::replace(&mut rec.samples, 3_000);
    let cold = {
        let uncached = build_db_opts(
            n,
            DatabaseOptions {
                plan_cache_capacity: 0,
                ..DatabaseOptions::default()
            },
        );
        rec.bench("plan_cache/cold_parse_plan", || {
            uncached
                .query(cached_sql)
                .planned()
                .unwrap()
                .plan
                .uses_index()
        })
    };
    let prepared = db.prepare(cached_sql).unwrap();
    db.query_prepared(&prepared).planned().unwrap(); // warm the cache entry
    let warm = rec.bench("plan_cache/warm_hit", || {
        db.query_prepared(&prepared)
            .planned()
            .unwrap()
            .plan
            .uses_index()
    });
    rec.samples = samples;
    println!(
        "exec/plan_cache: hit is {:.0}x faster than cold",
        cold / warm
    );
    if enforce {
        assert!(
            cold >= warm * 100.0,
            "plan-cache hit not cheap enough: cold {cold:.0} ns vs warm \
             {warm:.0} ns (need >= 100x)"
        );
    }

    // Cost-based join ordering: one three-way star join, planned twice
    // over identical data. Without statistics the planner keeps the
    // textual order — `facts ⋈ big` first, a huge intermediate (every
    // fact matches ~n/1000 big rows). After ANALYZE the cost model joins
    // `facts ⋈ small` first (tiny filtered build side), so the big join
    // probes a fraction of the rows. With XOMATIQ_BENCH_ENFORCE (full
    // scale) the stats-driven order must win by >= 2x, and the two plans
    // must actually differ.
    {
        let build_star = || {
            let db = Database::in_memory();
            db.query("CREATE TABLE jo_small (id INT, tag TEXT)")
                .run()
                .unwrap();
            db.query("CREATE TABLE jo_big (id INT, payload INT)")
                .run()
                .unwrap();
            db.query("CREATE TABLE jo_facts (sid INT, bid INT)")
                .run()
                .unwrap();
            let mut stmts: Vec<String> = Vec::with_capacity(2 * n + 128);
            for i in 0..100 {
                stmts.push(format!("INSERT INTO jo_small VALUES ({i}, 't{i}')"));
            }
            for i in 0..n {
                stmts.push(format!("INSERT INTO jo_big VALUES ({}, {i})", i % 1000));
            }
            for i in 0..n {
                stmts.push(format!(
                    "INSERT INTO jo_facts VALUES ({}, {})",
                    i % 100,
                    i % 1000
                ));
            }
            let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
            db.execute_batch(&refs).unwrap();
            db
        };
        let star_sql = "SELECT COUNT(*) FROM jo_facts f \
                        JOIN jo_big b ON f.bid = b.id \
                        JOIN jo_small s ON f.sid = s.id \
                        WHERE s.id < 5";
        let cold_db = build_star();
        let warm_db = build_star();
        warm_db.query("ANALYZE").run().unwrap();
        let cold_plan = cold_db.query(star_sql).explain().unwrap().render();
        let warm_plan = warm_db.query(star_sql).explain().unwrap().render();
        assert_ne!(
            cold_plan, warm_plan,
            "ANALYZE should flip the join order:\n{cold_plan}"
        );
        assert_eq!(
            cold_db.query(star_sql).run().unwrap().rows.rows(),
            warm_db.query(star_sql).run().unwrap().rows.rows(),
            "both orders must return the same answer"
        );
        let off = rec.bench("join_order/stats_off", || {
            cold_db.query(star_sql).run().unwrap().rows.len()
        });
        let on = rec.bench("join_order/stats_on", || {
            warm_db.query(star_sql).run().unwrap().rows.len()
        });
        println!(
            "exec/join_order: statistics make the join {:.2}x faster",
            off / on
        );
        if enforce && n >= 50_000 {
            assert!(
                off >= on * 2.0,
                "cost-based join order not effective: stats on {on:.0} ns/iter \
                 vs off {off:.0} ns/iter (need >= 2x)"
            );
        }
    }

    // Observability overhead: the same per-row-heavy queries with the
    // metrics registry disabled vs enabled. Batches are interleaved and
    // the minimum batch mean is kept on each side, so a scheduler blip
    // during one batch cannot fake (or mask) an overhead regression.
    // With `XOMATIQ_BENCH_ENFORCE` set, instrumented time beyond
    // off-time × 1.10 (+2µs/iter of timer-jitter slack) fails the bench —
    // CI runs the smoke scale this way.
    for (name, sql) in [("scan_full", "SELECT a FROM big"), ("hash_join", join_sql)] {
        let run = || db.query(sql).run().unwrap().rows.len();
        let (off, on) = min_batch_pair(run);
        println!("exec/overhead/{name}: off {off:.0} ns/iter, on {on:.0} ns/iter");
        rec.results
            .push((format!("overhead/{name}/metrics_off"), off));
        rec.results
            .push((format!("overhead/{name}/metrics_on"), on));
        let budget = off * 1.10 + 2_000.0;
        if enforce {
            assert!(
                on <= budget,
                "instrumented {name} exceeds the 10% overhead budget: \
                 {on:.0} ns/iter on vs {off:.0} ns/iter off"
            );
        } else if on > budget {
            println!("exec/overhead/{name}: WARNING above 10% budget (not enforced)");
        }
    }

    // Tracing overhead on the same scan-aggregate workload: flight
    // recorder off + no trace context, vs recorder on (production
    // default) + a client-style trace scope per statement with a sink
    // installed — slow-query profiling stays at the "never" default, so
    // this measures the always-on tracing cost, under the same
    // interleaved min-of-batches discipline and 10% enforced budget as
    // the metrics overhead above.
    {
        let off_db = build_db_opts(
            n,
            DatabaseOptions {
                flight_recorder_capacity: 0,
                ..DatabaseOptions::default()
            },
        );
        let sink = std::sync::Arc::new(xomatiq_obs::MemoryTraceSink::new());
        const BATCHES: usize = 5;
        const ITERS: usize = 8;
        let batch = |db: &Database, traced: bool| {
            let start = Instant::now();
            for _ in 0..ITERS {
                let _scope =
                    traced.then(|| xomatiq_obs::trace::scope(xomatiq_obs::trace::TraceCtx::root()));
                black_box(db.query(agg_sql).run().unwrap().rows.len());
            }
            start.elapsed().as_nanos() as f64 / ITERS as f64
        };
        black_box(db.query(agg_sql).run().unwrap().rows.len()); // warmup
        black_box(off_db.query(agg_sql).run().unwrap().rows.len());
        let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..BATCHES {
            off = off.min(batch(&off_db, false));
            xomatiq_obs::trace::set_trace_sink(Some(sink.clone()));
            on = on.min(batch(&db, true));
            xomatiq_obs::trace::set_trace_sink(None);
        }
        println!("exec/overhead/scan_aggregate: tracing off {off:.0} ns/iter, on {on:.0} ns/iter");
        rec.results
            .push(("overhead/scan_aggregate/tracing_off".to_string(), off));
        rec.results
            .push(("overhead/scan_aggregate/tracing_on".to_string(), on));
        let budget = off * 1.10 + 2_000.0;
        if enforce {
            assert!(
                on <= budget,
                "tracing exceeds the 10% overhead budget on scan_aggregate: \
                 {on:.0} ns/iter on vs {off:.0} ns/iter off"
            );
        } else if on > budget {
            println!("exec/overhead/scan_aggregate: WARNING above 10% budget (not enforced)");
        }
    }

    // Group-commit throughput. Durable commits pay an fsync; with the
    // fsync pinned at a known latency (SlowIo), batching becomes the
    // whole story: 8 concurrent writers sharing one leader fsync per
    // batch must beat 8x the single-writer sequential cost by >= 4x in
    // aggregate (enforced at full scale on >= 4 cores).
    let commits = if n > 1_000 { 128 } else { 16 };
    let open_slow_db = || {
        let io = SlowIo::new(
            Box::new(FaultyIo::new(1, FaultConfig::none())),
            Duration::from_millis(3),
        );
        let (db, _) = Database::open_with_io(Box::new(io)).unwrap();
        db.query("CREATE TABLE c (a INT)").run().unwrap();
        db
    };
    let single_db = open_slow_db();
    let start = Instant::now();
    for i in 0..commits {
        single_db
            .query("INSERT INTO c VALUES (?)")
            .bind(i as i64)
            .run()
            .unwrap();
    }
    let single_ns = start.elapsed().as_nanos() as f64 / commits as f64;
    println!("exec/commit/single_writer: {single_ns:.0} ns/commit");
    rec.results
        .push(("commit/single_writer".to_string(), single_ns));
    drop(single_db);

    let multi_db = std::sync::Arc::new(open_slow_db());
    let per_thread = commits / 8;
    let start = Instant::now();
    let writers: Vec<_> = (0..8)
        .map(|t| {
            let db = std::sync::Arc::clone(&multi_db);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    db.query("INSERT INTO c VALUES (?)")
                        .bind((t * 1000 + i) as i64)
                        .run()
                        .unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let multi_ns = start.elapsed().as_nanos() as f64 / (per_thread * 8) as f64;
    println!("exec/commit/writers_8: {multi_ns:.0} ns/commit aggregate");
    rec.results.push(("commit/writers_8".to_string(), multi_ns));
    let batching = single_ns / multi_ns;
    println!("exec/commit: group commit amortizes fsyncs {batching:.2}x");
    if enforce && n >= 50_000 && cores < 4 {
        println!(
            "exec/commit: gate SKIPPED — {cores} core(s) available, \
             8 concurrent writers need >= 4"
        );
    }
    if enforce && n >= 50_000 && cores >= 4 {
        assert!(
            batching >= 4.0,
            "group commit not amortizing: 8 writers only {batching:.2}x the \
             single-writer commit rate (need >= 4x aggregate)"
        );
    }
    drop(multi_db);

    // Incremental view maintenance vs full recompute. Deferred views over
    // n base rows; each round touches ~1% of the rows, then refreshes.
    // The incremental path folds the committed delta log (a few hundred
    // events) into the view; the FULL path recomputes it over all n rows.
    // Three shapes: an aggregate over one table (`view_refresh/…`), and
    // a row view and an aggregate over an equi-join of the same n rows
    // with a 1 000-row dimension (`view_refresh/join_…`,
    // `view_refresh/join_agg_…`). With XOMATIQ_BENCH_ENFORCE (full
    // scale) incremental must win >= 20x on each.
    {
        let mv_db = Database::in_memory();
        mv_db
            .query("CREATE TABLE mv_base (id INT, grp INT, v INT)")
            .run()
            .unwrap();
        let stmts: Vec<String> = (0..n)
            .map(|i| format!("INSERT INTO mv_base VALUES ({i}, {}, {i})", i % 64))
            .collect();
        let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
        mv_db.execute_batch(&refs).unwrap();
        mv_db
            .query(
                "CREATE MATERIALIZED VIEW mv_sums AS \
                 SELECT grp, COUNT(*) AS cnt, SUM(v) AS s FROM mv_base GROUP BY grp",
            )
            .run()
            .unwrap();
        refresh_pair(&mut rec, &mv_db, "mv_base", "mv_sums", "", n, enforce);

        let join_db = Database::in_memory();
        join_db
            .query("CREATE TABLE mv_fact (id INT, grp INT, v INT)")
            .run()
            .unwrap();
        join_db
            .query("CREATE TABLE mv_dim (grp INT, w INT)")
            .run()
            .unwrap();
        let stmts: Vec<String> = (0..n)
            .map(|i| format!("INSERT INTO mv_fact VALUES ({i}, {}, {i})", i % 1000))
            .chain((0..1000).map(|g| format!("INSERT INTO mv_dim VALUES ({g}, {})", g % 64)))
            .collect();
        let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
        join_db.execute_batch(&refs).unwrap();
        for (view, def) in [
            (
                "mv_join",
                "SELECT f.id, f.v, d.w FROM mv_fact f JOIN mv_dim d ON f.grp = d.grp \
                 WHERE f.v >= 0",
            ),
            (
                "mv_join_agg",
                "SELECT d.w, COUNT(*) AS cnt, SUM(f.v) AS s \
                 FROM mv_fact f JOIN mv_dim d ON f.grp = d.grp GROUP BY d.w",
            ),
        ] {
            join_db
                .query(&format!("CREATE MATERIALIZED VIEW {view} AS {def}"))
                .run()
                .unwrap();
        }
        refresh_pair(
            &mut rec, &join_db, "mv_fact", "mv_join", "join_", n, enforce,
        );
        refresh_pair(
            &mut rec,
            &join_db,
            "mv_fact",
            "mv_join_agg",
            "join_agg_",
            n,
            enforce,
        );
    }

    // Recovery after a checkpoint: reopen latency, with the replay length
    // asserted through the recovery report — the tail after the
    // checkpoint, and nothing more, is replayed.
    let tail = 24usize;
    let io = FaultyIo::new(2, FaultConfig::none());
    {
        let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
        db.query("CREATE TABLE c (a INT)").run().unwrap();
        for i in 0..200i64 {
            db.query("INSERT INTO c VALUES (?)").bind(i).run().unwrap();
        }
        db.checkpoint().unwrap();
        for i in 0..tail {
            db.query("INSERT INTO c VALUES (?)")
                .bind(i as i64)
                .run()
                .unwrap();
        }
    }
    let start = Instant::now();
    let (recovered, report) = Database::open_with_io(Box::new(io)).unwrap();
    let reopen_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        report.transactions_applied, tail,
        "recovery replayed {} transactions; only the {tail}-commit tail \
         after the checkpoint should replay",
        report.transactions_applied
    );
    assert_eq!(recovered.row_count("c").unwrap(), 200 + tail);
    println!(
        "exec/recovery/reopen_after_checkpoint: {reopen_ns:.0} ns \
         (replayed {tail} of {} commits)",
        200 + tail
    );
    rec.results
        .push(("recovery/reopen_after_checkpoint".to_string(), reopen_ns));

    rec.write_json(n, cores);
}

/// Times deferred view `view`'s incremental refresh, then its FULL
/// refresh, as `view_refresh/{prefix}incremental` and
/// `view_refresh/{prefix}full_recompute`. Each of a few rounds bumps `v`
/// on a rotating 1% band of `table`'s `n` rows (so successive rounds hit
/// fresh rows) and then times only the refresh: the DML cost is the same
/// on both sides and is not what the gate is about.
fn refresh_pair(
    rec: &mut Recorder,
    db: &Database,
    table: &str,
    view: &str,
    prefix: &str,
    n: usize,
    enforce: bool,
) {
    let touched = (n / 100).max(1);
    let rounds = if n > 1_000 { 10 } else { 3 };
    let mut refresh_ns = |full: bool, name: &str| {
        let sql = format!(
            "REFRESH MATERIALIZED VIEW {view}{}",
            if full { " FULL" } else { "" }
        );
        db.query(&sql).run().unwrap(); // warmup / drain
        let mut total = 0f64;
        for round in 0..rounds {
            let start_id = (round * touched) % n;
            db.query(&format!(
                "UPDATE {table} SET v = v + 1 WHERE id >= {start_id} AND id < {}",
                start_id + touched
            ))
            .run()
            .unwrap();
            let t = Instant::now();
            db.query(&sql).run().unwrap();
            total += t.elapsed().as_nanos() as f64;
        }
        let ns = total / rounds as f64;
        println!("exec/{name}: {ns:.0} ns/refresh ({touched} of {n} rows touched)");
        rec.results.push((name.to_string(), ns));
        ns
    };
    let incremental = refresh_ns(false, &format!("view_refresh/{prefix}incremental"));
    let full = refresh_ns(true, &format!("view_refresh/{prefix}full_recompute"));
    let ratio = full / incremental;
    println!("exec/view_refresh/{view}: incremental refresh is {ratio:.1}x faster than recompute");
    if enforce && n >= 50_000 {
        assert!(
            ratio >= 20.0,
            "incremental refresh of {view} not effective: {incremental:.0} ns vs \
             full recompute {full:.0} ns — only {ratio:.1}x (need >= 20x)"
        );
    }
}

/// Interleaved min-of-batches measurement of `f` with metrics disabled
/// then enabled, returning `(off_ns_per_iter, on_ns_per_iter)`. The
/// registry is left enabled afterwards.
fn min_batch_pair<R>(mut f: impl FnMut() -> R) -> (f64, f64) {
    const BATCHES: usize = 5;
    const ITERS: usize = 8;
    let batch = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        start.elapsed().as_nanos() as f64 / ITERS as f64
    };
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    black_box(f()); // warmup
    for _ in 0..BATCHES {
        xomatiq_obs::set_enabled(false);
        off = off.min(batch(&mut || {
            black_box(f());
        }));
        xomatiq_obs::set_enabled(true);
        on = on.min(batch(&mut || {
            black_box(f());
        }));
    }
    (off, on)
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
