//! Transaction-layer property tests: interleaved concurrent commits,
//! torn checkpoints, and crashes during background maintenance.
//!
//! The oracle throughout: recovery yields a state explainable as a
//! prefix of the committed (acknowledged) sequence — never a phantom
//! row, never a half-applied batch, never a hole.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use xomatiq_relstore::{Database, FaultConfig, FaultyIo};

fn recovered_keys(db: &Database) -> Vec<i64> {
    db.query("SELECT a FROM t ORDER BY a")
        .run()
        .unwrap()
        .rows
        .rows()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect()
}

/// Cases per property: the file's default, or `PROPTEST_CASES` when set
/// (the nightly stress job raises it to 1024).
fn prop_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(48)))]

    /// Interleaved concurrent committers on a faulty disk. Each thread
    /// inserts its own keys in order; after a crash and recovery:
    ///   - the recovered keys per thread are a PREFIX of that thread's
    ///     attempts (log order respects per-thread commit order, and
    ///     corruption only ever truncates);
    ///   - no phantom keys appear;
    ///   - with only fsync faults (no torn/flipped writes), every
    ///     acknowledged commit survives — a failed group fsync must not
    ///     silently drop some waiters while acking others.
    #[test]
    fn interleaved_concurrent_commits_recover_per_thread_prefixes(
        seed in 0u64..u64::MAX,
        threads in 2usize..=4,
        per_thread in 2usize..=6,
        fsync_fail_in in 0u32..8,
        torn_write_in in 0u32..8,
    ) {
        let cfg = FaultConfig {
            torn_write_in,
            bit_flip_in: 0,
            fsync_fail_in,
            read_fail_in: 0,
        };
        let io = FaultyIo::new(seed, FaultConfig::none());
        let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
        db.query("CREATE TABLE t (a INT)").run().unwrap();
        io.set_config(cfg);
        let db = Arc::new(db);

        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut acked = Vec::new();
                    for i in 0..per_thread {
                        let key = (t as i64) * 1000 + i as i64;
                        match db.query(&format!("INSERT INTO t VALUES ({key})")).run() {
                            Ok(_) => acked.push(key),
                            // Poison is sticky; later attempts keep
                            // failing, which the prefix oracle absorbs.
                            Err(_) => break,
                        }
                    }
                    acked
                })
            })
            .collect();
        let acked_per_thread: Vec<Vec<i64>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        drop(db);

        io.crash();
        io.set_config(FaultConfig::none());
        let (recovered, report) = Database::open_with_io(Box::new(io)).unwrap();
        let keys = recovered_keys(&recovered);

        for (t, acked) in acked_per_thread.iter().enumerate() {
            let mine: Vec<i64> = keys
                .iter()
                .copied()
                .filter(|k| (k / 1000) as usize == t)
                .collect();
            // Per-thread prefix of the attempted sequence.
            let attempted: Vec<i64> =
                (0..per_thread).map(|i| (t as i64) * 1000 + i as i64).collect();
            prop_assert!(
                mine.len() <= attempted.len() && mine[..] == attempted[..mine.len()],
                "thread {t}: recovered {mine:?} is not a prefix of {attempted:?}\n\
                 report {report:?}"
            );
            // Durability: with no torn writes, an ack is a promise.
            if torn_write_in == 0 {
                prop_assert!(
                    mine.len() >= acked.len(),
                    "thread {t}: acked {acked:?} but only {mine:?} survived the \
                     crash\nreport {report:?}"
                );
            }
        }
        // No phantom keys from any source.
        for k in &keys {
            let (t, i) = ((k / 1000) as usize, (k % 1000) as usize);
            prop_assert!(t < threads && i < per_thread, "phantom key {k}");
        }
        recovered.query("INSERT INTO t VALUES (999999)").run().unwrap();
    }

    /// A checkpoint whose side-file write fails is a non-event: the
    /// database stays usable and un-poisoned, and recovery falls back to
    /// replaying the full (never-rotated) log — losing nothing.
    #[test]
    fn torn_checkpoint_falls_back_to_full_replay(
        seed in 0u64..u64::MAX,
        before in 1usize..12,
        after in 1usize..12,
    ) {
        let io = FaultyIo::new(seed, FaultConfig::none());
        let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
        db.query("CREATE TABLE t (a INT)").run().unwrap();
        for i in 0..before {
            db.query(&format!("INSERT INTO t VALUES ({i})")).run().unwrap();
        }
        // Every durability op fails for the duration of the checkpoint:
        // its first fsync (the side-image write) errors out.
        io.set_config(FaultConfig { fsync_fail_in: 1, ..FaultConfig::none() });
        prop_assert!(db.checkpoint().is_err());
        io.set_config(FaultConfig::none());
        // The failure did not poison the handle: commits keep working.
        for i in before..(before + after) {
            db.query(&format!("INSERT INTO t VALUES ({i})")).run().unwrap();
        }
        drop(db);

        io.crash();
        let (recovered, report) = Database::open_with_io(Box::new(io)).unwrap();
        prop_assert_eq!(report.checkpoint_csn, 0, "no image should exist");
        let keys = recovered_keys(&recovered);
        let want: Vec<i64> = (0..(before + after) as i64).collect();
        prop_assert_eq!(keys, want, "full replay must reproduce every commit");
    }

    /// Maintenance (checkpoints + segment compaction) interleaved at
    /// arbitrary points in a workload, then a crash: the recovered state
    /// is exactly the acknowledged state — maintenance neither loses nor
    /// resurrects data, wherever the crash lands relative to it.
    #[test]
    fn crash_after_interleaved_maintenance_recovers_acked_state(
        seed in 0u64..u64::MAX,
        plan in prop::collection::vec(
            prop_oneof![
                4 => (0i64..1000).prop_map(MaintOp::Insert),
                2 => (0i64..1000).prop_map(MaintOp::Delete),
                1 => Just(MaintOp::Checkpoint),
                1 => Just(MaintOp::Compact),
            ],
            1..30,
        ),
    ) {
        let io = FaultyIo::new(seed, FaultConfig::none());
        let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
        db.query("CREATE TABLE t (a INT)").run().unwrap();
        let mut model: Vec<i64> = Vec::new();
        for op in &plan {
            match op {
                MaintOp::Insert(k) => {
                    db.query(&format!("INSERT INTO t VALUES ({k})")).run().unwrap();
                    model.push(*k);
                }
                MaintOp::Delete(k) => {
                    db.query(&format!("DELETE FROM t WHERE a = {k}")).run().unwrap();
                    model.retain(|m| m != k);
                }
                MaintOp::Checkpoint => db.checkpoint().unwrap(),
                MaintOp::Compact => {
                    db.compact_segments();
                }
            }
        }
        drop(db);

        io.crash();
        let (recovered, report) = Database::open_with_io(Box::new(io)).unwrap();
        let keys = recovered_keys(&recovered);
        let mut want = model;
        want.sort_unstable();
        prop_assert_eq!(
            keys, want,
            "maintenance + crash changed the acked state\nreport {:?}", report
        );
        recovered.query("INSERT INTO t VALUES (999999)").run().unwrap();
    }
}

/// One step of the maintenance-interleaving plan.
#[derive(Debug, Clone)]
enum MaintOp {
    Insert(i64),
    Delete(i64),
    Checkpoint,
    Compact,
}
