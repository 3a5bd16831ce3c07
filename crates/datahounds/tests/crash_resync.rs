//! Warehouse crash consistency. A `load_source` and then an
//! `update_source` of a 30-entry ENZYME collection (3 entries removed, 5
//! modified, 4 added) run on a disk that fails fsyncs, or fails fsyncs
//! and tears writes, on a seeded schedule. The disk then crashes and the
//! warehouse is reopened on a healthy one. Each stored entry must
//! reconstruct to exactly its old or its new version, no entry key may be
//! stored twice, an acknowledged operation must have survived, and a
//! clean retry must converge on the new snapshot.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use xomatiq_bioflat::{Corpus, CorpusSpec};
use xomatiq_datahounds::source::LoadOptions;
use xomatiq_datahounds::{DataHounds, SourceKind};
use xomatiq_relstore::{Database, FaultConfig, FaultyIo};

const COLLECTION: &str = "hlx_enzyme.DEFAULT";

/// The two snapshots and every entry's reconstructed XML in each.
struct Snapshots {
    old_flat: String,
    new_flat: String,
    old_xml: BTreeMap<String, String>,
    new_xml: BTreeMap<String, String>,
}

/// Entry key → reconstructed XML of every entry of `collection`.
fn stored_xml(hounds: &DataHounds, collection: &str) -> BTreeMap<String, String> {
    stored_keys(hounds, "docs")
        .into_iter()
        .map(|key| {
            let doc = hounds.reconstruct(collection, &key).unwrap();
            (key, xomatiq_xml::to_string(&doc))
        })
        .collect()
}

/// The entry keys of one of the collection's tables (`docs` or `src`),
/// duplicates included.
fn stored_keys(hounds: &DataHounds, table: &str) -> Vec<String> {
    let prefix = hounds.prefix(COLLECTION).unwrap();
    let rows = hounds
        .db()
        .query(&format!("SELECT entry_key FROM {prefix}_{table}"))
        .run()
        .unwrap()
        .rows;
    rows.into_iter()
        .map(|r| r.try_get("entry_key").unwrap().unwrap())
        .collect()
}

/// Loads `flat` into a fresh in-memory warehouse and reconstructs it.
fn reference_xml(flat: &str) -> BTreeMap<String, String> {
    let hounds = DataHounds::new(Arc::new(Database::in_memory())).unwrap();
    hounds
        .load_source(COLLECTION, SourceKind::Enzyme, flat, LoadOptions::default())
        .unwrap();
    stored_xml(&hounds, COLLECTION)
}

fn snapshots() -> &'static Snapshots {
    static CELL: OnceLock<Snapshots> = OnceLock::new();
    CELL.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusSpec {
            enzymes: 34,
            embl: 0,
            swissprot: 0,
            seed: 7,
            ..CorpusSpec::default()
        });
        let old = &corpus.enzymes[..30];
        let mut new: Vec<_> = old.to_vec();
        for i in [2, 9, 16, 23, 29] {
            new[i].descriptions = vec![format!("Renamed entry {i}.")];
        }
        for i in [25, 12, 4] {
            new.remove(i);
        }
        new.extend_from_slice(&corpus.enzymes[30..]);
        let flat = |entries: &[_]| -> String {
            entries
                .iter()
                .map(xomatiq_bioflat::enzyme::EnzymeEntry::to_flat)
                .collect()
        };
        let (old_flat, new_flat) = (flat(old), flat(&new));
        let old_xml = reference_xml(&old_flat);
        let new_xml = reference_xml(&new_flat);
        assert_eq!((old_xml.len(), new_xml.len()), (30, 31));
        let changed = old_xml
            .iter()
            .filter(|(k, xml)| new_xml.get(*k).is_some_and(|n| n != *xml))
            .count();
        assert_eq!(changed, 5);
        Snapshots {
            old_flat,
            new_flat,
            old_xml,
            new_xml,
        }
    })
}

/// Runs the load and the update on a faulty disk, crashes, reopens, and
/// checks the recovered warehouse and a clean retry. The faults start at
/// the load, or with `faulty_load` unset at the update: a load commits
/// many more times than the update, so faults from the load on seldom
/// let the update start.
fn crash_and_retry(seed: u64, cfg: FaultConfig, faulty_load: bool) -> Result<(), TestCaseError> {
    let snaps = snapshots();
    let io = FaultyIo::new(seed, FaultConfig::none());
    let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
    let hounds = DataHounds::new(Arc::new(db)).unwrap();
    if faulty_load {
        io.set_config(cfg);
    }
    let loaded = hounds
        .load_source(
            COLLECTION,
            SourceKind::Enzyme,
            &snaps.old_flat,
            LoadOptions::default(),
        )
        .is_ok();
    io.set_config(cfg);
    let updated = loaded && hounds.update_source(COLLECTION, &snaps.new_flat).is_ok();
    drop(hounds);

    io.crash();
    io.set_config(FaultConfig::none());
    let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
    let hounds = DataHounds::new(Arc::new(db)).unwrap();
    let registered = hounds.collections().iter().any(|c| c == COLLECTION);
    prop_assert!(registered || !loaded, "an acked load was lost");
    if registered {
        let docs = stored_keys(&hounds, "docs");
        let unique: BTreeSet<&String> = docs.iter().collect();
        prop_assert_eq!(unique.len(), docs.len(), "an entry key is stored twice");
        let mut src = stored_keys(&hounds, "src");
        src.sort();
        prop_assert_eq!(
            unique.into_iter().cloned().collect::<Vec<_>>(),
            src,
            "_docs and _src disagree"
        );
        let stored = stored_xml(&hounds, COLLECTION);
        for (key, xml) in &stored {
            prop_assert!(
                snaps.old_xml.get(key) == Some(xml) || snaps.new_xml.get(key) == Some(xml),
                "entry {key} is neither its old nor its new version"
            );
        }
        if updated {
            prop_assert!(stored == snaps.new_xml, "an acked update was lost");
        }
    }

    // A clean retry converges on the new snapshot, and stays there
    // across another crash.
    if registered {
        hounds.update_source(COLLECTION, &snaps.new_flat).unwrap();
    } else {
        hounds
            .load_source(
                COLLECTION,
                SourceKind::Enzyme,
                &snaps.new_flat,
                LoadOptions::default(),
            )
            .unwrap();
    }
    prop_assert!(stored_xml(&hounds, COLLECTION) == snaps.new_xml);
    drop(hounds);
    io.crash();
    let (db, _) = Database::open_with_io(Box::new(io)).unwrap();
    let hounds = DataHounds::new(Arc::new(db)).unwrap();
    prop_assert!(stored_xml(&hounds, COLLECTION) == snaps.new_xml);
    prop_assert_eq!(stored_keys(&hounds, "docs").len(), 31);
    Ok(())
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(16)))]

    #[test]
    fn fsync_failures_leave_each_entry_old_or_new(
        seed in 0u64..u64::MAX,
        fsync_fail_in in 1u32..40,
        faulty_load in any::<bool>(),
    ) {
        crash_and_retry(
            seed,
            FaultConfig { fsync_fail_in, ..FaultConfig::none() },
            faulty_load,
        )?;
    }

    #[test]
    fn fsync_failures_and_torn_writes_leave_each_entry_old_or_new(
        seed in 0u64..u64::MAX,
        fsync_fail_in in 1u32..40,
        torn_write_in in 1u32..40,
        faulty_load in any::<bool>(),
    ) {
        crash_and_retry(
            seed,
            FaultConfig { fsync_fail_in, torn_write_in, ..FaultConfig::none() },
            faulty_load,
        )?;
    }
}
