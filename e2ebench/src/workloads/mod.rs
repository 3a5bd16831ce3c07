//! The four workloads. Their names are part of the benchmark's contract.

mod bulk_harvest;
mod paper_round;
mod point_flwr;
mod resync_churn;

use xomatiq_bioflat::Corpus;
use xomatiq_core::{SourceKind, Xomatiq};
use xomatiq_datahounds::source::LoadOptions;
use xomatiq_xml::{Document, NodeId};

use crate::harness::{Scale, Workload, EMBL, ENZYME, SPROT};

/// `(name, tail percentile, why)`. The tail percentile of a workload is
/// fixed so that a run of the length in `BENCHMARK.json` leaves at least
/// ten samples beyond it. `point_flwr_wire` would support p99, but between
/// runs its p99 spreads four times as wide as its p95, wider than a gated
/// metric may; every run also prints the highest percentile its samples
/// support, ungated.
pub const WORKLOADS: [(&str, f64, &str); 4] = [
    (
        "paper_round_embedded",
        90.0,
        "read path, executor-dominated, plan cache warm",
    ),
    (
        "point_flwr_wire",
        95.0,
        "read path, fixed-cost-dominated, plan cache thrashed, over TCP",
    ),
    (
        "resync_churn",
        95.0,
        "write path used incrementally, durable",
    ),
    ("bulk_harvest", 90.0, "write path used in bulk, CPU-only"),
];

/// Generates the workload's inputs from `seed` and loads its warehouse:
/// everything `setup_s` covers. `tmp` is a directory the workload may
/// create files in.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    tmp: &std::path::Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_round_embedded" => Box::new(paper_round::PaperRound::build(seed, scale)?),
        "point_flwr_wire" => Box::new(point_flwr::PointFlwr::build(seed, scale)?),
        "resync_churn" => Box::new(resync_churn::ResyncChurn::build(seed, scale, tmp)?),
        "bulk_harvest" => Box::new(bulk_harvest::BulkHarvest::build(seed, scale)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Result hits whose XML tree panel one GUI round opens.
const HITS_SHOWN: usize = 50;

fn text_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The three sources of a corpus as `(collection, kind, flat file)`.
fn sources(corpus: &Corpus) -> [(&'static str, SourceKind, String); 3] {
    [
        (ENZYME, SourceKind::Enzyme, corpus.enzyme_flat()),
        (EMBL, SourceKind::Embl, corpus.embl_flat()),
        (SPROT, SourceKind::SwissProt, corpus.swissprot_flat()),
    ]
}

fn load_three(xq: &Xomatiq, corpus: &Corpus, options: LoadOptions) -> Result<(), String> {
    for (collection, kind, flat) in sources(corpus) {
        xq.load_source_with(collection, kind, &flat, options)
            .map_err(text_err)?;
    }
    Ok(())
}

/// The text of a tagged result cell (its only child, if any).
fn cell_text(doc: &Document, cell: NodeId) -> &str {
    doc.children(cell)
        .next()
        .and_then(|child| doc.node(child).text())
        .unwrap_or("")
}

/// The first cell of each of the first `n` rows of a tagged result.
fn first_cells(doc: &Document, n: usize) -> Vec<String> {
    let Some(root) = doc.root_element() else {
        return Vec::new();
    };
    doc.child_elements(root)
        .take(n)
        .filter_map(|row| doc.child_elements(row).next())
        .map(|cell| cell_text(doc, cell).to_string())
        .collect()
}
