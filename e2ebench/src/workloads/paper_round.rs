//! `paper_round_embedded`: one round of the paper's GUI against an
//! in-memory, Interval-shredded, indexed three-database warehouse.
//!
//! One op runs the Figure 8, 9 and 11 queries to tagged XML text and then
//! reconstructs and serializes the first 50 Figure 9 hits (the XML tree
//! panel of Figure 7). The executor does nearly all the work and the three
//! query plans stay cached, so this is where executor changes show.

use std::time::Instant;

use xomatiq_bioflat::Corpus;
use xomatiq_core::{tagger, ShreddingStrategy, Xomatiq};
use xomatiq_datahounds::source::LoadOptions;
use xomatiq_xml::Document;
use xomatiq_xquery::{parse_query, translate};

use super::{cell_text, first_cells, load_three, text_err, HITS_SHOWN};
use crate::harness::{
    CountingCatalog, Mode, OpResult, Probe, Scale, Worker, Workload, ENZYME, FIGURE11, FIGURE8,
    FIGURE9,
};
use crate::inputs::planted_corpus;

pub struct PaperRound {
    xq: Xomatiq,
    /// Per query, the fingerprint of the rows it must return.
    truth: [Fingerprint; 3],
    /// Figure 9 hits, which bound how many tree panels a round shows.
    hits: usize,
}

const QUERIES: [(&str, &str, usize); 3] = [
    // (text, diagnostic name, leading cells that identify a row)
    (FIGURE8, "fig8_ms", 2),
    (FIGURE9, "fig9_ms", 1),
    (FIGURE11, "fig11_ms", 1),
];

impl PaperRound {
    pub fn build(seed: u64, scale: Scale) -> Result<PaperRound, String> {
        let corpus = planted_corpus(seed, scale.per_db());
        let xq = Xomatiq::in_memory();
        load_three(
            &xq,
            &corpus,
            LoadOptions {
                strategy: ShreddingStrategy::Interval,
                with_indexes: true,
                validate: true,
            },
        )?;
        Ok(PaperRound {
            xq,
            truth: truth(&corpus),
            hits: corpus.ketone_enzymes.len(),
        })
    }
}

/// `(rows, wrapping sum of row hashes)`.
type Fingerprint = (u64, u64);

/// FNV-1a over a row's key cells, a separator after each.
fn row_hash<'a>(cells: impl Iterator<Item = &'a str>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for cell in cells {
        for &b in cell.as_bytes().iter().chain(b"\t") {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn truth(corpus: &Corpus) -> [Fingerprint; 3] {
    let of = |rows: &mut dyn Iterator<Item = u64>| {
        rows.fold((0u64, 0u64), |(n, sum), h| (n + 1, sum.wrapping_add(h)))
    };
    let fig8 = of(&mut corpus.cdc6_embl.iter().flat_map(|embl| {
        corpus
            .cdc6_swissprot
            .iter()
            .map(move |sprot| row_hash([sprot.as_str(), embl.as_str()].into_iter()))
    }));
    let fig9 = of(&mut corpus
        .ketone_enzymes
        .iter()
        .map(|id| row_hash(std::iter::once(id.as_str()))));
    let fig11 = of(&mut corpus
        .planted_ec_links
        .iter()
        .map(|(accession, _)| row_hash(std::iter::once(accession.as_str()))));
    [fig8, fig9, fig11]
}

impl Workload for PaperRound {
    fn workers(&self) -> Vec<Box<dyn Worker + '_>> {
        vec![Box::new(Round {
            wl: self,
            catalog: CountingCatalog::new(&self.xq),
        })]
    }
}

struct Round<'a> {
    wl: &'a PaperRound,
    catalog: CountingCatalog<'a>,
}

/// What one round hands to validation.
struct Shown {
    results: Vec<Document>,
    panels: Vec<(String, String)>,
}

impl Round<'_> {
    fn facade(&self, probe: &mut Probe) -> Result<Shown, String> {
        let xq = &self.wl.xq;
        let mut results = Vec::with_capacity(3);
        for (text, part, _) in QUERIES {
            let t = Instant::now();
            let doc = xq.query_xml(text).map_err(text_err)?;
            std::hint::black_box(xomatiq_xml::to_string(&doc));
            probe.tally.part(part, t.elapsed());
            results.push(doc);
        }
        let t = Instant::now();
        let mut panels = Vec::with_capacity(HITS_SHOWN);
        for id in first_cells(&results[1], HITS_SHOWN) {
            let doc = xq.reconstruct(ENZYME, &id).map_err(text_err)?;
            panels.push((id, xomatiq_xml::to_string(&doc)));
        }
        probe.tally.part("reconstruct50_ms", t.elapsed());
        Ok(Shown { results, panels })
    }

    /// The same round through the calls `query_xml` is made of.
    fn staged(&self, probe: &mut Probe) -> Result<Shown, String> {
        let xq = &self.wl.xq;
        let Probe { tracer, tally } = probe;
        let mut results = Vec::with_capacity(3);
        for (text, _, _) in QUERIES {
            let s = tracer.enter("xquery.parse");
            let parsed = parse_query(text).map_err(text_err)?;
            tracer.exit(s);

            let s = tracer.enter("xquery.xq2sql");
            let translated = translate(&parsed, &self.catalog).map_err(text_err)?;
            tracer.exit(s);

            let s = tracer.enter("relstore.plan");
            xq.db().query(&translated.sql).planned().map_err(text_err)?;
            tracer.exit(s);

            let s = tracer.enter("relstore.exec");
            let outcome = xq.db().query(&translated.sql).run().map_err(text_err)?;
            tracer.exit(s);
            tally.staged_reruns += 1;
            let rows = outcome.rows.into_rows();

            let s = tracer.enter("core.tag");
            let (root, row) = match &parsed.wrapper {
                Some(tag) => (format!("{tag}_list"), tag.clone()),
                None => ("results".to_string(), "result".to_string()),
            };
            let doc =
                tagger::tag_rows(&root, &row, &translated.columns, &rows).map_err(text_err)?;
            tracer.exit(s);

            let s = tracer.enter("xml.write");
            std::hint::black_box(xomatiq_xml::to_string(&doc));
            tracer.exit(s);
            results.push(doc);
        }
        let mut panels = Vec::with_capacity(HITS_SHOWN);
        for id in first_cells(&results[1], HITS_SHOWN) {
            let s = tracer.enter("core.reconstruct");
            let doc = xq.reconstruct(ENZYME, &id).map_err(text_err)?;
            tracer.exit(s);
            let s = tracer.enter("xml.write");
            let text = xomatiq_xml::to_string(&doc);
            tracer.exit(s);
            panels.push((id, text));
        }
        self.catalog.drain_into(tally);
        Ok(Shown { results, panels })
    }

    fn correct(&self, shown: &Shown) -> bool {
        let rows_match = QUERIES
            .iter()
            .zip(&shown.results)
            .zip(&self.wl.truth)
            .all(|(((_, _, cells), doc), want)| fingerprint(doc, *cells) == *want);
        let shown_hits = HITS_SHOWN.min(self.wl.hits);
        rows_match
            && shown.panels.len() == shown_hits
            && shown
                .panels
                .iter()
                .all(|(id, text)| text.contains(&format!("<enzyme_id>{id}</enzyme_id>")))
    }
}

/// An order-independent fingerprint of a tagged result: the row count and
/// the wrapping sum of a hash of each row's leading `cells` cells.
fn fingerprint(doc: &Document, cells: usize) -> Fingerprint {
    let Some(root) = doc.root_element() else {
        return (0, 0);
    };
    doc.child_elements(root)
        .fold((0u64, 0u64), |(rows, sum), row| {
            let key = doc
                .child_elements(row)
                .take(cells)
                .map(|c| cell_text(doc, c));
            (rows + 1, sum.wrapping_add(row_hash(key)))
        })
}

impl Worker for Round<'_> {
    fn op(&mut self, mode: Mode, probe: &mut Probe) -> OpResult {
        let t = Instant::now();
        let root = probe.tracer.enter("harness.glue");
        let shown = match mode {
            Mode::Facade => self.facade(probe),
            Mode::Staged => self.staged(probe),
        };
        probe.tracer.exit(root);
        let latency = t.elapsed();
        let shown = shown?;
        Ok((latency, self.correct(&shown)))
    }
}
