//! Seeded inputs: the corpus with its planted ground truth, the cycle of
//! churned ENZYME snapshots, and the stream of point-lookup ids.
//!
//! Everything here is a pure function of the seed. The sizes of the planted
//! sets are fixed, not drawn, so the work an op does is the same for every
//! seed and runs with different seeds can be compared.

use xomatiq_bioflat::embl::Qualifier;
use xomatiq_bioflat::{Corpus, CorpusSpec, EnzymeEntry};

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// The indices `0..n` in a seeded random order.
    pub fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Shares of each database that carry a planted marker; the same rates the
/// repository's own benches use.
const CDC6_SHARE: f64 = 0.05;
const KETONE_SHARE: f64 = 0.10;
const EC_LINK_SHARE: f64 = 0.30;

fn share_of(n: usize, share: f64) -> usize {
    ((n as f64 * share).round() as usize).max(1)
}

/// A three-database corpus of `per_db` entries each with exactly
/// `share × per_db` planted `cdc6` mentions (EMBL and Swiss-Prot), `ketone`
/// activities (ENZYME) and EC-number links (EMBL → ENZYME). The entries come
/// from the repository's generator with planting switched off; which entries
/// carry a marker is then drawn from the seed. The truth lists of the
/// returned [`Corpus`] describe exactly what was planted.
pub fn planted_corpus(seed: u64, per_db: usize) -> Corpus {
    let mut corpus = Corpus::generate(&CorpusSpec {
        enzymes: per_db,
        embl: per_db,
        swissprot: per_db,
        seed,
        keyword_rate: 0.0,
        link_rate: 0.0,
        ketone_rate: 0.0,
    });
    let mut rng = Rng::new(seed ^ 0x706c_616e_7465_6421);

    for &i in rng
        .shuffled(per_db)
        .iter()
        .take(share_of(per_db, KETONE_SHARE))
    {
        let entry = &mut corpus.enzymes[i];
        let activity = &mut entry.catalytic_activities[0];
        let substrates = activity.split(" = ").next().unwrap_or("Substrate");
        *activity = format!("{substrates} = the corresponding ketone + H(2)O");
        corpus.ketone_enzymes.push(entry.id.clone());
    }
    for &i in rng
        .shuffled(per_db)
        .iter()
        .take(share_of(per_db, CDC6_SHARE))
    {
        let entry = &mut corpus.embl[i];
        entry.description = format!(
            "{} mRNA for cell division cycle protein cdc6.",
            entry.organism
        );
        entry.keywords.push("cdc6".into());
        corpus.cdc6_embl.push(entry.accession.clone());
    }
    for &i in rng
        .shuffled(per_db)
        .iter()
        .take(share_of(per_db, CDC6_SHARE))
    {
        let entry = &mut corpus.swissprot[i];
        entry.description = "Cell division control protein cdc6 homolog.".into();
        entry.keywords.push("cdc6".into());
        corpus.cdc6_swissprot.push(entry.accession.clone());
    }
    for &i in rng
        .shuffled(per_db)
        .iter()
        .take(share_of(per_db, EC_LINK_SHARE))
    {
        let ec = corpus.enzymes[rng.below(per_db)].id.clone();
        let entry = &mut corpus.embl[i];
        let cds = entry
            .features
            .last_mut()
            .expect("generated entries have a CDS");
        cds.qualifiers.push(Qualifier {
            name: "EC_number".into(),
            value: ec.clone(),
        });
        corpus.planted_ec_links.push((entry.accession.clone(), ec));
    }
    corpus
}

/// Snapshots in one churn cycle. Even, because every modified entry flips
/// between two variants and must be back where it started after a cycle.
pub const CHURN_CYCLE: usize = 8;
/// Share of the entries whose text differs from the previous snapshot.
pub const CHURN_MODIFIED: f64 = 0.05;
/// Share of the entries dropped from, and as many re-added to, a snapshot.
pub const CHURN_REMOVED: f64 = 0.01;

const REVISED_COMMENT: &str = "Annotation revised by the curators in this release.";

/// A closed cycle of ENZYME snapshots for the re-sync workload.
pub struct ChurnCycle {
    /// `CHURN_CYCLE` snapshots; `entries[k]` follows `entries[k - 1]` and
    /// `entries[0]` follows the last one.
    pub entries: Vec<Vec<EnzymeEntry>>,
    /// `entries[k]` as one flat file.
    pub flats: Vec<String>,
    /// For snapshot `k`, one entry that differs from snapshot `k - 1`.
    pub witness: Vec<EnzymeEntry>,
}

/// Builds the cycle from the corpus's ENZYME entries. Going from snapshot
/// `k` to `k + 1` modifies `CHURN_MODIFIED` of the base entries, removes
/// `CHURN_REMOVED` of them and re-adds the ones the step before removed; no
/// entry is in two of these sets at one step.
pub fn churn_cycle(seed: u64, base: &[EnzymeEntry]) -> ChurnCycle {
    let n = base.len();
    let modified = share_of(n, CHURN_MODIFIED);
    let removed = share_of(n, CHURN_REMOVED);
    let groups = CHURN_CYCLE / 2;
    assert!(
        CHURN_CYCLE * removed + groups * modified <= n,
        "corpus too small for a churn cycle"
    );
    let order = Rng::new(seed ^ 0x6368_7572_6e21).shuffled(n);
    // Snapshot k lacks `gone[k]`; step k -> k+1 flips the variant of
    // `flipped[k % groups]`, so each group flips twice per cycle.
    let (gone, rest) = order.split_at(CHURN_CYCLE * removed);
    let gone: Vec<&[usize]> = gone.chunks(removed).collect();
    let flipped: Vec<&[usize]> = rest[..groups * modified].chunks(modified).collect();

    let mut revised = vec![false; n];
    let mut entries = Vec::with_capacity(CHURN_CYCLE);
    let mut witness = Vec::with_capacity(CHURN_CYCLE);
    for (k, gone) in gone.iter().enumerate() {
        // The flip that leads into snapshot k (snapshot 0 is led into by
        // the last step of the cycle, which restores the base variants).
        let step = (k + CHURN_CYCLE - 1) % CHURN_CYCLE;
        if k > 0 {
            for &i in flipped[step % groups] {
                revised[i] = !revised[i];
            }
        }
        let variant = |i: usize| {
            let mut entry = base[i].clone();
            if revised[i] {
                entry.comments = vec![REVISED_COMMENT.to_string()];
            }
            entry
        };
        entries.push(
            (0..n)
                .filter(|i| !gone.contains(i))
                .map(variant)
                .collect::<Vec<_>>(),
        );
        witness.push(variant(flipped[step % groups][0]));
    }
    let flats = entries
        .iter()
        .map(|snapshot| snapshot.iter().map(EnzymeEntry::to_flat).collect())
        .collect();
    ChurnCycle {
        entries,
        flats,
        witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use xomatiq_bioflat::enzyme::parse_enzyme_file;

    #[test]
    fn planted_sets_have_fixed_sizes_and_match_content() {
        for seed in [1, 2] {
            let c = planted_corpus(seed, 200);
            assert_eq!(c.ketone_enzymes.len(), 20);
            assert_eq!(c.cdc6_embl.len(), 10);
            assert_eq!(c.cdc6_swissprot.len(), 10);
            assert_eq!(c.planted_ec_links.len(), 60);
            let ketone = c
                .enzymes
                .iter()
                .filter(|e| e.catalytic_activities.iter().any(|a| a.contains("ketone")));
            assert_eq!(ketone.count(), 20);
            let cdc6 = c.embl.iter().filter(|e| e.description.contains("cdc6"));
            assert_eq!(cdc6.count(), 10);
        }
        let (a, b) = (planted_corpus(1, 200), planted_corpus(2, 200));
        assert_ne!(a.ketone_enzymes, b.ketone_enzymes);
        assert_eq!(a.cdc6_embl, planted_corpus(1, 200).cdc6_embl);
    }

    #[test]
    fn different_seeds_give_different_id_sequences() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..32).map(|_| rng.below(2000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    fn keyed(entries: &[EnzymeEntry]) -> BTreeMap<String, String> {
        entries
            .iter()
            .map(|e| (e.id.clone(), e.to_flat()))
            .collect()
    }

    #[test]
    fn churn_cycle_is_deterministic_and_changes_the_advertised_shares() {
        let base = planted_corpus(7, 400).enzymes;
        let cycle = churn_cycle(7, &base);
        assert_eq!(cycle.flats, churn_cycle(7, &base).flats);
        assert_ne!(cycle.flats, churn_cycle(8, &base).flats);
        assert_eq!(cycle.flats.len(), CHURN_CYCLE);

        for k in 0..CHURN_CYCLE {
            // What the product will see is exactly what was generated.
            assert_eq!(
                parse_enzyme_file(&cycle.flats[k]).unwrap(),
                cycle.entries[k]
            );
            assert_eq!(cycle.entries[k].len(), 400 - 4);

            let old = keyed(&cycle.entries[(k + CHURN_CYCLE - 1) % CHURN_CYCLE]);
            let new = keyed(&cycle.entries[k]);
            let removed = old.keys().filter(|id| !new.contains_key(*id)).count();
            let added = new.keys().filter(|id| !old.contains_key(*id)).count();
            let modified = new
                .iter()
                .filter(|(id, flat)| old.get(*id).is_some_and(|o| o != *flat))
                .count();
            assert_eq!((modified, removed, added), (20, 4, 4), "into snapshot {k}");

            let witness = &cycle.witness[k];
            assert_eq!(new[&witness.id], witness.to_flat());
            assert_ne!(old[&witness.id], witness.to_flat());
        }
    }
}
