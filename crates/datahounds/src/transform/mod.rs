//! The XML-Transformer (paper §2.1).
//!
//! "As biological databases are rarely exactly the same in the structure,
//! converting each one requires a special transformer" — so each source
//! gets its own module here. Every transformer publishes a DTD (the
//! contract XomatiQ's visual interface displays, §3.1) and produces one
//! XML document per source entry ("our algorithm produces one XML file per
//! entry in the sample data"), valid with respect to that DTD.

pub mod embl;
pub mod enzyme;
pub mod interpro;
pub mod relational;
pub mod swissprot;

pub use embl::{embl_dtd, embl_to_xml};
pub use enzyme::{enzyme_dtd, enzyme_to_xml};
pub use interpro::{interpro_dtd, interpro_to_xml};
pub use relational::wrap_relational_table;
pub use swissprot::{swissprot_dtd, swissprot_to_xml};

#[cfg(test)]
mod tests {
    use super::*;
    use xomatiq_bioflat::{Corpus, CorpusSpec};
    use xomatiq_xml::dtd::validate;

    /// Every document any transformer produces validates against its DTD —
    /// the §1.1 promise ("creating valid XML documents").
    #[test]
    fn all_transformer_output_is_dtd_valid() {
        let corpus = Corpus::generate(&CorpusSpec::sized(30));
        let dtd = enzyme_dtd();
        for e in &corpus.enzymes {
            let doc = enzyme_to_xml(e).unwrap();
            validate(&doc, &dtd).unwrap_or_else(|err| panic!("enzyme {}: {err}", e.id));
        }
        let dtd = embl_dtd();
        for e in &corpus.embl {
            let doc = embl_to_xml(e).unwrap();
            validate(&doc, &dtd).unwrap_or_else(|err| panic!("embl {}: {err}", e.accession));
        }
        let dtd = swissprot_dtd();
        for e in &corpus.swissprot {
            let doc = swissprot_to_xml(e).unwrap();
            validate(&doc, &dtd).unwrap_or_else(|err| panic!("sprot {}: {err}", e.accession));
        }
    }
}
