#![warn(missing_docs)]

//! # xomatiq-datahounds
//!
//! The Data Hounds component (paper §2): harvesting biological databases
//! into local XML, and shredding that XML into the relational warehouse.
//!
//! * [`transform`] — the per-source **XML-Transformers** (§2.1): each of
//!   ENZYME, EMBL and Swiss-Prot gets a DTD (Figure 5 for ENZYME) and a
//!   converter from its typed flat record to a DTD-valid XML document
//!   (Figure 6). Every produced document validates against its DTD.
//! * [`shred`] — the **XML2Relational-Transformer** (§2.2): two published
//!   shredding strategies bracketing the paper's proprietary generic
//!   schema — the *Edge* approach (one node table with parent/ordinal
//!   columns) and *Interval* region encoding (start/end/level, Zhang et
//!   al. \[48], which the paper cites as an inspiration). Both preserve
//!   document order as a data value, split attributes into their own
//!   table, store a numeric shadow column for values that parse as
//!   numbers, and support full document reconstruction.
//! * [`update`] — incremental re-synchronization against a changed source
//!   plus change **triggers**: "once the changes have been committed to
//!   the local warehouse, the Data Hounds sends out triggers to related
//!   applications" (§2.2 end).
//! * [`source`] — the orchestrator: register a source, load it end-to-end
//!   (flat text → records → XML → validate → shred → index), update it.
//!
//! ```
//! use std::sync::Arc;
//! use xomatiq_datahounds::{DataHounds, SourceKind};
//! use xomatiq_datahounds::source::LoadOptions;
//! use xomatiq_relstore::Database;
//!
//! let db = Arc::new(Database::in_memory());
//! let hounds = DataHounds::new(Arc::clone(&db)).unwrap();
//! hounds
//!     .load_source(
//!         "hlx_enzyme.DEFAULT",
//!         SourceKind::Enzyme,
//!         xomatiq_bioflat::enzyme::FIGURE2_SAMPLE,
//!         LoadOptions::default(),
//!     )
//!     .unwrap();
//! assert_eq!(hounds.doc_count("hlx_enzyme.DEFAULT").unwrap(), 1);
//! let doc = hounds.reconstruct("hlx_enzyme.DEFAULT", "1.14.17.3").unwrap();
//! assert!(xomatiq_xml::to_string(&doc).contains("Peptidylglycine"));
//! ```

pub mod error;
pub(crate) mod metrics;
pub mod shred;
pub mod source;
pub mod transform;
pub mod update;

pub use error::{HoundError, HoundResult};
pub use shred::{ShredStats, ShreddingStrategy};
pub use source::{DataHounds, QuarantineRecord, SourceKind};
pub use update::{ChangeEvent, ChangeKind, TriggerHub};
