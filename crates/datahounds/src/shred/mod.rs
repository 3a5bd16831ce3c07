//! The XML2Relational-Transformer (paper §2.2).
//!
//! The paper stores XML in a *generic* relational schema whose exact
//! layout is proprietary; it cites the Edge-table and region-interval
//! literature as its inspiration, so this module implements both and the
//! benches ablate the choice. The two are two ways to link the same node
//! rows — one pre-order walk emits every row, and the strategy fills only
//! the linkage columns:
//!
//! * **Edge** — `node_id` is the node's arena id and `parent_id` links it
//!   to its parent (`ord` gives its place among the siblings). Descendant
//!   navigation needs path information, because parent links go one level
//!   at a time.
//! * **Interval** — region encoding after Zhang et al. \[48]: each node
//!   carries the `(start, stop)` of its region in the walk, and `node_id`
//!   is its `start`. Descendant-or-self is then the pure-SQL test
//!   `d.start > a.start AND d.start < a.stop AND d.doc_id = a.doc_id` — no
//!   recursion, no path strings — which is why the paper's literature
//!   favours it for ancestor/descendant-heavy workloads.
//!
//! Both strategies share the paper's §2.2 design points:
//!
//! * **generic schema** — table shapes are independent of any DTD;
//! * **document order as a data value** — `ord` (and `start`) columns;
//! * **string vs numeric data** — every value row carries a `num_val`
//!   shadow column holding its numeric interpretation when one exists;
//! * **sequence vs non-sequence data** — `sequence` elements are flagged
//!   in `is_seq` so sequence-directed queries can target or avoid them;
//! * **keyword search support** — a keyword index over element text.
//!
//! Element rows additionally carry the concatenated text of their direct
//! text children in `val`, which keeps XQ2SQL's generated SQL flat (no
//! self-join per text access); the discrete text rows still exist for
//! reconstruction and mixed content.

use std::collections::HashMap;

use xomatiq_relstore::{Database, RelResult, Value};
use xomatiq_xml::{Document, NodeId, NodeKind};

use crate::error::{HoundError, HoundResult};

/// Which generic schema a collection is shredded into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShreddingStrategy {
    /// Parent/ordinal Edge encoding.
    Edge,
    /// Start/stop region-interval encoding.
    Interval,
}

impl ShreddingStrategy {
    /// Stable name used in the warehouse metadata table.
    pub fn name(self) -> &'static str {
        match self {
            ShreddingStrategy::Edge => "edge",
            ShreddingStrategy::Interval => "interval",
        }
    }

    /// Parses a stored strategy name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "edge" => Some(ShreddingStrategy::Edge),
            "interval" => Some(ShreddingStrategy::Interval),
            _ => None,
        }
    }
}

/// Row counts produced by shredding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShredStats {
    /// Documents shredded.
    pub documents: usize,
    /// Element rows inserted.
    pub elements: usize,
    /// Text rows inserted.
    pub texts: usize,
    /// Attribute rows inserted.
    pub attributes: usize,
}

impl std::ops::AddAssign for ShredStats {
    fn add_assign(&mut self, rhs: ShredStats) {
        self.documents += rhs.documents;
        self.elements += rhs.elements;
        self.texts += rhs.texts;
        self.attributes += rhs.attributes;
    }
}

/// Escapes a string for inclusion in a single-quoted SQL literal.
pub fn sql_quote(s: &str) -> String {
    s.replace('\'', "''")
}

/// The table-name prefix for a collection name such as `hlx_embl.inv`.
pub fn collection_prefix(collection: &str) -> String {
    let mut out = String::with_capacity(collection.len());
    for c in collection.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    out
}

/// Creates the tables for a collection under `prefix`.
///
/// The layout is shared between strategies except for the node linkage
/// columns; unused columns hold NULL, which keeps reconstruction and
/// XQ2SQL generation uniform.
pub fn create_collection_tables(db: &Database, prefix: &str) -> RelResult<()> {
    db.query(&format!(
        "CREATE TABLE {prefix}_docs (doc_id INT, entry_key TEXT, root TEXT)"
    ))
    .run()?;
    db.query(&format!(
        "CREATE TABLE {prefix}_nodes (doc_id INT, node_id INT, parent_id INT, ord INT, \
         start INT, stop INT, level INT, kind TEXT, name TEXT, path TEXT, val TEXT, \
         num_val FLOAT, is_seq INT)"
    ))
    .run()?;
    db.query(&format!(
        "CREATE TABLE {prefix}_attrs (doc_id INT, owner INT, aname TEXT, aval TEXT, \
         num_val FLOAT, path TEXT)"
    ))
    .run()?;
    db.query(&format!("CREATE TABLE {prefix}_paths (path TEXT)"))
        .run()?;
    Ok(())
}

/// Creates the paper's §3.2 index set over a collection's tables.
pub fn create_collection_indexes(db: &Database, prefix: &str) -> RelResult<()> {
    db.query(&format!(
        "CREATE INDEX {prefix}_nodes_path ON {prefix}_nodes (path, val)"
    ))
    .run()?;
    db.query(&format!(
        "CREATE INDEX {prefix}_nodes_doc ON {prefix}_nodes (doc_id)"
    ))
    .run()?;
    db.query(&format!(
        "CREATE INDEX {prefix}_attrs_path ON {prefix}_attrs (path, aval)"
    ))
    .run()?;
    db.query(&format!(
        "CREATE INDEX {prefix}_attrs_doc ON {prefix}_attrs (doc_id)"
    ))
    .run()?;
    db.query(&format!(
        "CREATE INDEX {prefix}_docs_doc ON {prefix}_docs (doc_id)"
    ))
    .run()?;
    db.query(&format!(
        "CREATE KEYWORD INDEX {prefix}_nodes_kw ON {prefix}_nodes (val)"
    ))
    .run()?;
    Ok(())
}

/// Builds the SQL statements that shred one document into the collection
/// under `prefix`, without executing them.
///
/// Callers fold the returned statements into a larger atomic batch (e.g.
/// together with the collection's `_src` bookkeeping row) so an entry's
/// tuples land in a single WAL transaction. `doc_id` must be unique within
/// the collection; `entry_key` is the stable source identifier (EC number
/// / accession) used by updates.
pub fn shred_statements(
    db: &Database,
    prefix: &str,
    strategy: ShreddingStrategy,
    doc_id: u64,
    entry_key: &str,
    doc: &Document,
) -> HoundResult<(Vec<String>, ShredStats)> {
    let root = doc
        .root_element()
        .ok_or_else(|| HoundError::Pipeline("cannot shred an empty document".into()))?;
    let mut rows = Rows {
        doc,
        doc_id,
        strategy,
        counter: 0,
        nodes: Vec::new(),
        attrs: Vec::new(),
        paths: Vec::new(),
        stats: ShredStats {
            documents: 1,
            ..ShredStats::default()
        },
    };
    rows.walk(root);

    let mut statements = vec![format!(
        "INSERT INTO {prefix}_docs VALUES ({doc_id}, '{}', '{}')",
        sql_quote(entry_key),
        sql_quote(doc.node(root).name().expect("root is an element"))
    )];
    for (table, values) in [("nodes", &rows.nodes), ("attrs", &rows.attrs)] {
        if !values.is_empty() {
            statements.push(format!(
                "INSERT INTO {prefix}_{table} VALUES {}",
                values.join(", ")
            ));
        }
    }

    // Register any paths not yet in the paths catalog.
    rows.paths.sort();
    rows.paths.dedup();
    let known: std::collections::HashSet<String> = db
        .query(&format!("SELECT path FROM {prefix}_paths"))
        .run()?
        .rows
        .into_iter()
        .filter_map(|row| row.try_get::<String>("path").ok().flatten())
        .collect();
    let fresh: Vec<String> = rows
        .paths
        .iter()
        .filter(|p| !known.contains(*p))
        .map(|p| format!("('{}')", sql_quote(p)))
        .collect();
    if !fresh.is_empty() {
        statements.push(format!(
            "INSERT INTO {prefix}_paths VALUES {}",
            fresh.join(", ")
        ));
    }

    Ok((statements, rows.stats))
}

/// Shreds one document into the collection under `prefix`, executing all
/// of its tuples as a single atomic batch.
pub fn shred_document(
    db: &Database,
    prefix: &str,
    strategy: ShreddingStrategy,
    doc_id: u64,
    entry_key: &str,
    doc: &Document,
) -> HoundResult<ShredStats> {
    let (statements, stats) = shred_statements(db, prefix, strategy, doc_id, entry_key, doc)?;
    let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
    db.execute_batch(&refs)?;
    Ok(stats)
}

/// Builds the SQL statements that delete every tuple belonging to `doc_id`
/// in the collection, without executing them.
pub fn delete_statements(prefix: &str, doc_id: u64) -> Vec<String> {
    vec![
        format!("DELETE FROM {prefix}_nodes WHERE doc_id = {doc_id}"),
        format!("DELETE FROM {prefix}_attrs WHERE doc_id = {doc_id}"),
        format!("DELETE FROM {prefix}_docs WHERE doc_id = {doc_id}"),
    ]
}

/// Reconstructs document `doc_id` from its tuples — the storage half of
/// the Relation2XML-Transformer (§3.3).
///
/// The rows carry their own linkage, so one loop serves both strategies.
/// They arrive in `node_id` order, which is document order (an Interval
/// row's `node_id` is its `start`), so parents precede children. A row
/// finds its parent through `parent_id` when it has one (Edge), or else as
/// the innermost open region that contains its `start` (Interval).
pub fn reconstruct_document(db: &Database, prefix: &str, doc_id: u64) -> HoundResult<Document> {
    let rows = db
        .query(&format!(
            "SELECT node_id, parent_id, stop, kind, name, val FROM {prefix}_nodes \
             WHERE doc_id = ? ORDER BY node_id"
        ))
        .bind(doc_id as i64)
        .run()?
        .rows;
    if rows.rows().is_empty() {
        return Err(HoundError::Pipeline(format!(
            "document {doc_id} has no tuples in {prefix}_nodes"
        )));
    }
    let attrs = db
        .query(&format!(
            "SELECT owner, aname, aval FROM {prefix}_attrs WHERE doc_id = ? ORDER BY owner"
        ))
        .bind(doc_id as i64)
        .run()?
        .rows;

    let mut doc = Document::new();
    // Stored node_id → rebuilt NodeId.
    let mut id_map: HashMap<u64, NodeId> = HashMap::new();
    // Open regions as (rebuilt id, stop); always empty under Edge.
    let mut open: Vec<(NodeId, u64)> = Vec::new();
    for row in rows.rows() {
        let node_id = cell_u64(&row[0])?;
        while open.last().is_some_and(|(_, stop)| node_id > *stop) {
            open.pop();
        }
        let parent = if row[1].is_null() {
            open.last().map_or(NodeId::DOCUMENT, |(id, _)| *id)
        } else {
            *id_map.get(&cell_u64(&row[1])?).ok_or_else(|| {
                HoundError::Pipeline(format!("node {node_id} arrived before its parent"))
            })?
        };
        let name = row[4].as_text().unwrap_or("");
        let val = row[5].as_text().unwrap_or("");
        let new_id = match row[3].as_text().unwrap_or("") {
            "elem" => doc.append_element(parent, name)?,
            "text" => doc.append_text(parent, val),
            "comment" => doc.append_comment(parent, val),
            "pi" => doc.append_pi(parent, name, val)?,
            other => {
                return Err(HoundError::Pipeline(format!("unknown node kind {other:?}")));
            }
        };
        if !row[2].is_null() {
            open.push((new_id, cell_u64(&row[2])?));
        }
        id_map.insert(node_id, new_id);
    }
    for row in attrs.rows() {
        let owner = cell_u64(&row[0])?;
        let target = id_map
            .get(&owner)
            .ok_or_else(|| HoundError::Pipeline(format!("attribute owner {owner} missing")))?;
        doc.set_attribute(
            *target,
            row[1].as_text().unwrap_or(""),
            row[2].as_text().unwrap_or(""),
        )?;
    }
    Ok(doc)
}

/// The rows of one document being shredded: SQL `VALUES` tuples in
/// document order, plus every element and attribute path they use.
struct Rows<'d> {
    doc: &'d Document,
    doc_id: u64,
    strategy: ShreddingStrategy,
    /// Region boundary counter: a node takes its `start` on entry and its
    /// `stop` on exit.
    counter: u64,
    nodes: Vec<String>,
    attrs: Vec<String>,
    paths: Vec<String>,
    stats: ShredStats,
}

impl Rows<'_> {
    /// Emits the rows of `id` and its subtree in pre-order. The strategy
    /// decides only the linkage: Edge stores the arena id as `node_id` plus
    /// `parent_id`; Interval stores `start` as `node_id` plus `start`/`stop`.
    fn walk(&mut self, id: NodeId) {
        let doc = self.doc;
        let start = self.counter;
        self.counter += 1;
        let (node_id, parent_id) = match self.strategy {
            ShreddingStrategy::Edge => (
                u64::from(id.as_u32()),
                doc.parent(id)
                    .filter(|p| *p != NodeId::DOCUMENT)
                    .map_or("NULL".to_string(), |p| p.as_u32().to_string()),
            ),
            ShreddingStrategy::Interval => (start, "NULL".to_string()),
        };
        let path = doc.label_path(id);
        let (kind, name, val, is_seq) = match doc.node(id).kind() {
            NodeKind::Element { name, attributes } => {
                for attr in attributes {
                    let attr_path = format!("{path}/@{}", attr.name);
                    self.attrs.push(format!(
                        "({}, {node_id}, '{}', '{}', {}, '{}')",
                        self.doc_id,
                        sql_quote(&attr.name),
                        sql_quote(&attr.value),
                        opt_num(Some(&attr.value)),
                        sql_quote(&attr_path),
                    ));
                    self.paths.push(attr_path);
                }
                self.stats.elements += 1;
                self.stats.attributes += attributes.len();
                self.paths.push(path.clone());
                // The paper's sequence/non-sequence split, keyed by the
                // transformers' `sequence` element.
                let is_seq = name == "sequence";
                ("elem", Some(name.as_str()), direct_text(doc, id), is_seq)
            }
            NodeKind::Text(t) => {
                self.stats.texts += 1;
                ("text", None, Some(t.clone()), false)
            }
            NodeKind::Comment(c) => ("comment", None, Some(c.clone()), false),
            NodeKind::ProcessingInstruction { target, data } => {
                ("pi", Some(target.as_str()), Some(data.clone()), false)
            }
            NodeKind::Document => unreachable!("the walk starts at the root element"),
        };
        // The row is written once its stop is known, in its pre-order slot.
        let slot = self.nodes.len();
        self.nodes.push(String::new());
        for child in doc.children(id) {
            self.walk(child);
        }
        let stop = self.counter;
        self.counter += 1;
        let region = match self.strategy {
            ShreddingStrategy::Edge => "NULL, NULL".to_string(),
            ShreddingStrategy::Interval => format!("{start}, {stop}"),
        };
        self.nodes[slot] = format!(
            "({}, {node_id}, {parent_id}, {}, {region}, {}, '{kind}', {}, '{}', {}, {}, {})",
            self.doc_id,
            doc.ordinal(id),
            doc.depth(id),
            opt_text(name),
            sql_quote(&path),
            opt_text(val.as_deref()),
            opt_num(val.as_deref()),
            i32::from(is_seq),
        );
    }
}

fn opt_text(v: Option<&str>) -> String {
    match v {
        Some(s) => format!("'{}'", sql_quote(s)),
        None => "NULL".into(),
    }
}

/// The numeric shadow value: the paper's string/numeric distinction means
/// values that parse as numbers are *also* stored numerically so range
/// queries compare numbers, not strings (§2.2). It is always written as a
/// float literal: `f64`'s `Display` prints magnitudes of 2^63 and more
/// without a `.`, which SQL would read as an out-of-range integer.
fn opt_num(v: Option<&str>) -> String {
    match v
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|f| f.is_finite())
    {
        // `+ 0.0` turns `-0` into `0`: a zero shadow is `0.0` whatever the
        // sign written in the text.
        Some(f) if f.fract() == 0.0 => format!("{}.0", f + 0.0),
        Some(f) => format!("{f}"),
        None => "NULL".into(),
    }
}

/// The concatenated direct text content of an element, or `None` if it has
/// no text children.
fn direct_text(doc: &Document, id: NodeId) -> Option<String> {
    let mut out: Option<String> = None;
    for child in doc.children(id) {
        if let Some(t) = doc.node(child).text() {
            out.get_or_insert_with(String::new).push_str(t);
        }
    }
    out
}

/// Fetches a value cell as u64 (helper for reconstruction queries).
fn cell_u64(v: &Value) -> HoundResult<u64> {
    v.as_int()
        .map(|i| i as u64)
        .ok_or_else(|| HoundError::Pipeline(format!("expected integer cell, got {v}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sanitization() {
        assert_eq!(collection_prefix("hlx_embl.inv"), "hlx_embl_inv");
        assert_eq!(
            collection_prefix("HLX enzyme.DEFAULT"),
            "hlx_enzyme_default"
        );
    }

    #[test]
    fn quoting() {
        assert_eq!(sql_quote("it's"), "it''s");
        assert_eq!(opt_text(Some("a'b")), "'a''b'");
        assert_eq!(opt_text(None), "NULL");
    }

    #[test]
    fn numeric_shadow_values() {
        assert_eq!(opt_num(Some("42")), "42.0");
        assert_eq!(opt_num(Some(" 2.5 ")), "2.5");
        assert_eq!(opt_num(Some("1.14.17.3")), "NULL");
        assert_eq!(opt_num(Some("Copper")), "NULL");
        assert_eq!(opt_num(None), "NULL");
        assert_eq!(opt_num(Some("inf")), "NULL");
        assert_eq!(opt_num(Some("1e19")), "10000000000000000000.0");
        assert_eq!(opt_num(Some("-0")), "0.0");
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [ShreddingStrategy::Edge, ShreddingStrategy::Interval] {
            assert_eq!(ShreddingStrategy::from_name(s.name()), Some(s));
        }
        assert_eq!(ShreddingStrategy::from_name("bogus"), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = ShredStats {
            documents: 1,
            elements: 2,
            texts: 3,
            attributes: 4,
        };
        a += ShredStats {
            documents: 1,
            elements: 1,
            texts: 1,
            attributes: 1,
        };
        assert_eq!(
            a,
            ShredStats {
                documents: 2,
                elements: 3,
                texts: 4,
                attributes: 5
            }
        );
    }
}
