//! Warehouse metadata for the translator.
//!
//! XQ2SQL needs three facts per collection: which tables hold it (the
//! prefix), which shredding strategy laid those tables out, and the set of
//! concrete label paths occurring in it (so `//` patterns can be expanded
//! to indexed equality predicates instead of runtime path matching —
//! exactly the kind of rewrite §3.2's "meticulous analysis of the query
//! plans" is about).

use xomatiq_datahounds::ShreddingStrategy;
use xomatiq_relstore::Database;

use crate::error::{QueryError, QueryResult};

/// Metadata for one warehoused collection.
#[derive(Debug, Clone)]
pub struct CollectionCatalog {
    /// The collection name as used in `document("...")`.
    pub name: String,
    /// Table-name prefix (`hlx_embl_inv`).
    pub prefix: String,
    /// The shredding strategy the collection was loaded with.
    pub strategy: ShreddingStrategy,
    /// Every concrete element label path in the collection.
    pub element_paths: Vec<String>,
    /// Every concrete attribute path (`/a/b/@attr`).
    pub attribute_paths: Vec<String>,
}

impl CollectionCatalog {
    /// Loads a collection's catalog from the warehouse's paths table.
    pub fn from_warehouse(
        db: &Database,
        name: &str,
        prefix: &str,
        strategy: ShreddingStrategy,
    ) -> QueryResult<CollectionCatalog> {
        let rows = db
            .query(&format!("SELECT path FROM {prefix}_paths"))
            .run()
            .map_err(|_| QueryError::UnknownCollection(name.to_string()))?
            .rows;
        let paths = rows.into_iter().filter_map(|row| row.get("path").ok());
        Ok(CollectionCatalog::from_paths(name, prefix, strategy, paths))
    }

    /// A collection's catalog over its paths, which keep their order: the
    /// `//` expansions, and so the SQL, follow it.
    pub fn from_paths(
        name: &str,
        prefix: &str,
        strategy: ShreddingStrategy,
        paths: impl IntoIterator<Item = String>,
    ) -> CollectionCatalog {
        let (attribute_paths, element_paths) = paths.into_iter().partition(|p| p.contains("/@"));
        CollectionCatalog {
            name: name.to_string(),
            prefix: prefix.to_string(),
            strategy,
            element_paths,
            attribute_paths,
        }
    }
}

/// Resolves `document("...")` names to collection metadata.
pub trait CatalogProvider {
    /// Looks up a collection by name.
    fn collection(&self, name: &str) -> QueryResult<CollectionCatalog>;
}

/// A static provider over a fixed set of catalogs (used in tests and by
/// callers that pre-resolve their collections).
#[derive(Debug, Clone, Default)]
pub struct StaticCatalog {
    entries: Vec<CollectionCatalog>,
}

impl StaticCatalog {
    /// Creates a provider over `entries`.
    pub fn new(entries: Vec<CollectionCatalog>) -> Self {
        StaticCatalog { entries }
    }

    /// Adds a collection.
    pub fn push(&mut self, entry: CollectionCatalog) {
        self.entries.push(entry);
    }
}

impl CatalogProvider for StaticCatalog {
    fn collection(&self, name: &str) -> QueryResult<CollectionCatalog> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .cloned()
            .ok_or_else(|| QueryError::UnknownCollection(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CollectionCatalog {
        CollectionCatalog {
            name: "c".into(),
            prefix: "c".into(),
            strategy: ShreddingStrategy::Edge,
            element_paths: vec!["/r".into(), "/r/x".into()],
            attribute_paths: vec!["/r/x/@id".into()],
        }
    }

    #[test]
    fn static_catalog_lookup() {
        let provider = StaticCatalog::new(vec![sample()]);
        assert_eq!(provider.collection("c").unwrap().prefix, "c");
        assert!(matches!(
            provider.collection("missing"),
            Err(QueryError::UnknownCollection(_))
        ));
    }
}
