//! Inverted keyword index.
//!
//! XomatiQ extends XQuery with `contains(path, keyword, any)` — "simple
//! keyword-based queries, similar to those found in web-based search
//! engines" (§3) — and the warehouse schema is designed to "support
//! efficient keyword-based searches in the relational database system"
//! (§2.2). This module supplies that support: a tokenizer and an inverted
//! index mapping each token to the set of rows whose indexed column
//! contains it.
//!
//! The postings live in copy-on-write chunks (`chunked.rs`), each
//! token once per chunk with its row ids as a sorted run, so a one-row
//! write copies one chunk per token it touches — even for a token in
//! every document, whose posting list spans many chunks.

use std::sync::Arc;

use crate::chunked::{Postings, CHUNK_CAPACITY};
use crate::table::RowId;
use crate::value::Value;

/// Splits text into lowercase alphanumeric tokens.
///
/// Biological identifiers such as `cdc6`, EC numbers like `1.14.17.3` and
/// accession numbers like `P10731` must each survive tokenization as
/// searchable units; `.` is therefore kept inside tokens when surrounded by
/// digits (EC numbers), while all other punctuation separates.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut cur = String::new();
    for (i, &c) in chars.iter().enumerate() {
        if c.is_alphanumeric() {
            cur.extend(c.to_lowercase());
        } else if c == '.'
            && i > 0
            && chars[i - 1].is_ascii_digit()
            && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
        {
            cur.push('.');
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// An inverted index over a single text column of a table.
#[derive(Debug, Clone)]
pub struct KeywordIndex {
    /// `(token, row id)` pairs; tokens are shared, so a chunk copy bumps
    /// counts instead of cloning strings.
    postings: Postings<Arc<str>>,
    /// Indexed column position in the table schema.
    column: usize,
}

impl KeywordIndex {
    /// Creates an empty index over column position `column`.
    pub fn new(column: usize) -> Self {
        Self::with_chunk_capacity(column, CHUNK_CAPACITY)
    }

    /// As [`KeywordIndex::new`] with a custom chunk capacity (tests only).
    pub fn with_chunk_capacity(column: usize, cap: usize) -> Self {
        KeywordIndex {
            postings: Postings::with_capacity(cap),
            column,
        }
    }

    /// An index over `rows`, built in one sort rather than row by row.
    pub fn build(column: usize, rows: impl Iterator<Item = (RowId, Vec<Value>)>) -> Self {
        let mut pairs = Vec::new();
        for (id, row) in rows {
            if let Some(text) = row.get(column).and_then(Value::as_text) {
                pairs.extend(tokenize(text).into_iter().map(|token| (token, id)));
            }
        }
        KeywordIndex {
            postings: Postings::from_pairs(CHUNK_CAPACITY, pairs, |_, _| {}),
            column,
        }
    }

    /// The indexed column position.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Indexes `row`'s text under `id`. Non-text values index nothing.
    pub fn insert(&mut self, id: RowId, row: &[Value]) {
        if let Some(text) = row.get(self.column).and_then(Value::as_text) {
            for token in tokenize(text) {
                self.postings.insert(token.as_str(), id);
            }
        }
    }

    /// Removes `row`'s entries for `id`.
    pub fn remove(&mut self, id: RowId, row: &[Value]) {
        if let Some(text) = row.get(self.column).and_then(Value::as_text) {
            for token in tokenize(text) {
                self.postings.remove(token.as_str(), id);
            }
        }
    }

    /// Rows containing `keyword` as a whole token (case-insensitive), in
    /// ascending id order.
    ///
    /// A multi-token query keyword (e.g. `"cell division"`) returns rows
    /// containing *all* of its tokens, mirroring the paper's extension
    /// where keywords are "implicitly meant to be located close to one
    /// another in the same XML document".
    pub fn lookup(&self, keyword: &str) -> Vec<RowId> {
        let mut tokens = tokenize(keyword);
        // Intersect starting from the smallest posting list.
        let ids = |t: &String| self.postings.runs(t.as_str()).fold(0, |n, r| n + r.len());
        tokens.sort_by_cached_key(ids);
        let Some((first, rest)) = tokens.split_first() else {
            return Vec::new();
        };
        let ids = self.postings.runs(first.as_str()).flatten().copied();
        ids.filter(|&id| rest.iter().all(|t| self.postings.contains(t.as_str(), id)))
            .collect()
    }

    /// Number of distinct tokens indexed.
    pub fn distinct_tokens(&self) -> usize {
        let mut last = None;
        let runs = self.postings.runs_from("");
        runs.filter(|(token, _)| last.replace(*token) != Some(*token))
            .count()
    }

    /// The postings, for tests that check what a write copied.
    #[cfg(test)]
    pub(crate) fn postings(&self) -> &Postings<Arc<str>> {
        &self.postings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(
            tokenize("Cell Division Cycle"),
            vec!["cell", "division", "cycle"]
        );
        assert_eq!(tokenize("  lots -- of;punct "), vec!["lots", "of", "punct"]);
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ;;").is_empty());
    }

    #[test]
    fn tokenize_keeps_ec_numbers_whole() {
        assert_eq!(
            tokenize("EC 1.14.17.3 deficiency"),
            vec!["ec", "1.14.17.3", "deficiency"]
        );
        // Trailing period is punctuation, not part of the token.
        assert_eq!(tokenize("monooxygenase."), vec!["monooxygenase"]);
    }

    #[test]
    fn tokenize_identifiers() {
        assert_eq!(
            tokenize("protein cdc6 (P10731)"),
            vec!["protein", "cdc6", "p10731"]
        );
    }

    #[test]
    fn tokenize_unicode_lowercases() {
        assert_eq!(tokenize("Glycine-Ärm"), vec!["glycine", "ärm"]);
    }

    fn sample() -> KeywordIndex {
        let mut idx = KeywordIndex::new(1);
        let docs = [
            (0, "cell division cycle protein cdc6"),
            (1, "peptidylglycine monooxygenase"),
            (2, "the enzyme catalyzes ketone formation"),
            (3, "division of labour in the cell"),
        ];
        for (id, text) in docs {
            idx.insert(
                RowId(id),
                &[Value::Int(id as i64), Value::Text(text.into())],
            );
        }
        idx
    }

    #[test]
    fn lookup_single_token() {
        let idx = sample();
        assert_eq!(idx.lookup("cdc6"), vec![RowId(0)]);
        assert_eq!(idx.lookup("CDC6"), vec![RowId(0)]);
        let mut cells = idx.lookup("cell");
        cells.sort();
        assert_eq!(cells, vec![RowId(0), RowId(3)]);
        assert!(idx.lookup("absent").is_empty());
        assert!(idx.lookup("").is_empty());
    }

    #[test]
    fn lookup_multi_token_intersects() {
        let idx = sample();
        let mut both = idx.lookup("cell division");
        both.sort();
        assert_eq!(both, vec![RowId(0), RowId(3)]);
        assert_eq!(idx.lookup("cell ketone"), Vec::<RowId>::new());
    }

    #[test]
    fn substring_does_not_match() {
        let idx = sample();
        // Whole-token semantics: "divis" is not a token.
        assert!(idx.lookup("divis").is_empty());
    }

    #[test]
    fn remove_unindexes() {
        let mut idx = sample();
        idx.remove(
            RowId(0),
            &[
                Value::Int(0),
                Value::Text("cell division cycle protein cdc6".into()),
            ],
        );
        assert!(idx.lookup("cdc6").is_empty());
        assert_eq!(idx.lookup("division"), vec![RowId(3)]);
    }

    #[test]
    fn non_text_values_index_nothing() {
        let mut idx = KeywordIndex::new(0);
        idx.insert(RowId(1), &[Value::Int(42)]);
        idx.insert(RowId(2), &[Value::Null]);
        assert_eq!(idx.distinct_tokens(), 0);
    }
}
