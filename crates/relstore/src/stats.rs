//! Table and column statistics for the cost-based planner.
//!
//! The paper's query pipeline bottoms out in SQL over the generic schema,
//! where join order and access-path choice decide whether a proteome-scale
//! query is interactive or not. This module lifts the per-segment zone
//! maps up to durable *per-table* statistics the planner can consult:
//!
//! * exact row counts, maintained incrementally on every commit,
//! * per-column min/max bounds and null counts,
//! * a distinct-value (NDV) estimate per column, backed by a
//!   HyperLogLog-style sketch (zero dependencies, 4 KiB per column).
//!
//! Column-level statistics are collected by `ANALYZE [TABLE <t>]` and are
//! rebuilt lazily: mutations only bump a staleness counter, and once the
//! churn since the last scan crosses `REBUILD_FRACTION` of the analyzed
//! row count the next mutation rescans that table and draws a new
//! storage generation. The whole catalog lives on the MVCC `Storage`
//! root, so a pinned query always plans against the statistics of *its*
//! snapshot, and the plan cache tags entries with the root's generation
//! so `ANALYZE` invalidates stale plans.

use std::collections::BTreeMap;

use crate::schema::TableSchema;
use crate::value::Value;

/// Register-index bits of the NDV sketch: 2^12 = 4096 registers, which
/// puts the standard error around `1.04 / sqrt(4096)` ≈ 1.6%.
const SKETCH_BITS: u32 = 12;
const SKETCH_REGISTERS: usize = 1 << SKETCH_BITS;

/// Fraction of the analyzed row count that may churn before the next
/// mutation rebuilds a table's column statistics in place.
const REBUILD_FRACTION: u64 = 5; // denominator: rebuild after rows/5 churn

/// A HyperLogLog-style distinct-count sketch over hashed [`Value`]s.
///
/// Insertion routes each hash to one of 4096 registers by its low bits
/// and records the longest run of leading zeros seen in the remaining
/// bits; the harmonic mean of the registers estimates the cardinality.
/// Small cardinalities fall back to linear counting over the empty
/// registers, which keeps the estimate exact-ish well below 4096.
#[derive(Clone, Debug)]
pub struct NdvSketch {
    registers: Vec<u8>,
}

impl Default for NdvSketch {
    fn default() -> Self {
        NdvSketch {
            registers: vec![0; SKETCH_REGISTERS],
        }
    }
}

impl NdvSketch {
    /// Records one value occurrence.
    pub fn insert(&mut self, value: &Value) {
        let h = hash_value(value);
        let idx = (h & (SKETCH_REGISTERS as u64 - 1)) as usize;
        // Rank of the first set bit in the remaining 52 hash bits, 1-based.
        let rest = h >> SKETCH_BITS;
        let rank = (rest.trailing_zeros().min(64 - SKETCH_BITS) + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// The estimated number of distinct inserted values (at least 1 once
    /// anything was inserted).
    pub fn estimate(&self) -> u64 {
        let m = SKETCH_REGISTERS as f64;
        let mut sum = 0.0;
        let mut zeros = 0usize;
        for &r in &self.registers {
            sum += 1.0 / f64::from(1u32 << u32::from(r.min(63)));
            if r == 0 {
                zeros += 1;
            }
        }
        if zeros == SKETCH_REGISTERS {
            return 0;
        }
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        // Linear counting handles the small-cardinality regime where the
        // harmonic estimator biases high.
        let est = if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        (est.round() as u64).max(1)
    }
}

/// A 64-bit mix of one value, stable across runs (no per-process seeds):
/// the sketch must estimate identically whether it was built in one
/// `ANALYZE` or rebuilt after recovery.
fn hash_value(value: &Value) -> u64 {
    fn mix(mut h: u64, word: u64) -> u64 {
        // splitmix64-style avalanche per word.
        h = (h ^ word).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
    match value {
        Value::Null => mix(0x9e37_79b9_7f4a_7c15, 0),
        // Int and Float hash through f64 bits exactly like `Value::hash`,
        // so `2` and `2.0` count as one distinct value here too.
        Value::Int(i) => mix(1, (*i as f64).to_bits()),
        Value::Float(f) => mix(1, f.to_bits()),
        Value::Text(s) => {
            let mut h = 2u64;
            for chunk in s.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h = mix(h, u64::from_le_bytes(word));
            }
            mix(h, s.len() as u64)
        }
    }
}

/// Statistics for one column of an analyzed table.
#[derive(Clone, Debug)]
pub struct ColumnStats {
    /// Column name (lowercase not required; matched case-insensitively).
    pub name: String,
    /// Smallest non-null value seen at the last scan.
    pub min: Option<Value>,
    /// Largest non-null value seen at the last scan.
    pub max: Option<Value>,
    /// NULLs seen at the last scan.
    pub null_count: u64,
    /// Cached NDV estimate from `sketch`.
    pub ndv: u64,
    /// The distinct-count sketch behind `ndv`.
    pub(crate) sketch: NdvSketch,
}

impl ColumnStats {
    /// Fraction of rows that were NULL at the last scan, in `[0, 1]`.
    pub fn null_fraction(&self, analyzed_rows: u64) -> f64 {
        if analyzed_rows == 0 {
            0.0
        } else {
            self.null_count as f64 / analyzed_rows as f64
        }
    }
}

/// Statistics for one table.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    /// Live rows right now — maintained exactly on every mutation, so it
    /// is trustworthy even when the column statistics are stale.
    pub row_count: u64,
    /// Live rows when the column statistics were last scanned.
    pub analyzed_rows: u64,
    /// Mutations since the last scan; drives the lazy rebuild.
    pub(crate) churn: u64,
    /// Per-column statistics, in schema order. Empty until `ANALYZE`.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Whether column statistics have been collected (via `ANALYZE` or a
    /// lazy rebuild) and may inform selectivity estimates.
    pub fn analyzed(&self) -> bool {
        !self.columns.is_empty()
    }

    /// Statistics for `column`, when analyzed.
    pub fn column(&self, column: &str) -> Option<&ColumnStats> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(column))
    }

    /// Whether enough churn accumulated since the last scan that the
    /// column statistics should be rebuilt. A small floor stops tiny
    /// tables from rescanning on every statement.
    pub(crate) fn needs_rebuild(&self) -> bool {
        self.analyzed() && self.churn >= (self.analyzed_rows / REBUILD_FRACTION).max(16)
    }

    /// Scans `rows` and replaces the column statistics.
    pub(crate) fn rescan<I, R>(&mut self, schema: &TableSchema, rows: I)
    where
        I: Iterator<Item = R>,
        R: AsRef<[Value]>,
    {
        let mut columns: Vec<ColumnStats> = schema
            .columns
            .iter()
            .map(|c| ColumnStats {
                name: c.name.clone(),
                min: None,
                max: None,
                null_count: 0,
                ndv: 0,
                sketch: NdvSketch::default(),
            })
            .collect();
        let mut scanned = 0u64;
        for row in rows {
            scanned += 1;
            for (col, value) in columns.iter_mut().zip(row.as_ref().iter()) {
                if value.is_null() {
                    col.null_count += 1;
                    continue;
                }
                col.sketch.insert(value);
                let lower = match &col.min {
                    Some(m) => value.total_cmp(m).is_lt(),
                    None => true,
                };
                if lower {
                    col.min = Some(value.clone());
                }
                let higher = match &col.max {
                    Some(m) => value.total_cmp(m).is_gt(),
                    None => true,
                };
                if higher {
                    col.max = Some(value.clone());
                }
            }
        }
        for col in &mut columns {
            col.ndv = if scanned == col.null_count {
                0
            } else {
                col.sketch.estimate().min(scanned - col.null_count)
            };
        }
        self.row_count = scanned;
        self.analyzed_rows = scanned;
        self.churn = 0;
        self.columns = columns;
    }
}

/// All table statistics of one `Storage` snapshot.
#[derive(Clone, Debug, Default)]
pub struct StatsCatalog {
    tables: BTreeMap<String, TableStats>,
}

impl StatsCatalog {
    /// Statistics for `table` (case-insensitive), when tracked.
    pub fn table(&self, table: &str) -> Option<&TableStats> {
        self.tables.get(&table.to_ascii_lowercase())
    }

    pub(crate) fn table_mut(&mut self, table: &str) -> &mut TableStats {
        self.tables.entry(table.to_ascii_lowercase()).or_default()
    }

    /// Mutable statistics for `table` only when already tracked — keeps
    /// code paths that bypass `create_table` (e.g. legacy replay) from
    /// creating entries with undercounted rows.
    pub(crate) fn existing_mut(&mut self, table: &str) -> Option<&mut TableStats> {
        self.tables.get_mut(&table.to_ascii_lowercase())
    }

    pub(crate) fn remove(&mut self, table: &str) {
        self.tables.remove(&table.to_ascii_lowercase());
    }

    /// Tables with collected statistics, in name order.
    pub fn analyzed_tables(&self) -> impl Iterator<Item = (&str, &TableStats)> {
        self.tables
            .iter()
            .filter(|(_, t)| t.analyzed())
            .map(|(n, t)| (n.as_str(), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: impl Iterator<Item = Value>) -> NdvSketch {
        let mut s = NdvSketch::default();
        for v in values {
            s.insert(&v);
        }
        s
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        assert_eq!(NdvSketch::default().estimate(), 0);
    }

    #[test]
    fn sketch_is_exactish_at_small_cardinalities() {
        for n in [1u64, 5, 50, 500] {
            let est = sketch_of((0..n).map(|i| Value::Int(i as i64))).estimate();
            let err = est.abs_diff(n) as f64 / n as f64;
            assert!(err <= 0.05, "n={n} est={est}");
        }
    }

    #[test]
    fn sketch_within_15_percent_at_100k_distinct_ints() {
        let n = 100_000u64;
        let est = sketch_of((0..n).map(|i| Value::Int(i as i64))).estimate();
        let err = est.abs_diff(n) as f64 / n as f64;
        assert!(err <= 0.15, "est={est} err={err:.3}");
    }

    #[test]
    fn sketch_within_15_percent_at_100k_distinct_texts() {
        let n = 100_000u64;
        let est = sketch_of((0..n).map(|i| Value::Text(format!("path/{i}/val")))).estimate();
        let err = est.abs_diff(n) as f64 / n as f64;
        assert!(err <= 0.15, "est={est} err={err:.3}");
    }

    #[test]
    fn sketch_ignores_duplicates() {
        let est = sketch_of((0..200_000).map(|i| Value::Int(i % 100))).estimate();
        let err = est.abs_diff(100) as f64 / 100.0;
        assert!(err <= 0.15, "est={est}");
    }

    #[test]
    fn int_and_float_count_as_one_distinct_value() {
        let mut s = NdvSketch::default();
        s.insert(&Value::Int(7));
        s.insert(&Value::Float(7.0));
        assert_eq!(s.estimate(), 1);
    }

    #[test]
    fn rescan_collects_min_max_nulls_and_ndv() {
        use crate::schema::Column;
        use crate::value::DataType;
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Text),
            ],
        );
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    if i % 10 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 7)
                    },
                    Value::Text(format!("k{}", i % 3)),
                ]
            })
            .collect();
        let mut stats = TableStats::default();
        stats.rescan(&schema, rows.iter().map(|r| r.as_slice()));
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.analyzed_rows, 100);
        let a = stats.column("a").unwrap();
        assert_eq!(a.null_count, 10);
        assert_eq!(a.min, Some(Value::Int(0)));
        assert_eq!(a.max, Some(Value::Int(6)));
        assert_eq!(a.ndv, 7);
        let b = stats.column("B").unwrap();
        assert_eq!(b.ndv, 3);
        assert_eq!(b.min, Some(Value::Text("k0".into())));
        assert_eq!(b.max, Some(Value::Text("k2".into())));
    }

    #[test]
    fn rebuild_threshold_has_a_floor() {
        let mut stats = TableStats {
            analyzed_rows: 10,
            columns: vec![ColumnStats {
                name: "a".into(),
                min: None,
                max: None,
                null_count: 0,
                ndv: 1,
                sketch: NdvSketch::default(),
            }],
            ..TableStats::default()
        };
        stats.churn = 10;
        assert!(!stats.needs_rebuild(), "small tables do not thrash");
        stats.churn = 16;
        assert!(stats.needs_rebuild());
        stats.columns.clear();
        assert!(!stats.needs_rebuild(), "unanalyzed tables never rebuild");
    }
}
