//! Typed values.
//!
//! The paper makes a point of distinguishing string from numeric data even
//! though "all these data appear as strings in the biological sources"
//! (§2.2): sequence lengths, chromosome locations and homology scores must
//! compare numerically across large datasets. [`Value`] carries that
//! distinction, and [`Value::total_cmp`] provides the total order needed
//! for index keys and sorting.

use std::cmp::Ordering;
use std::fmt;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => f.write_str("INT"),
            DataType::Float => f.write_str("FLOAT"),
            DataType::Text => f.write_str("TEXT"),
        }
    }
}

/// A single cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value.
    Text(String),
}

/// Exact comparison of an `i64` against an `f64`, never rounding the
/// integer through `f64` first: above 2^53 that cast collapses distinct
/// integers onto one float (`i64::MAX as f64 == (i64::MAX - 511) as f64`),
/// which made `Int(i64::MAX)` compare `Equal` to a float it does not
/// equal. The float is split into integral and fractional parts instead;
/// both halves compare exactly. `None` iff `f` is NaN.
pub(crate) fn cmp_int_float(i: i64, f: f64) -> Option<Ordering> {
    if f.is_nan() {
        return None;
    }
    // 2^63 is exactly representable. Any finite float at or above it
    // exceeds every i64; anything strictly below -2^63 is below every
    // i64 (-2^63 itself *is* an i64). Infinities fall out of the same
    // two tests.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f >= TWO_63 {
        return Some(Ordering::Less);
    }
    if f < -TWO_63 {
        return Some(Ordering::Greater);
    }
    // Now -2^63 <= f < 2^63, so trunc(f) converts to i64 without loss.
    let t = f.trunc();
    let ti = t as i64;
    Some(match i.cmp(&ti) {
        // Same integral part: the fractional remainder decides. trunc
        // rounds toward zero, so the remainder carries the float's sign.
        Ordering::Equal if f > t => Ordering::Less,
        Ordering::Equal if f < t => Ordering::Greater,
        other => other,
    })
}

/// `-0.0` as `+0.0`: SQL `=` ([`Value::compare`]) equates the two zeros, so
/// the identity of index keys, hash-join keys, group keys and `DISTINCT`
/// ([`Value::total_cmp`], `Hash`) must too. Only the key changes; the
/// stored (and logged) float keeps its sign.
fn zero_as_one_key(f: f64) -> f64 {
    if f == 0.0 {
        0.0
    } else {
        f
    }
}

impl Value {
    /// The value's runtime type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The text content, if this is a `Text` value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric content as `f64`, coercing `Int`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Coerces the value to `ty`, as done when loading shredded tuples:
    /// source data always arrives as strings and numeric annotations must
    /// become comparable numbers. Returns `None` when the coercion fails.
    /// A value that already has the type is moved, not copied.
    pub fn coerce(self, ty: DataType) -> Option<Value> {
        match (self, ty) {
            (Value::Null, _) => Some(Value::Null),
            (v @ Value::Int(_), DataType::Int)
            | (v @ Value::Float(_), DataType::Float)
            | (v @ Value::Text(_), DataType::Text) => Some(v),
            (Value::Int(i), DataType::Float) => Some(Value::Float(i as f64)),
            (Value::Int(i), DataType::Text) => Some(Value::Text(i.to_string())),
            (Value::Float(f), DataType::Int) if f.fract() == 0.0 => Some(Value::Int(f as i64)),
            (Value::Float(f), DataType::Text) => Some(Value::Text(f.to_string())),
            (Value::Text(s), DataType::Int) => s.trim().parse().ok().map(Value::Int),
            (Value::Text(s), DataType::Float) => s.trim().parse().ok().map(Value::Float),
            _ => None,
        }
    }

    /// SQL three-valued comparison: `None` when either side is NULL or the
    /// types are incomparable. Int and Float compare numerically and
    /// *exactly* — a mixed comparison never rounds the integer to `f64`,
    /// so integers beyond ±2^53 still order correctly against floats.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => cmp_int_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => cmp_int_float(*b, *a).map(Ordering::reverse),
            _ => None,
        }
    }

    /// A total order over all values, used for index keys and `ORDER BY`:
    /// `NULL < numbers < text`; NaN sorts after all other floats. The two
    /// float zeros are one key (`zero_as_one_key`), so wherever
    /// [`Value::compare`] says `Equal` this does too.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Text(_) => 2,
            }
        }
        // An Int against a NaN float has no exact answer; treat the
        // integer as its non-NaN self under f64::total_cmp (so
        // -NaN < Int < +NaN), which keeps this a total order agreeing
        // with Float-vs-Float.
        fn int_vs_float(i: i64, f: f64) -> Ordering {
            match cmp_int_float(i, f) {
                Some(ord) => ord,
                None if f.is_sign_positive() => Ordering::Less,
                None => Ordering::Greater,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => {
                zero_as_one_key(*a).total_cmp(&zero_as_one_key(*b))
            }
            (Value::Int(a), Value::Float(b)) => int_vs_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_vs_float(*b, *a).reverse(),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// The order `MIN`/`MAX` pick their extreme by: [`Value::total_cmp`],
    /// except that the two float zeros (one key there) order
    /// `-0.0 < +0.0`, so the extreme of a multiset does not depend on the
    /// order its values arrive in.
    pub(crate) fn extreme_cmp(&self, other: &Value) -> Ordering {
        self.total_cmp(other).then_with(|| match (self, other) {
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            _ => Ordering::Equal,
        })
    }

    /// Equality under [`Value::compare`] semantics (NULL equals nothing).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }
}

/// Structural equality used by tests and hash-join keys: numerics compare
/// numerically, NULL equals NULL.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// The index-key order, [`Value::total_cmp`], so that it agrees with `Eq`.
/// SQL comparison is [`Value::compare`].
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash every numeric through its f64 bits so Int(2) and
            // Float(2.0) — equal under total_cmp — hash identically.
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(f) => zero_as_one_key(*f).to_bits().hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extreme_cmp_orders_the_zeros_and_nothing_else() {
        let (neg, pos) = (Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(neg.total_cmp(&pos), Ordering::Equal); // still one key
        assert_eq!(neg.extreme_cmp(&pos), Ordering::Less);
        assert_eq!(pos.extreme_cmp(&neg), Ordering::Greater);
        assert_eq!(Value::Int(0).extreme_cmp(&neg), Ordering::Equal);
        assert_eq!(
            Value::Int(1).extreme_cmp(&Value::Float(1.5)),
            Ordering::Less
        );
    }

    #[test]
    fn compare_numeric_coercion() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).compare(&Value::Int(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn compare_int_float_is_exact_beyond_2_53() {
        // i64::MAX as f64 rounds up to 2^63; the old cast-based compare
        // called these Equal.
        let two_63 = 9_223_372_036_854_775_808.0f64;
        assert_eq!(
            Value::Int(i64::MAX).compare(&Value::Float(two_63)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(two_63).compare(&Value::Int(i64::MAX)),
            Some(Ordering::Greater)
        );
        // 2^53 + 1 is the first integer with no exact f64; 2^53 itself
        // has one. The cast collapses them onto the same float.
        let p53 = 1i64 << 53;
        assert_eq!(
            Value::Int(p53 + 1).compare(&Value::Float(p53 as f64)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(p53).compare(&Value::Float(p53 as f64)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(-(p53 + 1)).compare(&Value::Float(-(p53 as f64))),
            Some(Ordering::Less)
        );
        // i64::MIN is exactly -2^63 and representable.
        assert_eq!(
            Value::Int(i64::MIN).compare(&Value::Float(-9_223_372_036_854_775_808.0)),
            Some(Ordering::Equal)
        );
        // Infinities and fractional parts.
        assert_eq!(
            Value::Int(i64::MAX).compare(&Value::Float(f64::INFINITY)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MIN).compare(&Value::Float(f64::NEG_INFINITY)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(-3).compare(&Value::Float(-2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(0).compare(&Value::Float(-0.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(1).compare(&Value::Float(f64::NAN)), None);
        // total_cmp agrees with compare wherever compare is defined.
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Float(two_63)),
            Ordering::Less
        );
        assert_eq!(
            Value::Float(two_63).total_cmp(&Value::Int(i64::MAX)),
            Ordering::Greater
        );
        // Large equal pairs stay equal (and must keep hashing together).
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(p53));
        assert!(set.contains(&Value::Float(p53 as f64)));
        assert_ne!(Value::Int(p53 + 1), Value::Float(p53 as f64));
    }

    #[test]
    fn compare_null_is_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
        assert_eq!(Value::Null.compare(&Value::Null), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn compare_text_vs_number_is_unknown() {
        assert_eq!(Value::Text("2".into()).compare(&Value::Int(2)), None);
    }

    #[test]
    fn total_order_ranks_types() {
        let mut values = vec![
            Value::Text("abc".into()),
            Value::Int(5),
            Value::Null,
            Value::Float(2.5),
            Value::Text("ABC".into()),
            Value::Int(-1),
        ];
        values.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            values,
            vec![
                Value::Null,
                Value::Int(-1),
                Value::Float(2.5),
                Value::Int(5),
                Value::Text("ABC".into()),
                Value::Text("abc".into()),
            ]
        );
    }

    #[test]
    fn eq_and_hash_agree_across_numeric_types() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(2));
        assert!(set.contains(&Value::Float(2.0)));
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn the_two_zeros_are_one_key() {
        use std::collections::HashSet;
        let (neg, pos) = (Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(neg.compare(&pos), Some(Ordering::Equal));
        assert_eq!(neg.total_cmp(&pos), Ordering::Equal);
        assert_eq!(neg.total_cmp(&Value::Int(0)), Ordering::Equal);
        assert_eq!(Value::Int(0).total_cmp(&neg), Ordering::Equal);
        let set: HashSet<Value> = [neg.clone()].into();
        assert!(set.contains(&pos) && set.contains(&Value::Int(0)));
        // Still a total order around zero.
        let below = Value::Float(-f64::MIN_POSITIVE);
        assert_eq!(below.total_cmp(&neg), Ordering::Less);
        assert_eq!(below.total_cmp(&pos), Ordering::Less);
        assert_eq!(
            neg.total_cmp(&Value::Float(f64::MIN_POSITIVE)),
            Ordering::Less
        );
        // The stored float keeps its sign.
        assert!(matches!(neg, Value::Float(f) if f.is_sign_negative()));
    }

    #[test]
    fn coerce_text_to_numbers() {
        assert_eq!(
            Value::Text(" 42 ".into()).coerce(DataType::Int),
            Some(Value::Int(42))
        );
        assert_eq!(
            Value::Text("2.5".into()).coerce(DataType::Float),
            Some(Value::Float(2.5))
        );
        assert_eq!(Value::Text("xyz".into()).coerce(DataType::Int), None);
        assert_eq!(Value::Float(2.5).coerce(DataType::Int), None);
        assert_eq!(Value::Float(2.0).coerce(DataType::Int), Some(Value::Int(2)));
        assert_eq!(Value::Null.coerce(DataType::Int), Some(Value::Null));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Text("x".into()).to_string(), "x");
    }

    #[test]
    fn nan_sorts_consistently() {
        let mut v = [Value::Float(f64::NAN), Value::Float(1.0), Value::Int(2)];
        v.sort_by(|a, b| a.total_cmp(b));
        // NaN sorts last among numerics under f64::total_cmp.
        assert_eq!(v[0], Value::Float(1.0));
        assert_eq!(v[1], Value::Int(2));
        assert!(matches!(v[2], Value::Float(f) if f.is_nan()));
    }
}
