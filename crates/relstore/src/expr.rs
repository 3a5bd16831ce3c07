//! Expression evaluation.
//!
//! Expressions are evaluated against a row of values; column references
//! must already carry the row position the bind stage ([`crate::bind`])
//! assigned them. SQL three-valued logic is honoured: comparisons
//! involving NULL yield NULL, `AND`/`OR` short-circuit around NULL per the
//! standard truth tables, and a WHERE clause accepts a row only when its
//! predicate is *true* (not NULL).

use crate::error::{RelError, RelResult};
use crate::regex::Pattern;
use crate::sql::ast::{BinOp, Expr};
use crate::text::tokenize;
use crate::value::Value;

/// Compiled patterns a thread keeps before starting over. A query uses a
/// handful; the bound is for long-lived threads (embedded callers, morsel
/// workers) that would otherwise hold every pattern they ever saw.
const PATTERN_CACHE_CAP: usize = 64;

thread_local! {
    /// Compiled-pattern cache for `MATCHES`: a query evaluates the same
    /// pattern once per row, so compilation is amortized per thread.
    static PATTERN_CACHE: std::cell::RefCell<std::collections::HashMap<String, Pattern>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Compiles `pattern` (cached) and tests it against `text`.
pub fn regex_match(pattern: &str, text: &str) -> RelResult<bool> {
    PATTERN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if !cache.contains_key(pattern) {
            if cache.len() >= PATTERN_CACHE_CAP {
                cache.clear();
            }
            let compiled = Pattern::compile(pattern).map_err(|e| RelError::Eval(e.to_string()))?;
            cache.insert(pattern.to_string(), compiled);
        }
        Ok(cache.get(pattern).expect("just inserted").is_match(text))
    })
}

/// Evaluates `expr` against one row.
pub fn eval(expr: &Expr, row: &[Value]) -> RelResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column {
            table,
            name,
            ordinal,
        } => ordinal.and_then(|i| row.get(i)).cloned().ok_or_else(|| {
            let alias = table.as_deref().unwrap_or("?");
            RelError::Internal(format!(
                "column {alias}.{name} is not bound to a position in this row"
            ))
        }),
        Expr::Binary { op, left, right } => {
            if matches!(op, BinOp::And | BinOp::Or) {
                return eval_logic(*op, left, right, row);
            }
            let l = eval(left, row)?;
            let r = eval(right, row)?;
            if op.is_comparison() {
                return Ok(match l.compare(&r) {
                    None => Value::Null,
                    Some(ord) => {
                        let b = match op {
                            BinOp::Eq => ord.is_eq(),
                            BinOp::Ne => ord.is_ne(),
                            BinOp::Lt => ord.is_lt(),
                            BinOp::Le => ord.is_le(),
                            BinOp::Gt => ord.is_gt(),
                            BinOp::Ge => ord.is_ge(),
                            _ => unreachable!("comparison op"),
                        };
                        bool_value(b)
                    }
                });
            }
            eval_arith(*op, &l, &r)
        }
        Expr::Not(inner) => {
            let v = eval(inner, row)?;
            Ok(match truth(&v) {
                None => Value::Null,
                Some(b) => bool_value(!b),
            })
        }
        Expr::Neg(inner) => {
            let v = eval(inner, row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => i
                    .checked_neg()
                    .map(Value::Int)
                    .ok_or_else(|| RelError::Eval(format!("integer overflow evaluating -({i})"))),
                Value::Float(f) => Ok(Value::Float(-f)),
                Value::Text(_) => Err(RelError::Eval("cannot negate text".into())),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row)?;
            Ok(bool_value(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row)?;
            let p = eval(pattern, row)?;
            match (&v, &p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(text), Value::Text(pattern)) => {
                    Ok(bool_value(like_match(pattern, text) != *negated))
                }
                _ => Err(RelError::Eval("LIKE requires text operands".into())),
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let candidate = eval(item, row)?;
                match v.compare(&candidate) {
                    Some(ord) if ord.is_eq() => return Ok(bool_value(!*negated)),
                    None if candidate.is_null() => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(bool_value(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, row)?;
            let lo = eval(low, row)?;
            let hi = eval(high, row)?;
            match (v.compare(&lo), v.compare(&hi)) {
                (Some(a), Some(b)) => Ok(bool_value((a.is_ge() && b.is_le()) != *negated)),
                _ => Ok(Value::Null),
            }
        }
        Expr::Contains { column, keyword } => {
            let v = eval(column, row)?;
            let k = eval(keyword, row)?;
            match (&v, &k) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(text), Value::Text(keyword)) => {
                    Ok(bool_value(contains_keywords(text, keyword)))
                }
                _ => Err(RelError::Eval("CONTAINS requires text operands".into())),
            }
        }
        Expr::Matches { column, pattern } => {
            let v = eval(column, row)?;
            let p = eval(pattern, row)?;
            match (&v, &p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(text), Value::Text(pattern)) => {
                    Ok(bool_value(regex_match(pattern, text)?))
                }
                _ => Err(RelError::Eval("MATCHES requires text operands".into())),
            }
        }
        Expr::Param(i) => Err(RelError::Eval(format!("unbound parameter ?{}", i + 1))),
        Expr::Aggregate { .. } => Err(RelError::Eval(
            "aggregate used outside of a select list".into(),
        )),
    }
}

/// Evaluates a predicate for filtering: true ⇢ keep, false/NULL ⇢ drop.
pub fn eval_predicate(expr: &Expr, row: &[Value]) -> RelResult<bool> {
    Ok(truth(&eval(expr, row)?).unwrap_or(false))
}

fn eval_logic(op: BinOp, left: &Expr, right: &Expr, row: &[Value]) -> RelResult<Value> {
    let l = truth(&eval(left, row)?);
    // Short-circuit per three-valued logic.
    match (op, l) {
        (BinOp::And, Some(false)) => return Ok(bool_value(false)),
        (BinOp::Or, Some(true)) => return Ok(bool_value(true)),
        _ => {}
    }
    let r = truth(&eval(right, row)?);
    Ok(match op {
        BinOp::And => match (l, r) {
            (Some(true), Some(true)) => bool_value(true),
            (Some(false), _) | (_, Some(false)) => bool_value(false),
            _ => Value::Null,
        },
        BinOp::Or => match (l, r) {
            (Some(false), Some(false)) => bool_value(false),
            (Some(true), _) | (_, Some(true)) => bool_value(true),
            _ => Value::Null,
        },
        _ => unreachable!("logic op"),
    })
}

fn eval_arith(op: BinOp, l: &Value, r: &Value) -> RelResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic when both sides are Int; otherwise float.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        // Out-of-range results are surfaced as errors, never wrapped:
        // a silently wrapped total is indistinguishable from real data.
        let overflow = || RelError::Eval(format!("integer overflow evaluating {a} {op:?} {b}"));
        return match op {
            BinOp::Add => a.checked_add(*b).map(Value::Int).ok_or_else(overflow),
            BinOp::Sub => a.checked_sub(*b).map(Value::Int).ok_or_else(overflow),
            BinOp::Mul => a.checked_mul(*b).map(Value::Int).ok_or_else(overflow),
            BinOp::Div => {
                if *b == 0 {
                    Err(RelError::Eval("division by zero".into()))
                } else {
                    // checked_div guards i64::MIN / -1, which would panic.
                    a.checked_div(*b).map(Value::Int).ok_or_else(overflow)
                }
            }
            _ => Err(RelError::Eval(format!("{op:?} is not arithmetic"))),
        };
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(RelError::Eval(format!(
                "arithmetic on non-numeric values {l} and {r}"
            )))
        }
    };
    match op {
        BinOp::Add => Ok(Value::Float(a + b)),
        BinOp::Sub => Ok(Value::Float(a - b)),
        BinOp::Mul => Ok(Value::Float(a * b)),
        BinOp::Div => {
            if b == 0.0 {
                Err(RelError::Eval("division by zero".into()))
            } else {
                Ok(Value::Float(a / b))
            }
        }
        _ => Err(RelError::Eval(format!("{op:?} is not arithmetic"))),
    }
}

fn bool_value(b: bool) -> Value {
    Value::Int(if b { 1 } else { 0 })
}

/// SQL truthiness: NULL is unknown; zero numerics are false; text is an
/// error domain we conservatively treat as false.
fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(*i != 0),
        Value::Float(f) => Some(*f != 0.0),
        Value::Text(_) => Some(false),
    }
}

/// `LIKE` pattern matching with `%` (any run) and `_` (any single char).
///
/// Greedy two-pointer algorithm: on mismatch after a `%`, resume at the
/// most recent `%` and let it absorb one more character. Each text
/// position is revisited at most once per `%`, so matching is O(n·m) in
/// the worst case — never the exponential blowup of naive backtracking
/// on patterns like `%a%a%a%b`.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    // Resume state for the last `%` seen: its pattern position, and the
    // text position its run currently extends to.
    let (mut star, mut star_ti) = (None::<usize>, 0usize);
    while ti < t.len() {
        // `%` must be interpreted as a wildcard before any literal
        // comparison: if the text character is itself '%', a literal
        // match here would skip recording the resume state and lose
        // the run the wildcard is supposed to absorb.
        if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_ti = ti;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if let Some(s) = star {
            // Mismatch: widen the last `%` by one character and retry.
            pi = s + 1;
            star_ti += 1;
            ti = star_ti;
        } else {
            return false;
        }
    }
    // Only trailing `%` can match the exhausted text.
    p[pi..].iter().all(|c| *c == '%')
}

/// Whole-token containment used by the fallback (non-indexed) CONTAINS.
pub fn contains_keywords(text: &str, keyword: &str) -> bool {
    let wanted = tokenize(keyword);
    if wanted.is_empty() {
        return false;
    }
    let have = tokenize(text);
    wanted.iter().all(|w| have.iter().any(|h| h == w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{bind_expr, RowSchema};
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse_statement;

    fn schema() -> RowSchema {
        RowSchema::for_table("t", vec!["a".into(), "b".into(), "txt".into()])
    }

    /// The predicate `sql`, bound against [`schema`].
    fn filter_of(sql: &str) -> Expr {
        match parse_statement(&format!("SELECT * FROM t WHERE {sql}")).unwrap() {
            Statement::Select(s) => bind_expr(&s.filter.unwrap(), &schema()).unwrap(),
            _ => unreachable!(),
        }
    }

    fn run(pred: &str, row: &[Value]) -> bool {
        eval_predicate(&filter_of(pred), row).unwrap()
    }

    fn row(a: i64, b: f64, txt: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::Float(b), Value::Text(txt.into())]
    }

    #[test]
    fn comparisons() {
        let r = row(5, 2.5, "hello");
        assert!(run("a = 5", &r));
        assert!(run("a <> 4", &r));
        assert!(run("b < 3", &r));
        assert!(run("b >= 2.5", &r));
        assert!(run("a > b", &r));
        assert!(run("txt = 'hello'", &r));
        assert!(!run("txt = 'HELLO'", &r));
    }

    #[test]
    fn three_valued_logic() {
        let r = vec![Value::Null, Value::Float(1.0), Value::Text("x".into())];
        assert!(!run("a = 1", &r));
        assert!(!run("a <> 1", &r));
        assert!(run("a IS NULL", &r));
        assert!(!run("a IS NOT NULL", &r));
        // NULL OR true = true; NULL AND false = false.
        assert!(run("a = 1 OR b = 1", &r));
        assert!(!run("a = 1 AND b = 0", &r));
        assert!(!run("a = 1 AND b = 1", &r));
        // NOT NULL is NULL → filtered out.
        assert!(!run("NOT (a = 1)", &r));
    }

    #[test]
    fn arithmetic() {
        let r = row(10, 0.5, "");
        assert!(run("a + 5 = 15", &r));
        assert!(run("a * 2 = 20", &r));
        assert!(run("a / 3 = 3", &r)); // integer division
        assert!(run("b * 4 = 2.0", &r));
        assert!(run("-a = -10", &r));
        let err = eval(&filter_of("a / 0"), &r).unwrap_err();
        assert!(matches!(err, RelError::Eval(_)));
    }

    #[test]
    fn mixed_numeric_comparison() {
        let r = row(2, 2.0, "");
        assert!(run("a = b", &r));
        assert!(run("a >= b", &r));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("%ketone%", "the ketone group"));
        assert!(like_match("cdc_", "cdc6"));
        assert!(like_match("%", ""));
        assert!(like_match("a%z", "az"));
        assert!(like_match("a%z", "a--z"));
        assert!(!like_match("a%z", "a--y"));
        assert!(!like_match("_", ""));
        assert!(like_match("%%x%%", "xx"));
        let r = row(0, 0.0, "Peptidylglycine monooxygenase.");
        assert!(run("txt LIKE '%glycine%'", &r));
        assert!(run("txt NOT LIKE 'x%'", &r));
    }

    #[test]
    fn like_no_exponential_backtracking() {
        // Seed regression: the naive recursive matcher was exponential in
        // the number of `%` wildcards on non-matching text. 200 chars of
        // text against a 10-wildcard pattern must finish in milliseconds.
        let text = "a".repeat(200);
        let pattern = format!("{}b", "%a".repeat(10));
        let start = std::time::Instant::now();
        assert!(!like_match(&pattern, &text));
        // Generous bound: the greedy matcher runs in microseconds; the
        // exponential one would need longer than the age of the universe.
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "like_match took {:?}",
            start.elapsed()
        );
        // Same shape, but matching (text ends in b).
        let text = format!("{}b", "a".repeat(199));
        assert!(like_match(&pattern, &text));
    }

    #[test]
    fn like_backtracking_semantics() {
        // Cases that exercise the %-resume path specifically.
        assert!(like_match("%abc%", "ababcx"));
        assert!(like_match("%a_c%", "zzabczz"));
        assert!(!like_match("%abc", "ababx"));
        assert!(like_match("a%b%c", "axxbyyc"));
        assert!(!like_match("a%b%c", "axxbyyd"));
        assert!(like_match("%_%", "x"));
        assert!(!like_match("%_%", ""));
        assert!(like_match("ab%", "ab"));
        assert!(!like_match("ab", "abc"));
    }

    #[test]
    fn like_wildcard_wins_over_literal_percent() {
        // Regression: the two-pointer matcher once tested the literal
        // branch before the `%` branch, so a '%' in the *text* matched a
        // pattern '%' as a literal and the resume state was never
        // recorded — silently mismatching any text containing '%'.
        assert!(like_match("%", "%a"));
        assert!(like_match("%x", "%yx"));
        assert!(like_match("%beta", "%odd beta"));
        assert!(like_match("%%", "%"));
        assert!(like_match("%a%", "x%a%y"));
        assert!(!like_match("%x", "%y"));
        // '_' in the text is only ever a literal (no resume state), but
        // pin the behaviour alongside its sibling.
        assert!(like_match("_", "_"));
        assert!(like_match("%_", "a_"));
    }

    /// Obviously-correct exponential reference matcher for the
    /// differential test below.
    fn like_ref(p: &[char], t: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some((&'%', rest)) => (0..=t.len()).any(|i| like_ref(rest, &t[i..])),
            Some((&'_', rest)) => !t.is_empty() && like_ref(rest, &t[1..]),
            Some((c, rest)) => t.first() == Some(c) && like_ref(rest, &t[1..]),
        }
    }

    #[test]
    fn like_differential_over_metacharacter_strings() {
        // Every pair of strings over {a, %, _} up to length 4 — texts
        // containing the metacharacters included — must agree with the
        // naive recursive matcher. The literal-'%'-in-text bug diverged
        // on 546 of these pairs.
        let alphabet = ['a', '%', '_'];
        let mut strings = vec![String::new()];
        let mut frontier = vec![String::new()];
        for _ in 0..4 {
            let mut next = Vec::new();
            for s in &frontier {
                for c in alphabet {
                    let mut grown = s.clone();
                    grown.push(c);
                    strings.push(grown.clone());
                    next.push(grown);
                }
            }
            frontier = next;
        }
        for pattern in &strings {
            let p: Vec<char> = pattern.chars().collect();
            for text in &strings {
                let t: Vec<char> = text.chars().collect();
                assert_eq!(
                    like_match(pattern, text),
                    like_ref(&p, &t),
                    "divergence on pattern {pattern:?} text {text:?}"
                );
            }
        }
    }

    #[test]
    fn integer_overflow_is_an_error_not_a_wrap() {
        // Seed regression: wrapping_add/sub/mul returned wrong answers
        // silently; i64::MIN / -1 panicked.
        let r = row(0, 0.0, "");
        let max = i64::MAX;
        // i64::MIN has no SQL literal spelling (its magnitude overflows
        // during parsing), so build it as -MAX - 1.
        let min = format!("(-{max} - 1)");
        for sql in [
            format!("a + ({max} + 1)"),
            format!("a + ({min} - 1)"),
            format!("a + ({max} * 2)"),
            format!("a + ({min} / -1)"),
            format!("a + (-{min})"),
        ] {
            let err = eval(&filter_of(&sql), &r).unwrap_err();
            match err {
                RelError::Eval(msg) => {
                    assert!(
                        msg.contains("integer overflow"),
                        "unexpected message: {msg}"
                    )
                }
                other => panic!("expected Eval error, got {other:?}"),
            }
        }
        // In-range results are untouched.
        assert!(run(&format!("a + {max} = {max}"), &r));
        assert!(run("a + (-9) / -1 = 9", &r));
    }

    #[test]
    fn in_list_semantics() {
        let r = row(2, 0.0, "x");
        assert!(run("a IN (1, 2, 3)", &r));
        assert!(!run("a IN (4, 5)", &r));
        assert!(run("a NOT IN (4, 5)", &r));
        // x NOT IN (..., NULL) is NULL when no match → filtered.
        assert!(!run("a NOT IN (4, NULL)", &r));
        assert!(run("a IN (2, NULL)", &r));
    }

    #[test]
    fn between_semantics() {
        let r = row(5, 0.0, "x");
        assert!(run("a BETWEEN 1 AND 10", &r));
        assert!(run("a BETWEEN 5 AND 5", &r));
        assert!(!run("a BETWEEN 6 AND 10", &r));
        assert!(run("a NOT BETWEEN 6 AND 10", &r));
    }

    #[test]
    fn contains_predicate() {
        let r = row(0, 0.0, "cell division cycle protein cdc6");
        assert!(run("CONTAINS(txt, 'cdc6')", &r));
        assert!(run("CONTAINS(txt, 'CELL division')", &r));
        assert!(!run("CONTAINS(txt, 'mitosis')", &r));
        assert!(!run("CONTAINS(txt, 'divis')", &r)); // whole-token only
    }

    #[test]
    fn matches_predicate() {
        let r = row(0, 0.0, "MKNVTLAGRA");
        assert!(run("MATCHES(txt, 'N[^P][ST]')", &r));
        assert!(run("MATCHES(txt, '^MK')", &r));
        assert!(!run("MATCHES(txt, '^VTL')", &r));
        assert!(run("MATCHES(txt, 'AGRA$')", &r));
        // NULL propagates.
        let n = vec![Value::Int(0), Value::Float(0.0), Value::Null];
        assert!(!run("MATCHES(txt, 'x')", &n));
        // Bad pattern is an error.
        assert!(eval(&filter_of("MATCHES(txt, '[')"), &r).is_err());
        // Non-text operand is an error.
        assert!(eval(&filter_of("MATCHES(a, 'x')"), &r).is_err());
    }

    #[test]
    fn case_insensitive_resolution() {
        let r = row(1, 2.0, "t");
        assert!(run("T.A = 1", &r));
        assert!(run("t.TXT = 't'", &r));
    }

    #[test]
    fn unbound_column_is_an_internal_error() {
        let unbound = Expr::col(Some("t"), "a");
        let err = eval(&unbound, &row(1, 2.0, "t")).unwrap_err();
        assert!(matches!(err, RelError::Internal(_)), "{err:?}");
    }

    #[test]
    fn pattern_cache_is_bounded() {
        // Cap + 1 distinct patterns on this thread: the cache never holds
        // more than the cap, and a pattern evicted along the way still
        // answers correctly (it is simply compiled again).
        for i in 0..=PATTERN_CACHE_CAP {
            assert!(regex_match(&format!("^p{i}$"), &format!("p{i}")).unwrap());
            let held = PATTERN_CACHE.with(|c| c.borrow().len());
            assert!(held <= PATTERN_CACHE_CAP, "{held} patterns cached");
        }
        assert!(regex_match("^p0$", "p0").unwrap());
        assert!(!regex_match("^p0$", "p1").unwrap());
    }
}
