//! `compare`: one row per (workload, end-to-end metric) of two sets of
//! result files, judged against the bounds in `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's own runs spread wider than the bound, so a difference
    /// within the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `change` is the relative change of the new median against the base
/// median, signed so that positive is worse.
pub fn verdict(worsening: f64, bound: f64, widest_spread: Option<f64>) -> Verdict {
    if worsening > bound {
        Verdict::Worse
    } else if widest_spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct MetricDef {
    name: String,
    better_lower: bool,
    bound: f64,
}

fn end_to_end_defs(benchmark: &Json) -> Result<Vec<MetricDef>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(MetricDef {
                name: m.get("name")?.as_str()?.to_string(),
                better_lower: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    file.get("workloads")?.get(name)
}

fn values(files: &[Json], workload_name: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            workload(f, workload_name)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn failed_share(files: &[Json], workload_name: &str) -> f64 {
    let sum = |key: &str| -> f64 {
        files
            .iter()
            .filter_map(|f| workload(f, workload_name)?.get(key)?.as_f64())
            .sum()
    };
    let attempted = sum("attempted");
    if attempted > 0.0 {
        sum("failed") / attempted
    } else {
        0.0
    }
}

fn side(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!("{:.4} [{q1:.4}..{q3:.4}]", median(values)),
        None => format!("{:.4}", median(values)),
    }
}

/// Renders the comparison; the flag says whether anything got worse.
pub fn compare(benchmark: &Json, base: &[Json], new: &[Json]) -> Result<(String, bool), String> {
    let defs = end_to_end_defs(benchmark)?;
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();

    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<22} {:<12} {:>30} {:>30} {:>24} {:>6}  verdict",
        "workload", "metric", "base median [q1..q3]", "new median [q1..q3]", "new/base", "bound"
    );
    for name in workloads {
        for def in &defs {
            let (b, n) = (values(base, name, &def.name), values(new, name, &def.name));
            if b.is_empty() || n.is_empty() {
                return Err(format!("{name}/{} is missing on one side", def.name));
            }
            let (bm, nm) = (median(&b), median(&n));
            let change = (nm - bm) / bm;
            let worsening = if def.better_lower { change } else { -change };
            let widest = [spread(&b), spread(&n)]
                .into_iter()
                .flatten()
                .reduce(f64::max);
            let v = verdict(worsening, def.bound, widest);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{name:<22} {:<12} {:>30} {:>30} {:>24} {:>5.0}%  {}",
                def.name,
                side(&b),
                side(&n),
                format!("{:.3}x of {bm:.4}", nm / bm),
                def.bound * 100.0,
                v.name()
            );
        }
        let (b, n) = (failed_share(base, name), failed_share(new, name));
        let v = if n > b { Verdict::Worse } else { Verdict::Same };
        any_worse |= v == Verdict::Worse;
        let _ = writeln!(
            out,
            "{name:<22} {:<12} {b:>30.6} {n:>30.6} {:>24} {:>5.0}%  {}",
            "failed_share",
            "",
            0.0,
            v.name()
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(verdict(0.12, 0.10, None), Verdict::Worse);
        assert_eq!(verdict(0.12, 0.10, Some(0.5)), Verdict::Worse);
        assert_eq!(verdict(0.05, 0.10, Some(0.02)), Verdict::Same);
        assert_eq!(verdict(0.05, 0.10, Some(0.2)), Verdict::Unresolved);
        assert_eq!(verdict(-0.3, 0.10, Some(0.2)), Verdict::Unresolved);
        assert_eq!(verdict(-0.3, 0.10, Some(0.02)), Verdict::Better);
        assert_eq!(verdict(-0.3, 0.10, None), Verdict::Better);
    }

    fn result(p50: f64, ops: f64, failed: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([
                    ("attempted", Json::Num(100.0)),
                    ("failed", Json::Num(failed)),
                    (
                        "end_to_end",
                        Json::obj([("p50_ms", metric(p50)), ("ops_per_s", metric(ops))]),
                    ),
                ]),
            )]),
        )])
    }

    fn benchmark() -> Json {
        Json::parse(
            r#"{"workloads": [{"name": "w", "why": ""}],
                "end_to_end": [
                  {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                  {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn compares_medians_in_the_metric_s_direction() {
        let base = [result(10.0, 100.0, 0.0)];
        let (table, worse) = compare(&benchmark(), &base, &[result(10.5, 95.0, 0.0)]).unwrap();
        assert!(!worse, "{table}");
        assert_eq!(table.matches(" same").count(), 3, "{table}");

        let (table, worse) = compare(&benchmark(), &base, &[result(12.0, 130.0, 0.0)]).unwrap();
        assert!(worse);
        assert!(
            table.contains("worse") && table.contains("better"),
            "{table}"
        );
        assert!(table.contains("1.200x of 10.0000"), "{table}");

        let (_, worse) = compare(&benchmark(), &base, &[result(10.0, 100.0, 1.0)]).unwrap();
        assert!(worse, "a higher failed share is a regression");
    }

    #[test]
    fn several_files_per_side_give_quartiles_and_unresolved() {
        let noisy: Vec<Json> = [8.0, 9.0, 10.0, 11.0, 12.0]
            .iter()
            .map(|&p| result(p, 100.0, 0.0))
            .collect();
        let (table, worse) = compare(&benchmark(), &noisy, &noisy).unwrap();
        assert!(!worse);
        assert!(table.contains("[8.5000..11.5000]"), "{table}");
        assert!(table.contains("unresolved"), "{table}");
    }
}
