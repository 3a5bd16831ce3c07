//! One run of one workload: set-up, warm-up, then either the timed phase
//! (end-to-end metrics, nothing traced) or the traced pass (per-layer
//! metrics).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::harness::{run_phase, Mode, ObsReading, Phase, Scale, Tally, Workload};
use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END, LAYER_SPANS};
use crate::stats::{highest_supported_tail, median, percentile, samples_beyond, sorted};
use crate::trace::{breakdown, render_tsv};
use crate::workloads::{build, WORKLOADS};

/// How often a timed run builds its inputs and warehouse; `setup_s` is the
/// median, so that one slow set-up does not decide it.
const SETUP_REPS: usize = 3;
/// Closed-loop seconds before anything is measured: plan cache, allocator
/// and page cache reach their steady state.
const WARMUP_SECONDS: f64 = 2.0;
/// The timed phase runs as this many windows back to back. Latency
/// percentiles and throughput are taken per window and the median over the
/// windows is reported, so a burst of interference from outside the process
/// spoils one window, not the run's tail.
const WINDOWS: usize = 6;
/// How the traced pass splits its seconds: façade untraced, staged calls
/// untraced, staged calls traced.
const TRACED_SPLIT: [f64; 3] = [0.3, 0.3, 0.4];

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Printed, recorded in result files, never gated.
    pub diagnostics: Json,
}

impl RunOutput {
    /// The one-line JSON object the benchmark contract asks for.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            let metric = Json::obj([
                                ("value", Json::Num(*value)),
                                ("unit", Json::str(*unit)),
                            ]);
                            (name.clone(), metric)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Files the run creates go under the directory of the executable: inside
/// the build directory, so inside the checkout and never committed.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join(format!("e2ebench-tmp-{}", std::process::id())))
}

pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let tail = WORKLOADS
        .iter()
        .find(|(name, ..)| *name == args.workload)
        .map(|(_, tail, _)| *tail)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let tmp = scratch_dir()?;
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
    let output = if args.trace {
        traced_run(args, &tmp)
    } else {
        timed_run(args, tail, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    output
}

/// Builds the workload `reps` times, keeping the last build; returns it
/// with the median build time in seconds.
fn set_up(args: &RunArgs, reps: usize, tmp: &Path) -> Result<(Box<dyn Workload>, f64), String> {
    let mut seconds = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        // Free the previous warehouse first, so peak memory is one build's.
        drop(built.take());
        let t = Instant::now();
        built = Some(build(&args.workload, args.seed, args.scale, tmp)?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    Ok((built.expect("at least one set-up"), median(&seconds)))
}

fn no_success(first_error: Option<String>) -> String {
    format!(
        "no op succeeded: {}",
        first_error.as_deref().unwrap_or("unknown error")
    )
}

fn warmup_seconds(scale: Scale) -> f64 {
    match scale {
        Scale::Full => WARMUP_SECONDS,
        Scale::Smoke => 0.3,
    }
}

fn timed_run(args: &RunArgs, tail: f64, tmp: &Path) -> Result<RunOutput, String> {
    let reps = match args.scale {
        Scale::Full => SETUP_REPS,
        Scale::Smoke => 1,
    };
    let (workload, setup_s) = set_up(args, reps, tmp)?;
    let mut workers = workload.workers();
    let warmup = run_phase(
        &mut workers,
        warmup_seconds(args.scale),
        Mode::Facade,
        false,
    );
    let windows: Vec<Phase> = (0..WINDOWS)
        .map(|_| {
            let seconds = args.seconds / WINDOWS as f64;
            run_phase(&mut workers, seconds, Mode::Facade, false)
        })
        .collect();
    drop(workers);
    drop(workload);

    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(|w| w.failed).sum();
    let first_error = windows.iter().find_map(|w| w.first_error.clone());
    // Per window with a successful op: p50, tail percentile, correct ops/s.
    let measured: Vec<[f64; 3]> = windows
        .iter()
        .filter(|w| !w.latencies_ms.is_empty())
        .map(|w| {
            let latencies = sorted(w.latencies_ms.clone());
            [
                percentile(&latencies, 50.0),
                percentile(&latencies, tail),
                (w.attempted - w.failed) as f64 / w.wall.as_secs_f64(),
            ]
        })
        .collect();
    if measured.is_empty() {
        return Err(no_success(first_error));
    }
    let over_windows = |i: usize| median(&measured.iter().map(|m| m[i]).collect::<Vec<_>>());
    let values = [
        over_windows(0),
        over_windows(1),
        over_windows(2),
        setup_s,
        peak_rss_mib()?,
    ];

    // All windows pooled: the sample count, and the tail the run supports.
    let pooled = sorted(
        windows
            .iter()
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect(),
    );
    let samples = pooled.len();
    let mut tally = Tally::default();
    for probe in windows.into_iter().flat_map(|w| w.probes) {
        tally.absorb(probe.tally);
    }
    let mut diagnostics = vec![
        ("samples", Json::Num(samples as f64)),
        ("tail_percentile", Json::Num(tail)),
        (
            "samples_beyond_tail",
            Json::Num(samples_beyond(samples, tail) as f64),
        ),
    ];
    if let Some(supported) = highest_supported_tail(samples) {
        diagnostics.push(("highest_supported_tail", Json::Num(supported)));
        diagnostics.push((
            "highest_supported_tail_ms",
            Json::Num(percentile(&pooled, supported)),
        ));
    }
    for (name, values) in &tally.parts_ms {
        diagnostics.push((name, Json::Num(median(values))));
    }
    if let Some(e) = warmup.first_error.or(first_error) {
        diagnostics.push(("first_error", Json::Str(e)));
    }
    Ok(RunOutput {
        attempted: warmup.attempted + attempted,
        failed: warmup.failed + failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| (name.to_string(), value, unit))
            .collect(),
        diagnostics: Json::obj(diagnostics),
    })
}

fn traced_run(args: &RunArgs, tmp: &Path) -> Result<RunOutput, String> {
    let (workload, _) = set_up(args, 1, tmp)?;
    let mut workers = workload.workers();
    let warmup = run_phase(
        &mut workers,
        warmup_seconds(args.scale),
        Mode::Facade,
        false,
    );
    let [a, b, c] = TRACED_SPLIT.map(|share| share * args.seconds);
    let facade = run_phase(&mut workers, a, Mode::Facade, false);
    let staged = run_phase(&mut workers, b, Mode::Staged, false);
    let before = ObsReading::take();
    let traced = run_phase(&mut workers, c, Mode::Staged, true);
    let obs = ObsReading::take().since(&before);
    drop(workers);

    let phases = [&warmup, &facade, &staged, &traced];
    let attempted = phases.iter().map(|p| p.attempted).sum();
    let failed = phases.iter().map(|p| p.failed).sum();
    let first_error = phases.iter().find_map(|p| p.first_error.clone());
    if [&facade, &staged, &traced]
        .iter()
        .any(|p| p.latencies_ms.is_empty())
    {
        return Err(no_success(first_error));
    }
    let (facade_p50, staged_p50, traced_p50) = (facade.p50_ms(), staged.p50_ms(), traced.p50_ms());

    let Phase { probes, .. } = traced;
    let mut tally = Tally::default();
    let mut ops = Vec::new();
    let mut tsv = String::new();
    for probe in probes {
        ops.extend(breakdown(probe.tracer.spans()));
        tsv.push_str(&render_tsv(probe.tracer.spans()));
        tally.absorb(probe.tally);
    }
    // Raw spans stay in memory until here, after the last measured op.
    let spans_name = format!("spans-{}.tsv", args.workload);
    let beside_exe = tmp.parent().expect("scratch directory has a parent");
    std::fs::write(beside_exe.join(&spans_name), tsv).map_err(|e| e.to_string())?;

    let n_ops = ops.len() as u64;
    let mut layers: BTreeMap<&'static str, f64> = LAYER_SPANS
        .iter()
        .map(|&span| {
            let self_us: Vec<f64> = ops
                .iter()
                .map(|op| op.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e3)
                .collect();
            (span, median(&self_us))
        })
        .collect();
    let root_us: Vec<f64> = ops.iter().map(|op| op.root_ns as f64 / 1e3).collect();
    workload.adjust_layers(&mut layers, &ops, &obs, &tally);
    drop(workload);

    let per_op = |total: u64| total as f64 / n_ops.max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Plan-cache lookups of the op's own SQL: all of them, less XQ2SQL's
    // catalog lookups and the staged driver's second lookup per statement
    // (`run()` after `planned()`), which always hits.
    let own_hits = obs
        .cache_hit
        .saturating_sub(tally.catalog_hits + tally.staged_reruns);
    let own_misses = obs
        .cache_miss
        .saturating_sub(tally.catalog_lookups - tally.catalog_hits);
    let counts: BTreeMap<&str, f64> = BTreeMap::from([
        ("staged_op_us", median(&root_us)),
        (
            "xquery.xq2sql_catalog_queries",
            per_op(tally.catalog_lookups),
        ),
        (
            "relstore.plan_cache_hit_share",
            ratio(own_hits as f64, (own_hits + own_misses) as f64),
        ),
        ("relstore.rows_scanned", per_op(obs.rows_scanned)),
        ("relstore.index_probes", per_op(obs.index_probes)),
        (
            "relstore.keyword_postings_read",
            per_op(obs.keyword_postings_read),
        ),
        ("relstore.segments_pruned", per_op(obs.segments_pruned)),
        (
            "relstore.rows_scanned_per_row_emitted",
            ratio(obs.rows_scanned as f64, obs.rows_emitted as f64),
        ),
        (
            "datahounds.statements_per_entry",
            ratio(tally.statements as f64, tally.entries as f64),
        ),
        (
            "relstore.wal_bytes_per_flat_byte",
            ratio(obs.wal_bytes as f64, tally.flat_bytes as f64),
        ),
        ("relstore.fsyncs_per_op", per_op(obs.wal_commits)),
        (
            "unattributed_share",
            (staged_p50 - facade_p50).abs() / facade_p50,
        ),
        (
            "trace_overhead_share",
            (traced_p50 - staged_p50) / staged_p50,
        ),
    ]);

    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = match name.strip_suffix("_us") {
                Some(span) if layers.contains_key(span) => layers[span],
                _ => counts[name.as_str()],
            };
            (name, value, unit)
        })
        .collect();
    let mut diagnostics = vec![
        ("traced_ops", Json::Num(n_ops as f64)),
        ("facade_p50_ms", Json::Num(facade_p50)),
        ("staged_p50_ms", Json::Num(staged_p50)),
        ("traced_p50_ms", Json::Num(traced_p50)),
        ("plan_cache_hits", Json::Num(obs.cache_hit as f64)),
        ("plan_cache_misses", Json::Num(obs.cache_miss as f64)),
        ("spans_file", Json::Str(spans_name)),
    ];
    if let Some(e) = first_error {
        diagnostics.push(("first_error", Json::Str(e)));
    }
    Ok(RunOutput {
        attempted,
        failed,
        metrics,
        diagnostics: Json::obj(diagnostics),
    })
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
