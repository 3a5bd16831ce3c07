//! Drives the built executable the way the benchmark driver does, at smoke
//! scale (200 entries per database, 2 s per phase), with validation on.

use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_e2ebench");
const BENCHMARK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
const WORKLOADS: [&str; 4] = [
    "paper_round_embedded",
    "point_flwr_wire",
    "resync_churn",
    "bulk_harvest",
];

#[test]
fn smoke_run_of_every_workload_validates_and_compares_clean() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let out = out.to_str().unwrap();
    let run = Command::new(EXE)
        .args([
            "run",
            "--seed",
            "7",
            "--out",
            out,
            "--smoke",
            "--seconds",
            "2",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    // `run` exits non-zero if any op failed or returned a wrong result.
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let result = std::fs::read_to_string(out).unwrap();
    for workload in WORKLOADS {
        assert!(result.contains(&format!("\"{workload}\": {{")), "{result}");
        assert!(stdout.contains(&format!("# {workload} ")), "{stdout}");
    }
    for recorded in [
        "\"cores\"",
        "\"commit\"",
        "\"rustc\"",
        "\"seed\": 7",
        "\"run_seconds\": 2",
    ] {
        assert!(result.contains(recorded), "{recorded} missing in {result}");
    }
    assert!(result.trim_end().ends_with("\"claim\": null}"), "{result}");

    // A result compared with itself is the same everywhere.
    let compare = Command::new(EXE)
        .args(["compare", out, out, "--benchmark", BENCHMARK])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert_eq!(table.matches(" same").count(), 4 * 6, "{table}");
    assert!(
        !table.contains("worse") && !table.contains("unresolved"),
        "{table}"
    );
}

#[test]
fn single_runs_end_with_one_result_object_per_contract() {
    for trace in ["0", "1"] {
        let run = Command::new(EXE)
            .args([
                "--workload",
                "bulk_harvest",
                "--seed",
                "3",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace, "--smoke"])
            .output()
            .unwrap();
        assert!(run.status.success());
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = stdout.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        let expected = if trace == "0" {
            "\"setup_s\""
        } else {
            "\"unattributed_share\""
        };
        assert!(last.contains(expected), "{last}");
    }
}

#[test]
fn a_bad_invocation_fails_without_a_result() {
    let run = Command::new(EXE)
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .unwrap();
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
}
