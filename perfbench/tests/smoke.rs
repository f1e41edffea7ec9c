//! Smoke test: every workload at `--size tiny`, through the same binary
//! and code path as the benchmark, in both modes. Checks that every
//! metric `BENCHMARK.json` names is emitted with its unit, that no
//! operation failed, and that README.md's per-layer table lists every
//! per-layer metric with its unit.

use std::path::PathBuf;
use std::process::Command;
use tit_serve::json::{parse, Json};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in one BENCHMARK.json table.
fn table(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric table")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected envelope and result lines:\n{stdout}"
    );
    let envelope = parse(lines[lines.len() - 2]).expect("envelope parses");
    assert!(
        envelope
            .get("envelope")
            .and_then(|e| e.get("nproc"))
            .is_some(),
        "{stdout}"
    );
    parse(lines[lines.len() - 1]).expect("result line parses")
}

fn check(workload: &str) {
    let bench = benchmark_json();
    for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let r = run(workload, trace);
        assert!(
            matches!(r.get("correct"), Some(Json::Bool(true))),
            "{workload}: not correct"
        );
        assert_eq!(
            r.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload}: error_rate must be 0"
        );
        assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            panic!("{workload}: no metrics")
        };
        let want = table(&bench, key);
        assert_eq!(
            metrics.len(),
            want.len(),
            "{workload} --trace {trace}: metric count"
        );
        for (name, unit) in want {
            let m = r.get("metrics").and_then(|ms| ms.get(&name));
            let m = m.unwrap_or_else(|| panic!("{workload} --trace {trace}: {name} missing"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(v.is_finite() && v >= 0.0, "{workload}: {name} = {v}");
            if trace == 0 {
                assert!(v > 0.0, "{workload}: end-to-end {name} must not be 0");
            }
        }
    }
}

#[test]
fn lu_text() {
    check("lu-text");
}

#[test]
fn lu_wide_store() {
    check("lu-wide-store");
}

#[test]
fn pairs_store() {
    check("pairs-store");
}

#[test]
fn serve_whatif() {
    check("serve-whatif");
}

/// BENCHMARK.json and README.md agree with the binary's own vocabulary.
#[test]
fn benchmark_json_and_readme_match_the_metric_vocabulary() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--list-metrics")
        .output()
        .expect("spawn perfbench");
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout).into_owned();
    let bench = benchmark_json();
    let mut declared: Vec<(String, String, String)> = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).and_then(Json::as_arr).expect("metric table") {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_owned();
            declared.push((s("name"), s("unit"), s("better")));
        }
    }
    let listed: Vec<(String, String, String)> = listing
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            (f[0].to_owned(), f[1].to_owned(), f[2].to_owned())
        })
        .collect();
    assert_eq!(
        declared, listed,
        "BENCHMARK.json metrics differ from src/spec.rs"
    );

    let readme =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md"))
            .expect("read README.md");
    for row in listing.lines().filter_map(|l| l.strip_prefix("row ")) {
        assert!(
            readme.contains(row),
            "README.md lacks the per-layer row {row}"
        );
    }
    for w in bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert!(
            readme.contains(&format!("| `{name}` |")),
            "README.md lacks workload {name}"
        );
    }
}
