//! Runs every workload at a tiny size: every named metric is reported with
//! its unit, no operation fails, the layers add back to the total, the
//! same seed gives the same answer digest, and the committed
//! `BENCHMARK.json` and `spec.json` match the tables they are rendered
//! from.

use perfbench::{run, spec, Config, Report, Size};
use std::path::{Path, PathBuf};

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("smoke")
}

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    let cfg = Config {
        seed,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        out_dir: out_dir(),
    };
    let report = run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        report.correct && report.failed == 0,
        "{workload} (trace {trace}) failed: {:?}",
        report.problems
    );
    assert!(report.attempted >= 1);
    if !trace {
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.starts_with("error_rate: 0 ratio")),
            "{workload}: {:?}",
            report.notes
        );
    }
    report
}

fn assert_metrics(report: &Report, expected: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.as_str(), unit.as_str()))
        .collect();
    assert_eq!(got, expected, "{}: metric names and units", report.workload);
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{}: {name} = {value}", report.workload);
    }
}

#[test]
fn every_workload_reports_every_metric_and_repeats_its_digest() {
    let e2e: Vec<(&str, &str)> = spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in &spec::WORKLOADS {
        let first = tiny(w.name, 11, false);
        assert_metrics(&first, &e2e);
        for (name, value, _) in &first.metrics {
            assert!(
                *value > 0.0,
                "{}: end-to-end {name} must never be 0",
                w.name
            );
        }
        let second = tiny(w.name, 11, false);
        assert_eq!(
            first.digest, second.digest,
            "{}: same seed, different answers",
            w.name
        );
        assert_eq!(first.digest_ops, second.digest_ops);
        let traced = tiny(w.name, 11, true);
        assert_metrics(&traced, &layers);
        assert_eq!(
            first.digest, traced.digest,
            "{}: tracing changed the answers",
            w.name
        );
        check_result_line(&first, &e2e);
        check_result_line(&traced, &layers);
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let a = tiny("churn_refresh", 11, false);
    let b = tiny("churn_refresh", 12, false);
    assert_ne!(a.digest, b.digest);
}

#[test]
fn committed_files_match_the_tables() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read =
        |p: &Path| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    assert_eq!(
        read(&root.join("../BENCHMARK.json")),
        spec::benchmark_json(),
        "BENCHMARK.json is stale: regenerate it with --emit benchmark"
    );
    assert_eq!(
        read(&root.join("spec.json")),
        spec::spec_json(),
        "spec.json is stale: regenerate it with --emit spec"
    );
}

/// The result line is one JSON object with exactly the four result keys, and
/// every metric carries its value and unit.
fn check_result_line(report: &Report, expected: &[(&str, &str)]) {
    use dsg_util::json::{parse, JsonValue};
    let line = report.json();
    let value = parse(&line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
    let JsonValue::Obj(fields) = &value else {
        panic!("not an object: {line}");
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(value.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(value.get("failed"), Some(&JsonValue::Num(0.0)));
    let Some(JsonValue::Obj(metrics)) = value.get("metrics") else {
        panic!("no metrics object: {line}");
    };
    assert_eq!(metrics.len(), expected.len());
    for (name, unit) in expected {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        assert_eq!(m.get("unit"), Some(&JsonValue::Str(unit.to_string())));
        assert!(
            matches!(m.get("value"), Some(JsonValue::Num(_))),
            "{name}: {line}"
        );
    }
}
