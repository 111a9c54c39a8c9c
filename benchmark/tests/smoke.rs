//! Smoke test: a tiny-size pass of every workload, untraced and traced.
//! Every metric `BENCHMARK.json` names must be printed with its unit and a
//! positive value, `op_fail_ratio` must be reported, and no check may fail.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["fleet-read", "churn-rw", "offline-analyze"];

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

/// The string value of `"key": "value"` in a flat JSON fragment.
fn field(fragment: &str, key: &str) -> String {
    let at = fragment.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("{key} in {fragment}"));
    let rest = &fragment[at + key.len() + 2..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_string()
}

/// Runs one tiny pass and returns its stdout lines.
fn run(workload: &str, trace: bool) -> Vec<String> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_fhg-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output").lines().map(str::to_string).collect()
}

/// `name -> (value, unit)` from the result line's `metrics` object.
fn result_metrics(line: &str) -> BTreeMap<String, (f64, String)> {
    let body = &line[line.find("\"metrics\":{").expect("metrics object") + 11..];
    let mut metrics = BTreeMap::new();
    for entry in body.split("},").filter(|e| e.contains("\"value\"")) {
        let name =
            entry.trim_start_matches(['{', ',']).split('"').nth(1).expect("name").to_string();
        let value = entry.split("\"value\":").nth(1).expect("value");
        let value: f64 = value[..value.find(',').expect("value ends")].parse().expect("number");
        metrics.insert(name, (value, field(entry, "unit")));
    }
    metrics
}

fn check(list: &str, trace: bool) {
    let want = declared(list);
    assert!(!want.is_empty(), "{list} declares metrics");
    for workload in WORKLOADS {
        let lines = run(workload, trace);
        let last = lines.last().expect("output");
        assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
        assert!(lines.iter().any(|l| l.starts_with("metric op_fail_ratio 0 ratio")), "{workload}");
        let got = result_metrics(last);
        assert_eq!(got.len(), want.len(), "{workload}: {got:?}");
        for (name, unit) in &want {
            let (value, printed_unit) =
                got.get(name).unwrap_or_else(|| panic!("{workload}: {name}"));
            assert_eq!(printed_unit, unit, "{workload}: {name}");
            assert!(*value > 0.0 && value.is_finite(), "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    check("end_to_end", false);
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    check("per_layer", true);
}
