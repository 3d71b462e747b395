//! The benchmark's own tests: the metric catalogue matches
//! `BENCHMARK.json`, names are well formed, inputs are deterministic,
//! every workload emits every metric with its unit, traced self times
//! add up to the root span, and a forced output mismatch raises
//! `error_frac`.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use retrobench::catalogue::{self, END_TO_END};
use retrobench::{inputs, Ctx, Sizes, Workload};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_slice(&std::fs::read(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses")
}

fn entries<'a>(v: &'a Value, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
    v.get(key)
        .and_then(Value::as_array)
        .expect("array")
        .iter()
        .map(|e| {
            (
                e.get("name").and_then(Value::as_str).expect("name"),
                e.get("unit").and_then(Value::as_str),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = entries(&bench, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    let e2e: Vec<(&str, Option<&str>)> =
        END_TO_END.iter().map(|s| (s.name, Some(s.unit))).collect();
    assert_eq!(entries(&bench, "end_to_end"), e2e);
    let layer = catalogue::per_layer();
    let layer: Vec<(&str, Option<&str>)> =
        layer.iter().map(|(n, u)| (n.as_str(), Some(*u))).collect();
    assert_eq!(entries(&bench, "per_layer"), layer);
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut all: Vec<(String, &str)> = catalogue::reported(false);
    all.extend(catalogue::reported(true));
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in &all {
        assert!(name.len() <= 64, "{name}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name} must match [A-Za-z0-9_.-]+"
        );
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{name}: bad unit {unit:?}"
        );
        assert!(seen.insert(name.clone()), "{name} is listed twice");
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn same_seed_yields_same_input_digest() {
    let root = tmp("digest");
    inputs::generate(&root.join("a"), 5, 100).unwrap();
    inputs::generate(&root.join("b"), 5, 100).unwrap();
    inputs::generate(&root.join("c"), 6, 100).unwrap();
    let d = |x: &str| inputs::digest(&root.join(x)).unwrap().0;
    assert_eq!(d("a"), d("b"));
    assert_ne!(d("a"), d("c"));

    // The cache generates once per (seed, size) and reports the digest.
    let calls = Cell::new(0);
    let generate = |out: &Path| {
        calls.set(calls.get() + 1);
        inputs::generate(out, 5, 100)
    };
    let first = inputs::ensure(&root.join("cache"), 5, 100, &generate).unwrap();
    let again = inputs::ensure(&root.join("cache"), 5, 100, &generate).unwrap();
    assert_eq!(calls.get(), 1);
    assert_eq!(first.digest, d("a"));
    assert_eq!(again.digest, first.digest);
}

/// The program binaries, built once per test process into the test
/// target's scratch directory.
fn bin_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("program");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--offline",
                "--release",
                "--quiet",
                "--bin",
                "retrodns",
            ])
            .args(["--bin", "retrodns-serve", "--manifest-path"])
            .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the program binaries failed");
        target.join("release")
    })
}

fn ctx(trace: bool, force_mismatch: bool, work: &str) -> Ctx {
    Ctx {
        seed: 3,
        seconds: 0.3,
        trace,
        bin_dir: bin_dir().to_path_buf(),
        work: Path::new(env!("CARGO_TARGET_TMPDIR")).join(work),
        sizes: Sizes::tiny(),
        nproc: 2,
        generator: Box::new(|out: &Path, seed: u64, domains: usize| {
            inputs::generate(out, seed, domains)
        }),
        force_mismatch,
    }
}

/// Metric name → (value, unit) from a result line.
fn metrics(line: &str) -> Vec<(String, f64, String)> {
    let v: Value = serde_json::from_str(line).expect("result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(v.get(key).is_some(), "result line lacks {key}");
    }
    v.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value: f64 =
                serde_json::from_str(&serde_json::to_string(m.get("value").unwrap()).unwrap())
                    .unwrap();
            (
                name.clone(),
                value,
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let c = ctx(trace, false, "emit");
            let outcome =
                retrobench::run(workload, &c).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            assert!(
                outcome.correct(),
                "{workload:?} trace={trace}: outputs incorrect"
            );
            let line = outcome.result_line(trace).unwrap();
            let got = metrics(&line);
            let want = catalogue::reported(trace);
            assert_eq!(got.len(), want.len(), "{workload:?} trace={trace}");
            for ((name, value, unit), (want_name, want_unit)) in got.iter().zip(&want) {
                assert_eq!((name, unit.as_str()), (want_name, *want_unit));
                assert!(value.is_finite());
                if !trace {
                    assert!(*value > 0.0, "{workload:?}: end-to-end {name} is 0");
                }
            }
            if trace {
                let value = |n: &str| got.iter().find(|(name, ..)| name == n).unwrap().1;
                assert!(value("self_ms.bench") > 0.0, "{workload:?}: no root span");
                let layer = match workload {
                    Workload::AnalyzeCold => "data.load_ms",
                    Workload::Resweep => "map.build_rows_ns_per_obs.w1",
                    Workload::StreamDurable => "checkpoint.write_ms.p50",
                    Workload::ServeMixed => "serve.handle_us.verdict",
                };
                assert!(value(layer) > 0.0, "{workload:?}: {layer} not measured");
                // The per-layer self times account for the traced unit
                // of work: they add up to its mean root span.
                let self_total: f64 = got
                    .iter()
                    .filter(|(name, ..)| name.starts_with("self_ms."))
                    .map(|(_, v, _)| v)
                    .sum();
                let root = value("trace.root_ms");
                assert!(
                    (self_total - root).abs() <= 1e-6 * root,
                    "{workload:?}: self times {self_total} ms vs root {root} ms"
                );
            }
        }
    }
}

#[test]
fn forced_output_mismatch_raises_error_frac() {
    for workload in Workload::ALL {
        let c = ctx(false, true, "mismatch");
        let outcome = retrobench::run(workload, &c).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
        assert!(
            outcome.error_frac() > 0.0,
            "{workload:?}: mismatch not counted"
        );
        assert!(
            !outcome.correct(),
            "{workload:?}: mismatch did not fail the run"
        );
        assert!(outcome
            .result_line(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
