//! Observability round-trip: `analyze_opts` with a metrics path must
//! write a parseable `certchain-metrics/v1` snapshot whose loss
//! accounting balances, must not change the report bytes, and must tally
//! (not swallow, not die on) malformed Zeek rows.

use certchain_cli::{analyze, generate};
use certchain_obs::json::JsonValue;
use certchain_workload::CampusProfile;
use std::path::PathBuf;

/// A tiny dataset: this file is about the metrics plumbing, not volume.
fn tiny_profile() -> CampusProfile {
    CampusProfile {
        seed: 99,
        chain_scale: 0.0005,
        conn_scale: 0.00005,
        public_chains: 120,
        public_conns_per_chain: 2,
    }
}

fn fresh_dataset(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("certchain-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate::generate(&dir, tiny_profile()).expect("generate succeeds");
    dir
}

#[test]
fn snapshot_parses_and_loss_accounting_balances() {
    let dir = fresh_dataset("clean");
    let metrics_path = dir.join("metrics.json");
    let opts = analyze::AnalyzeOptions {
        metrics_json: Some(metrics_path.clone()),
        ..analyze::AnalyzeOptions::default()
    };
    let report = analyze::analyze_opts(&dir, &opts).unwrap();
    assert!(report.contains("Chain census"));
    assert!(report.contains("loss accounting:"), "{report}");

    let text = std::fs::read_to_string(&metrics_path).unwrap();
    let snap = certchain_obs::json::parse(&text).expect("snapshot is valid JSON");
    assert_eq!(
        snap.get("schema").and_then(JsonValue::as_str),
        Some("certchain-metrics/v1")
    );
    let counter = |name: &str| {
        snap.get("deterministic")
            .and_then(|d| d.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(counter("records_dropped"), 0);
    assert_eq!(counter("zeek.ssl.malformed"), 0);
    // Loss accounting: every line is a record, a header line, or malformed.
    let header_lines = 8; // Zeek preamble + #close
    assert_eq!(
        counter("zeek.ssl.lines_read"),
        counter("zeek.ssl.records") + header_lines
    );
    assert_eq!(
        counter("pipeline.ssl_records"),
        counter("zeek.ssl.records"),
        "every parsed record reached the pipeline"
    );
    // Timing is present but segregated from the deterministic section.
    assert!(snap.get("timing").and_then(|t| t.get("stages")).is_some());
    assert!(snap
        .get("deterministic")
        .and_then(|d| d.get("histograms"))
        .and_then(|h| h.get("pipeline.chain_length"))
        .is_some());
}

/// `generate --metrics-json` times where generation goes: the population
/// build and the emission (with the log writes) inside `generate_total`,
/// then the sidecar files and the CT table compiled from them.
#[test]
fn generate_snapshot_times_population_emit_and_sidecars() {
    let dir = std::env::temp_dir().join(format!("certchain-obs-gen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics_path = dir.with_extension("json");
    let opts = generate::GenerateOptions {
        metrics_json: Some(metrics_path.clone()),
        ..generate::GenerateOptions::default()
    };
    generate::generate_opts(&dir, tiny_profile(), &opts).expect("generate succeeds");
    let snap =
        certchain_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let stages = snap
        .get("timing")
        .and_then(|t| t.get("stages"))
        .expect("timing stages present");
    let wall_ms = |stage: &str| {
        let entry = stages
            .get(stage)
            .unwrap_or_else(|| panic!("no {stage} stage in {snap:?}"));
        assert_eq!(
            entry.get("invocations").and_then(JsonValue::as_u64),
            Some(1),
            "{stage}"
        );
        entry
            .get("wall_ms")
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{stage} has no wall_ms"))
    };
    let (population, emit, total) = (
        wall_ms("population"),
        wall_ms("emit"),
        wall_ms("generate_total"),
    );
    assert!(
        population + emit <= total,
        "{population} + {emit} > {total}"
    );
    wall_ms("write_sidecars");
    wall_ms("compile_ct_table");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_file(&metrics_path).unwrap();
}

#[test]
fn report_bytes_are_identical_with_metrics_on_or_off() {
    let dir = fresh_dataset("bytes");
    let without = analyze::analyze_opts(&dir, &analyze::AnalyzeOptions::default()).unwrap();
    let with = analyze::analyze_opts(
        &dir,
        &analyze::AnalyzeOptions {
            metrics_json: Some(dir.join("metrics.json")),
            verbose: true,
            ..analyze::AnalyzeOptions::default()
        },
    )
    .unwrap();
    assert_eq!(without, with, "metrics/verbose changed the report bytes");
}

#[test]
fn malformed_rows_are_tallied_not_fatal() {
    let dir = fresh_dataset("malformed");
    // Corrupt one data row: a non-boolean `established` field fails the
    // parser but must only be tallied in permissive (CLI) mode.
    let ssl_path = dir.join("ssl.log");
    let log = std::fs::read_to_string(&ssl_path).unwrap();
    let mut corrupted = false;
    let patched: Vec<String> = log
        .lines()
        .map(|l| {
            if !corrupted && !l.starts_with('#') {
                corrupted = true;
                let mut fields: Vec<&str> = l.split('\t').collect();
                let established = fields.len() - 2; // last column is cert_chain_fps
                fields[established] = "maybe";
                fields.join("\t")
            } else {
                l.to_string()
            }
        })
        .collect();
    assert!(corrupted, "found a data row to corrupt");
    std::fs::write(&ssl_path, patched.join("\n") + "\n").unwrap();

    let metrics_path = dir.join("metrics.json");
    let opts = analyze::AnalyzeOptions {
        metrics_json: Some(metrics_path.clone()),
        ..analyze::AnalyzeOptions::default()
    };
    let report = analyze::analyze_opts(&dir, &opts).unwrap();
    assert!(report.contains("(1 malformed)"), "{report}");

    let snap =
        certchain_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let counters = snap
        .get("deterministic")
        .and_then(|d| d.get("counters"))
        .expect("counters present");
    let counter = |name: &str| counters.get(name).and_then(JsonValue::as_u64);
    assert_eq!(counter("records_dropped"), Some(1));
    assert_eq!(counter("zeek.ssl.malformed"), Some(1));
    assert_eq!(counter("zeek.ssl.malformed.bad established"), Some(1));

    // The strict library path still refuses the corrupted log.
    assert!(analyze::run_pipeline(&dir).is_err());
}

/// A 64-byte `cert_chain_fps` value that is not ASCII (`a`, 31 × `é`,
/// `b`) is one malformed row, not a crash: `certchain analyze` tallies it
/// as `bad fingerprint` and exits 0 at every thread count.
#[test]
fn non_ascii_fingerprint_is_a_bad_fingerprint_row() {
    let dir = fresh_dataset("non-ascii-fp");
    let ssl_path = dir.join("ssl.log");
    let log = std::fs::read_to_string(&ssl_path).unwrap();
    let bad = format!("a{}b", "\u{e9}".repeat(31));
    assert_eq!(bad.len(), 64);
    let mut patched = false;
    let lines: Vec<String> = log
        .lines()
        .map(|l| {
            if patched || l.starts_with('#') || l.ends_with("(empty)") {
                return l.to_string();
            }
            patched = true;
            let (row, _chain) = l.rsplit_once('\t').expect("tab-separated row");
            format!("{row}\t{bad}")
        })
        .collect();
    assert!(patched, "found a data row with a chain");
    std::fs::write(&ssl_path, lines.join("\n") + "\n").unwrap();

    for threads in ["1", "2", "8"] {
        let metrics_path = dir.join(format!("metrics-{threads}.json"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_certchain"))
            .args(["analyze", "--dir"])
            .arg(&dir)
            .args(["--format", "tsv", "--threads", threads, "--metrics-json"])
            .arg(&metrics_path)
            .output()
            .expect("certchain runs");
        assert!(
            out.status.success(),
            "threads {threads}: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let report = String::from_utf8(out.stdout).unwrap();
        assert!(report.contains("(1 malformed)"), "{report}");
        let snap =
            certchain_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let counter = |name: &str| {
            snap.get("deterministic")
                .and_then(|d| d.get("counters"))
                .and_then(|c| c.get(name))
                .and_then(JsonValue::as_u64)
        };
        assert_eq!(counter("zeek.ssl.malformed.bad fingerprint"), Some(1));
        assert_eq!(counter("records_dropped"), Some(1));
    }
}

/// `-v` lists each stage once per analysis, on the TSV and on the
/// columnar path alike: one corpus load (trust, CT and cross-sign), and
/// one enrich, ingest, resolve, categorize and finalize.
#[test]
fn verbose_summary_times_each_stage_once() {
    let dir = fresh_dataset("verbose");
    certchain_cli::convert::convert(&dir).unwrap();
    for format in ["tsv", "columnar"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_certchain"))
            .args(["analyze", "--dir"])
            .arg(&dir)
            .args(["--format", format, "--threads", "2", "-v"])
            .output()
            .expect("certchain runs");
        assert!(out.status.success(), "{format}: {:?}", out.status);
        let stderr = String::from_utf8(out.stderr).unwrap();
        for stage in [
            "load_corpus",
            "enrich",
            "ingest",
            "resolve",
            "categorize",
            "finalize",
        ] {
            let line = stderr
                .lines()
                .find(|l| l.split_whitespace().next() == Some(stage))
                .unwrap_or_else(|| panic!("{format}: no {stage} timing in\n{stderr}"));
            assert!(line.ends_with("(1 invocation)"), "{format}: {line}");
        }
    }
}
