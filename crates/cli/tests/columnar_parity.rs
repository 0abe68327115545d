//! TSV-vs-columnar parity: `certchain convert` followed by a columnar
//! `analyze` must reproduce the TSV analysis byte-for-byte — same JSON
//! summary, same report tables, at every thread count — and a stale
//! store version must fail loudly instead of silently falling back.

#[path = "../../colstore/tests/common/mod.rs"]
mod common;

use certchain_cli::dataset::DatasetFormat;
use certchain_cli::{analyze, convert, generate};
use certchain_obs::json::JsonValue;
use certchain_workload::CampusProfile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One shared dataset, generated and converted once: every test here
/// reads it, none mutates it (the version test copies the store first).
fn dataset_dir() -> &'static PathBuf {
    static CELL: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("certchain-colpar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profile = CampusProfile {
            seed: 99,
            chain_scale: 0.0005,
            conn_scale: 0.00005,
            public_chains: 120,
            public_conns_per_chain: 2,
        };
        generate::generate(&dir, profile).expect("generate succeeds");
        let summary = convert::convert(&dir).expect("convert succeeds");
        assert!(summary.contains("ssl rows"), "{summary}");
        dir
    })
}

fn analyze_with(format: DatasetFormat, threads: usize, json: bool) -> String {
    analyze::analyze_opts(
        dataset_dir(),
        &analyze::AnalyzeOptions {
            threads,
            json,
            format: Some(format),
            ..analyze::AnalyzeOptions::default()
        },
    )
    .expect("analyze succeeds")
}

/// The human report minus its loss-accounting line, which by design
/// describes the input representation (log lines vs store rows).
fn tables_only(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("loss accounting:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn json_summary_is_byte_identical_across_formats_and_threads() {
    let baseline = analyze_with(DatasetFormat::Tsv, 1, true);
    for threads in [1usize, 2, 8] {
        for format in [DatasetFormat::Tsv, DatasetFormat::Columnar] {
            let got = analyze_with(format, threads, true);
            assert_eq!(
                got, baseline,
                "JSON diverged for {format:?} at {threads} threads"
            );
        }
    }
}

#[test]
fn report_tables_are_byte_identical_across_formats() {
    let tsv = analyze_with(DatasetFormat::Tsv, 1, false);
    let col = analyze_with(DatasetFormat::Columnar, 8, false);
    assert_ne!(tsv, col, "loss lines describe different representations");
    assert_eq!(tables_only(&tsv), tables_only(&col));
    assert!(
        col.contains("colstore"),
        "columnar loss line names the store"
    );
}

#[test]
fn store_is_auto_detected_when_present() {
    // No explicit --format: the converted store must win over the TSVs.
    let auto = analyze::analyze_opts(dataset_dir(), &analyze::AnalyzeOptions::default()).unwrap();
    assert!(auto.contains("colstore"), "{auto}");
}

/// Copy the shared dataset (logs, trust material, CT corpus, and the
/// converted store) into a private directory a test may mutate.
fn copy_dataset(tag: &str) -> PathBuf {
    let src = dataset_dir();
    let dir = std::env::temp_dir().join(format!("certchain-colpar-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("colstore")).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
    }
    for entry in std::fs::read_dir(src.join("colstore")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join("colstore").join(entry.file_name())).unwrap();
    }
    for sub in ["trust/roots", "trust/ccadb", "ct"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
        for entry in std::fs::read_dir(src.join(sub)).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(sub).join(entry.file_name())).unwrap();
        }
    }
    dir
}

/// Replace `dir`'s v2 store with the same data in the read-only v1
/// layout.
fn rewrite_store_as_v1(dir: &Path) {
    let store = certchain_cli::dataset::colstore_dir(dir);
    let v1 = store.with_file_name("colstore.v1");
    common::write_v1(&store, &v1);
    std::fs::remove_dir_all(&store).unwrap();
    std::fs::rename(&v1, &store).unwrap();
}

/// The rarest SNI and the rarest responder port in `dir`'s store (ties
/// to the smallest value): predicates most row bands cannot match.
fn rare_predicates(dir: &Path) -> (String, u16) {
    fn rarest<K: Clone + Ord>(freq: &BTreeMap<K, u64>) -> K {
        freq.iter()
            .min_by_key(|(key, n)| (**n, (*key).clone()))
            .expect("dataset has rows")
            .0
            .clone()
    }
    let store = certchain_cli::dataset::colstore_dir(dir);
    let reader =
        certchain_colstore::DatasetReader::open(&store, certchain_colstore::MapMode::Auto).unwrap();
    let mut snis: BTreeMap<String, u64> = BTreeMap::new();
    let mut ports: BTreeMap<u16, u64> = BTreeMap::new();
    for rec in reader.ssl_iter().unwrap() {
        let rec = rec.unwrap();
        *ports.entry(rec.resp_p).or_default() += 1;
        if let Some(sni) = rec.server_name {
            *snis.entry(sni).or_default() += 1;
        }
    }
    (rarest(&snis), rarest(&ports))
}

#[test]
fn version_mismatch_fails_instead_of_falling_back() {
    // Copy the dataset so the shared one keeps its valid store.
    let dir = copy_dataset("ver");
    let manifest = dir.join("colstore/dataset.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let bumped = text.replace("\"version\": 2", "\"version\": 99");
    assert_ne!(text, bumped, "manifest carries the version field");
    std::fs::write(&manifest, bumped).unwrap();

    // Auto-detection sees the manifest, reads a future version, and must
    // error — analyzing the TSVs anyway would hide a real format skew.
    let err = analyze::analyze_opts(&dir, &analyze::AnalyzeOptions::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("expected 1"), "{msg}");
    assert!(msg.contains("found 99"), "{msg}");

    // An explicit TSV override still works on the same directory.
    let report = analyze::analyze_opts(
        &dir,
        &analyze::AnalyzeOptions {
            format: Some(DatasetFormat::Tsv),
            ..analyze::AnalyzeOptions::default()
        },
    )
    .unwrap();
    assert!(report.contains("Chain census"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store manifest nested far deeper than any real one is an error that
/// names the store, not a stack overflow.
#[test]
fn a_deeply_nested_manifest_is_an_error_naming_the_store() {
    let dir = copy_dataset("deep");
    let store = dir.join("colstore");
    std::fs::write(store.join("dataset.json"), "[".repeat(300_000)).unwrap();
    let msg = analyze::analyze_opts(&dir, &analyze::AnalyzeOptions::default())
        .unwrap_err()
        .to_string();
    assert!(msg.starts_with(&store.display().to_string()), "{msg}");
    assert!(msg.contains("nested more than 128 deep"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn columnar_metrics_are_thread_invariant_and_counted() {
    let dir = dataset_dir();
    let snapshot_for = |threads: usize, tag: &str| {
        let path = std::env::temp_dir().join(format!(
            "certchain-colpar-metrics-{tag}-{}.json",
            std::process::id()
        ));
        analyze::analyze_opts(
            dir,
            &analyze::AnalyzeOptions {
                threads,
                format: Some(DatasetFormat::Columnar),
                metrics_json: Some(path.clone()),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .unwrap();
        let snap = certchain_obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        snap
    };
    let one = snapshot_for(1, "t1");
    let eight = snapshot_for(8, "t8");
    // The deterministic section must not depend on the worker count.
    assert_eq!(
        one.get("deterministic").map(JsonValue::to_pretty),
        eight.get("deterministic").map(JsonValue::to_pretty),
        "deterministic metrics diverged across thread counts"
    );
    let metric = |section: &str, name: &str| {
        one.get("deterministic")
            .and_then(|d| d.get(section))
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("{section} entry {name} missing"))
    };
    let reader = certchain_colstore::DatasetReader::open(
        &certchain_cli::dataset::colstore_dir(dir),
        certchain_colstore::MapMode::Auto,
    )
    .unwrap();
    assert_eq!(
        metric("counters", "colstore.rows_read"),
        reader.ssl_rows() + reader.x509_rows()
    );
    assert!(metric("gauges", "colstore.bytes_mapped") > 0);
    assert_eq!(
        metric("gauges", "colstore.bytes_mapped"),
        reader.bytes_mapped()
    );
    // The TSV parse-stage counters stay format-stable (present, zeroed).
    assert_eq!(metric("counters", "records_dropped"), 0);
}

#[test]
fn convert_refuses_to_overwrite_without_force() {
    let dir = copy_dataset("force");
    let err = convert::convert(&dir).unwrap_err();
    assert!(err.to_string().contains("--force"), "{err}");
    let summary = convert::convert_opts(
        &dir,
        &convert::ConvertOptions {
            force: true,
            ..convert::ConvertOptions::default()
        },
    )
    .unwrap();
    assert!(summary.contains("ssl rows"), "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_convert_force_keeps_the_previous_store() {
    let dir = copy_dataset("failed-force");
    let columnar = || {
        analyze::analyze_opts(
            &dir,
            &analyze::AnalyzeOptions {
                json: true,
                format: Some(DatasetFormat::Columnar),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .expect("columnar analyze")
    };
    let before = columnar();
    // One byte that is not UTF-8, halfway into ssl.log: the conversion
    // reads the x509 log and half the ssl log, then fails.
    let ssl_log = dir.join("ssl.log");
    let mut bytes = std::fs::read(&ssl_log).unwrap();
    let mid = bytes.len() / 2;
    bytes.insert(mid, 0xff);
    std::fs::write(&ssl_log, bytes).unwrap();
    let err = convert::convert_opts(
        &dir,
        &convert::ConvertOptions {
            force: true,
            ..convert::ConvertOptions::default()
        },
    )
    .unwrap_err()
    .to_string();
    assert!(err.contains("ssl.log") && err.contains("UTF-8"), "{err}");
    assert_eq!(columnar(), before, "the previous store must stay intact");
    assert!(
        !dir.join("colstore.tmp-compact").exists(),
        "a failed conversion leaves no partial store behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_migrates_v1_stores_with_identical_reports() {
    use certchain_cli::compact;
    let dir = copy_dataset("compact");
    // Rewrite the store in the legacy v1 layout first.
    rewrite_store_as_v1(&dir);
    let manifest = certchain_colstore::Manifest::load(&dir.join("colstore")).unwrap();
    assert_eq!(manifest.version, 1);
    let report_at = |threads: usize| {
        analyze::analyze_opts(
            &dir,
            &analyze::AnalyzeOptions {
                threads,
                json: true,
                format: Some(DatasetFormat::Columnar),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .unwrap()
    };
    let v1_report = report_at(1);
    // Live migration: the v1 store analyzes without any re-conversion,
    // and `compact` then rewrites it as v2 with byte-identical output.
    let summary = compact::compact(&dir).unwrap();
    assert!(summary.contains("from v1 to v2"), "{summary}");
    let manifest = certchain_colstore::Manifest::load(&dir.join("colstore")).unwrap();
    assert_eq!(manifest.version, 2);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            report_at(threads),
            v1_report,
            "diverged at {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filtered_analysis_skips_segments_and_matches_tsv() {
    let dir = copy_dataset("filter");
    // Small row bands so the store has many segments to skip.
    convert::convert_opts(
        &dir,
        &convert::ConvertOptions {
            force: true,
            segment_rows: Some(32),
            ..convert::ConvertOptions::default()
        },
    )
    .unwrap();
    // Pick the rarest SNI in the store (lexicographically smallest on
    // ties) — a predicate most row bands cannot match.
    let (sni, _) = rare_predicates(&dir);

    let metrics_path = dir.join("filter-metrics.json");
    let filtered = |format: DatasetFormat, threads: usize| {
        analyze::analyze_opts(
            &dir,
            &analyze::AnalyzeOptions {
                threads,
                json: true,
                format: Some(format),
                filter_sni: Some(sni.clone()),
                metrics_json: Some(metrics_path.clone()),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .unwrap()
    };
    let baseline = filtered(DatasetFormat::Tsv, 1);
    let unfiltered = analyze_with(DatasetFormat::Tsv, 1, true);
    assert_ne!(baseline, unfiltered, "the filter must change the analysis");
    for threads in [1usize, 2, 8] {
        assert_eq!(
            filtered(DatasetFormat::Columnar, threads),
            baseline,
            "filtered columnar diverged at {threads} threads"
        );
    }
    // The last columnar run's metrics must show zone maps at work.
    let snap =
        certchain_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let counter = |name: &str| {
        snap.get("deterministic")
            .and_then(|d| d.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert!(counter("colstore.segments_read") > 0);
    assert!(
        counter("colstore.segments_skipped") > 0,
        "a rare-SNI filter must skip at least one segment"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_preserves_digests_byte_for_byte() {
    use certchain_cli::compact;
    let dir = copy_dataset("digests");
    let store = certchain_cli::dataset::colstore_dir(&dir);
    let manifest = certchain_colstore::Manifest::load(&store).unwrap();
    let before = manifest
        .category_digests
        .clone()
        .expect("convert with trust material digests the store");
    // Byte-for-byte: compare the digests' canonical JSON, not just the
    // parsed counts.
    let digest_json = |d: &[certchain_colstore::CategoryDigest]| {
        certchain_obs::json::JsonValue::Arr(d.iter().map(|d| d.to_json()).collect()).to_pretty()
    };
    let summary = compact::compact(&dir).unwrap();
    assert!(summary.contains("already v2"), "{summary}");
    let manifest = certchain_colstore::Manifest::load(&store).unwrap();
    let after = manifest
        .category_digests
        .expect("recompaction recomputes digests");
    assert_eq!(digest_json(&before), digest_json(&after));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shared body for the filter parity tests: analyze `dir` under the
/// filter fields of `filter` in TSV and columnar form at threads 1/2/8,
/// demand byte-identity, and return the last columnar run's metrics
/// snapshot.
fn filter_parity(dir: &Path, filter: &analyze::AnalyzeOptions) -> JsonValue {
    let metrics_path = dir.join("filter-metrics.json");
    let filtered = |format: DatasetFormat, threads: usize| {
        analyze::analyze_opts(
            dir,
            &analyze::AnalyzeOptions {
                threads,
                json: true,
                format: Some(format),
                metrics_json: Some(metrics_path.clone()),
                ..filter.clone()
            },
        )
        .unwrap()
    };
    let baseline = filtered(DatasetFormat::Tsv, 1);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            filtered(DatasetFormat::Columnar, threads),
            baseline,
            "filtered columnar diverged at {threads} threads under {filter:?}"
        );
    }
    certchain_obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap()
}

/// [`filter_parity`] under `--filter-category non_public_only`.
fn category_parity(dir: &Path) -> JsonValue {
    let set = certchain_colstore::CategorySet::parse_list("non_public_only").unwrap();
    filter_parity(
        dir,
        &analyze::AnalyzeOptions {
            filter_category: Some(set),
            ..analyze::AnalyzeOptions::default()
        },
    )
}

fn counter_of(snap: &JsonValue, name: &str) -> u64 {
    snap.get("deterministic")
        .and_then(|d| d.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing"))
}

#[test]
fn category_filter_skips_segments_and_matches_tsv() {
    let dir = copy_dataset("cat");
    // Small row bands so the digests have many segments to veto.
    convert::convert_opts(
        &dir,
        &convert::ConvertOptions {
            force: true,
            segment_rows: Some(32),
            ..convert::ConvertOptions::default()
        },
    )
    .unwrap();
    let snap = category_parity(&dir);
    assert!(
        counter_of(&snap, "colstore.segments_skipped_category") > 0,
        "digests must let a rare-category filter skip segments"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn digestless_stores_analyze_correctly_and_never_skip() {
    // A v1 store has no digests at all: category filtering must fall
    // back to per-row tests and still match the TSV oracle. The port and
    // SNI predicates run over the v1 store's zone-mapped plain bands.
    let dir = copy_dataset("cat-v1");
    rewrite_store_as_v1(&dir);
    category_parity(&dir);
    let (sni, port) = rare_predicates(&dir);
    filter_parity(
        &dir,
        &analyze::AnalyzeOptions {
            filter_port: Some(port),
            ..analyze::AnalyzeOptions::default()
        },
    );
    filter_parity(
        &dir,
        &analyze::AnalyzeOptions {
            filter_sni: Some(sni),
            ..analyze::AnalyzeOptions::default()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A digest-less v2 store (written by a pre-digest build, simulated
    // by streaming the store through a writer with no provider): the
    // fold must read every segment rather than guess.
    let dir = copy_dataset("cat-v2nodigest");
    let store = certchain_cli::dataset::colstore_dir(&dir);
    let rewrite = store.with_file_name("colstore.rewrite");
    {
        let reader =
            certchain_colstore::DatasetReader::open(&store, certchain_colstore::MapMode::Auto)
                .unwrap();
        let mut writer = certchain_colstore::DatasetWriter::create_with(
            &rewrite,
            certchain_colstore::WriterOptions { segment_rows: 32 },
        )
        .unwrap();
        for rec in reader.x509_iter().unwrap() {
            writer.append_x509(&rec.unwrap()).unwrap();
        }
        for rec in reader.ssl_iter().unwrap() {
            writer.append_ssl(&rec.unwrap()).unwrap();
        }
        writer.finish().unwrap();
    }
    std::fs::remove_dir_all(&store).unwrap();
    std::fs::rename(&rewrite, &store).unwrap();
    assert!(
        certchain_colstore::Manifest::load(&store)
            .unwrap()
            .category_digests
            .is_none(),
        "rewrite without a provider must be digest-less"
    );
    let snap = category_parity(&dir);
    assert_eq!(
        counter_of(&snap, "colstore.segments_skipped_category"),
        0,
        "a digest-less store must never category-skip a segment"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `pipeline.*` entry of a metrics snapshot's deterministic section,
/// as canonical JSON, by name.
fn pipeline_metrics(snap: &JsonValue) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let sections = snap
        .get("deterministic")
        .and_then(JsonValue::as_obj)
        .expect("deterministic section");
    for (_, section) in sections {
        for (name, value) in section.as_obj().into_iter().flatten() {
            if name.starts_with("pipeline.") {
                out.insert(name.clone(), value.to_pretty());
            }
        }
    }
    out
}

/// One rule decides which x509 row defines a fingerprint, on every path.
/// A copy's x509.log gains a repeat of an existing fingerprint whose
/// subject does not parse, and a fresh fingerprint whose first row does
/// not parse and whose second row does. Only that first row is parsed
/// and fails; the repeat is never parsed. The TSV and columnar analyses
/// must agree on every `pipeline.*` metric at threads 1/2/8.
#[test]
fn x509_rows_intern_under_one_rule_on_every_path() {
    let dir = copy_dataset("intern");
    let path = dir.join("x509.log");
    let log = std::fs::read_to_string(&path).unwrap();
    let names: Vec<&str> = log
        .lines()
        .find_map(|l| l.strip_prefix("#fields\t"))
        .expect("a #fields header")
        .split('\t')
        .collect();
    let col = |name: &str| names.iter().position(|n| *n == name).unwrap();
    let first: Vec<&str> = log
        .lines()
        .find(|l| !l.starts_with('#'))
        .expect("a data row")
        .split('\t')
        .collect();
    let row = |fp: &str, subject: &str| {
        let mut fields = first.clone();
        fields[col("fingerprint")] = fp;
        fields[col("certificate.subject")] = subject;
        fields.join("\t") + "\n"
    };
    let fresh = "f00d".repeat(16);
    assert!(!log.contains(&fresh), "the fresh fingerprint is new");
    let close = log.rfind("#close").expect("a #close line");
    let patched = [
        &log[..close],
        &row(first[col("fingerprint")], "not a dn"),
        &row(&fresh, "not a dn"),
        &row(&fresh, "CN=fresh.example.org"),
        &log[close..],
    ]
    .concat();
    std::fs::write(&path, patched).unwrap();
    convert::convert_opts(
        &dir,
        &convert::ConvertOptions {
            force: true,
            ..convert::ConvertOptions::default()
        },
    )
    .unwrap();

    let metrics_path = dir.join("intern-metrics.json");
    let metrics_of = |format: DatasetFormat, threads: usize| {
        analyze::analyze_opts(
            &dir,
            &analyze::AnalyzeOptions {
                threads,
                format: Some(format),
                metrics_json: Some(metrics_path.clone()),
                ..analyze::AnalyzeOptions::default()
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        pipeline_metrics(&certchain_obs::json::parse(&text).unwrap())
    };
    let baseline = metrics_of(DatasetFormat::Tsv, 1);
    assert_eq!(
        baseline
            .get("pipeline.x509_unparseable_rows")
            .map(String::as_str),
        Some("1"),
        "{baseline:?}"
    );
    for threads in [1usize, 2, 8] {
        for format in [DatasetFormat::Tsv, DatasetFormat::Columnar] {
            assert_eq!(
                metrics_of(format, threads),
                baseline,
                "pipeline metrics diverged for {format:?} at {threads} threads"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `root`, by its path relative to `root`, with its bytes.
fn tree(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

/// `generate --format columnar` writes its store through the one store
/// rewrite: the store equals, file for file, the one `generate` +
/// `convert` writes, category digests included, so a hybrid filter skips
/// segments over it. No log or scratch directory is left beside it.
#[test]
fn generate_columnar_writes_the_converted_store() {
    let base = std::env::temp_dir().join(format!("certchain-gen-col-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let profile = CampusProfile::quick();
    let (columnar, tsv) = (base.join("columnar"), base.join("tsv"));
    generate::generate_opts(
        &columnar,
        profile.clone(),
        &generate::GenerateOptions {
            format: DatasetFormat::Columnar,
            ..generate::GenerateOptions::default()
        },
    )
    .expect("generate --format columnar");
    generate::generate(&tsv, profile).expect("generate");
    convert::convert(&tsv).expect("convert");
    let (written, converted) = (
        tree(&columnar.join("colstore")),
        tree(&tsv.join("colstore")),
    );
    assert_eq!(
        written.keys().collect::<Vec<_>>(),
        converted.keys().collect::<Vec<_>>()
    );
    for (path, bytes) in &written {
        assert!(
            converted[path] == *bytes,
            "colstore/{} differs",
            path.display()
        );
    }
    assert!(
        std::fs::read(columnar.join("ct.idx")).unwrap()
            == std::fs::read(tsv.join("ct.idx")).unwrap(),
        "ct.idx differs"
    );
    for leftover in [
        "ssl.log",
        "x509.log",
        "colstore.tmp-logs",
        "colstore.tmp-compact",
    ] {
        assert!(!columnar.join(leftover).exists(), "{leftover} left behind");
    }
    let metrics = columnar.join("hybrid-metrics.json");
    analyze::analyze_opts(
        &columnar,
        &analyze::AnalyzeOptions {
            filter_category: Some(certchain_colstore::CategorySet::parse_list("hybrid").unwrap()),
            metrics_json: Some(metrics.clone()),
            ..analyze::AnalyzeOptions::default()
        },
    )
    .expect("filtered analyze");
    let snap = certchain_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert!(
        counter_of(&snap, "colstore.segments_skipped_category") > 0,
        "the store's category digests must let a hybrid filter skip segments"
    );
    std::fs::remove_dir_all(&base).unwrap();
}
