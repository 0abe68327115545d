//! `certchain serve` end to end: spool-split a generated dataset, drain
//! it in multiple sessions with restarts, and compare against batch
//! `analyze` — plus the HTTP surface and the compact leftover recovery.

use certchain_cli::{analyze, compact, convert, dataset, generate, serve};
use certchain_workload::CampusProfile;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn dataset_dir() -> &'static PathBuf {
    static CELL: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("certchain-serve-ds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profile = CampusProfile {
            seed: 77,
            chain_scale: 0.0005,
            conn_scale: 0.00005,
            public_chains: 120,
            public_conns_per_chain: 2,
        };
        generate::generate(&dir, profile).expect("generate succeeds");
        dir
    })
}

/// Batch reference: `analyze` output with its final loss-accounting line
/// stripped (serve's report has no parse-loss line — losses live in
/// `/status` instead).
fn batch_tables(threads: usize) -> String {
    let full = analyze::analyze_with(dataset_dir(), threads).expect("batch analyze");
    let body = full.trim_end_matches('\n');
    let cut = body.rfind('\n').expect("multi-line report");
    assert!(
        body[cut..].contains("loss accounting"),
        "expected the loss line last"
    );
    full[..cut + 1].to_string()
}

/// Batch reference for `/report.json`: `analyze --json`'s output.
fn batch_json(threads: usize) -> String {
    analyze::analyze_json_with(dataset_dir(), threads).expect("batch analyze --json")
}

fn fresh(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("certchain-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn drain(spool: &Path, checkpoint: &Path, threads: usize) -> String {
    serve::serve(
        dataset_dir(),
        spool,
        checkpoint,
        &serve::ServeOptions {
            threads,
            drain_once: true,
            ..serve::ServeOptions::default()
        },
    )
    .expect("serve drain")
}

#[test]
fn drained_spool_sessions_with_restart_match_batch_analyze() {
    let reference = batch_tables(1);
    for threads in [1usize, 2, 8] {
        let spool = fresh(&format!("spool-{threads}"));
        let hidden = fresh(&format!("hidden-{threads}"));
        let checkpoint = fresh(&format!("ckpt-{threads}"));
        let summary = serve::spool_split(dataset_dir(), &spool, 4).expect("spool-split");
        assert!(summary.contains("ssl.2024-09-01-00.log"));

        // Session 1 sees only part of the spool: hide the later ssl
        // rotations (x509 all present — order must not matter anyway).
        std::fs::create_dir_all(&hidden).unwrap();
        for name in ["ssl.2024-09-01-02.log", "ssl.2024-09-01-03.log"] {
            std::fs::rename(spool.join(name), hidden.join(name)).unwrap();
        }
        drain(&spool, &checkpoint, threads);

        // "Restart": a second drain process resumes from the checkpoint
        // after the remaining rotations arrive.
        for name in ["ssl.2024-09-01-02.log", "ssl.2024-09-01-03.log"] {
            std::fs::rename(hidden.join(name), spool.join(name)).unwrap();
        }
        let final_report = drain(&spool, &checkpoint, threads);
        assert_eq!(
            final_report, reference,
            "threads={threads}: drained serve diverged from batch analyze"
        );

        // A third drain with nothing new must not change the report and
        // must not mint a new checkpoint generation.
        let gens_before = list_gens(&checkpoint);
        let idle_report = drain(&spool, &checkpoint, threads);
        assert_eq!(idle_report, reference);
        assert_eq!(
            list_gens(&checkpoint),
            gens_before,
            "idle drain re-checkpointed"
        );

        for dir in [&spool, &hidden, &checkpoint] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn list_gens(checkpoint: &Path) -> Vec<String> {
    let mut gens: Vec<String> = std::fs::read_dir(checkpoint)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    gens.sort();
    gens
}

#[test]
fn unrecognized_and_compressed_spool_entries_are_skipped() {
    let spool = fresh("spool-skip");
    let checkpoint = fresh("ckpt-skip");
    serve::spool_split(dataset_dir(), &spool, 2).expect("spool-split");
    std::fs::write(spool.join("conn.2024-09-01-00.log"), "not a tls log\n").unwrap();
    std::fs::write(spool.join("README.txt"), "ignore me\n").unwrap();
    std::fs::write(
        spool.join("ssl.2024-09-01-09.log.gz"),
        b"\x1f\x8b/not-really",
    )
    .unwrap();
    let report = drain(&spool, &checkpoint, 2);
    assert_eq!(
        report,
        batch_tables(1),
        "skips must not perturb the analysis"
    );
    for dir in [&spool, &checkpoint] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A spool file that does not frame is skipped, not fatal: the drain
/// folds everything else, tallies the file in the state's loss map, and
/// puts it in the ledger so no later session retries it. Its fold is
/// all-or-nothing: an x509 file that fails part-way interns no row.
#[test]
fn unreadable_spool_files_are_skipped_and_tallied() {
    let spool = fresh("spool-unreadable");
    let checkpoint = fresh("ckpt-unreadable");
    serve::spool_split(dataset_dir(), &spool, 2).expect("spool-split");
    // No `#fields` header at all.
    std::fs::write(spool.join("ssl.2024-09-01-05.log"), b"").unwrap();
    // Good rows, then a line that is not UTF-8.
    let mut x509 = std::fs::read(spool.join("x509.2024-09-01-00.log")).unwrap();
    let mid = x509.len() / 2
        + x509[x509.len() / 2..]
            .iter()
            .position(|&b| b == b'\n')
            .unwrap();
    x509.splice(mid + 1..mid + 1, *b"\xff\n");
    std::fs::write(spool.join("x509.2024-09-01-06.log"), x509).unwrap();

    let reference = batch_tables(1);
    assert_eq!(drain(&spool, &checkpoint, 2), reference);
    let gens = list_gens(&checkpoint);
    assert_eq!(drain(&spool, &checkpoint, 2), reference, "second drain");
    assert_eq!(list_gens(&checkpoint), gens, "second drain re-checkpointed");

    // A daemon resuming the checkpoint publishes /status before it listens.
    let addr_file = fresh("addr-unreadable").with_extension("txt");
    let opts = serve::ServeOptions {
        threads: 2,
        listen: Some("127.0.0.1:0".to_string()),
        interval_ms: 100,
        listen_addr_file: Some(addr_file.clone()),
        ..serve::ServeOptions::default()
    };
    let addr = spawn_daemon(&spool, &checkpoint, opts);
    let (status, body) = http_get(&addr, "/status");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let doc = certchain_obs::json::parse(&body).expect("status JSON");
    let loss = |key: &str| {
        doc.get("loss")
            .and_then(|l| l.get(key))
            .and_then(|v| v.as_u64())
    };
    assert_eq!(loss("spool.ssl.unreadable"), Some(1), "{body}");
    assert_eq!(loss("spool.x509.unreadable"), Some(1), "{body}");
    let x509_rows = std::fs::read_to_string(dataset_dir().join("x509.log"))
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .count() as u64;
    assert_eq!(
        doc.get("x509_rows").and_then(|v| v.as_u64()),
        Some(x509_rows),
        "the failed x509 file interned rows"
    );
    for dir in [&spool, &checkpoint] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Run a watch-mode daemon on a thread (watch mode blocks forever; the
/// harness tears the thread down with the process) and return its HTTP
/// address once it listens.
fn spawn_daemon(spool: &Path, checkpoint: &Path, opts: serve::ServeOptions) -> String {
    let addr_file = opts.listen_addr_file.clone().expect("an address file");
    let (spool, checkpoint) = (spool.to_path_buf(), checkpoint.to_path_buf());
    std::thread::spawn(move || {
        let _ = serve::serve(dataset_dir(), &spool, &checkpoint, &opts);
    });
    let mut tries = 0;
    loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if text.contains(':') {
                return text;
            }
        }
        tries += 1;
        assert!(tries < 1500, "serve never published its address");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// The `folded_files` ledger of the daemon's `/status`.
fn folded_files(addr: &str) -> Vec<String> {
    let (status, body) = http_get(addr, "/status");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let doc = certchain_obs::json::parse(&body).expect("status JSON");
    doc.get("folded_files")
        .and_then(certchain_obs::json::JsonValue::as_arr)
        .expect("a folded_files array")
        .iter()
        .filter_map(|f| f.as_str().map(String::from))
        .collect()
}

/// Watch mode rescans as soon as the spool changes: with a 30 s
/// interval, a rotation pair renamed in after the first cycle is folded
/// within seconds, not at the next interval.
#[test]
fn a_rotation_renamed_in_is_folded_before_the_interval_ends() {
    let spool = fresh("spool-wake");
    let held = fresh("held-wake");
    let checkpoint = fresh("ckpt-wake");
    serve::spool_split(dataset_dir(), &spool, 4).expect("spool-split");
    std::fs::create_dir_all(&held).unwrap();
    let pair = ["x509.2024-09-01-03.log", "ssl.2024-09-01-03.log"];
    for name in pair {
        std::fs::rename(spool.join(name), held.join(name)).unwrap();
    }
    let addr = spawn_daemon(
        &spool,
        &checkpoint,
        serve::ServeOptions {
            threads: 2,
            listen: Some("127.0.0.1:0".to_string()),
            interval_ms: 30_000,
            listen_addr_file: Some(fresh("addr-wake").with_extension("txt")),
            ..serve::ServeOptions::default()
        },
    );
    // The first cycle folds the six files present at start.
    let mut tries = 0;
    while folded_files(&addr).len() < 6 {
        tries += 1;
        assert!(tries < 1500, "the first cycle never published");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let renamed = certchain_obs::clock::Stopwatch::start();
    for name in pair {
        std::fs::rename(held.join(name), spool.join(name)).unwrap();
    }
    loop {
        let folded = folded_files(&addr);
        if pair.iter().all(|name| folded.iter().any(|f| f == name)) {
            break;
        }
        assert!(
            renamed.elapsed_secs() < 5.0,
            "the renamed pair was not folded within 5 s: {folded:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    for dir in [&spool, &held, &checkpoint] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Watch mode folding a 6-part spool one rotation pair at a time, each
/// pair renamed in only once the daemon lists the one before on
/// `/status`, serves the batch tables at `/report` and `analyze --json`'s
/// summary at `/report.json` after the last pair, at threads 1 and 2.
#[test]
fn a_spool_renamed_in_pair_by_pair_reports_as_batch() {
    let (tables, json) = (batch_tables(1), batch_json(1));
    for threads in [1usize, 2] {
        let spool = fresh(&format!("spool-pairs-{threads}"));
        let held = fresh(&format!("held-pairs-{threads}"));
        let checkpoint = fresh(&format!("ckpt-pairs-{threads}"));
        serve::spool_split(dataset_dir(), &held, 6).expect("spool-split");
        std::fs::create_dir_all(&spool).unwrap();
        let addr = spawn_daemon(
            &spool,
            &checkpoint,
            serve::ServeOptions {
                threads,
                listen: Some("127.0.0.1:0".to_string()),
                interval_ms: 50,
                listen_addr_file: Some(
                    fresh(&format!("addr-pairs-{threads}")).with_extension("txt"),
                ),
                ..serve::ServeOptions::default()
            },
        );
        for hour in 0..6 {
            let pair = [
                format!("x509.2024-09-01-{hour:02}.log"),
                format!("ssl.2024-09-01-{hour:02}.log"),
            ];
            for name in &pair {
                std::fs::rename(held.join(name), spool.join(name)).unwrap();
            }
            let mut tries = 0;
            while !pair.iter().all(|name| folded_files(&addr).contains(name)) {
                tries += 1;
                assert!(tries < 1500, "threads={threads}: pair {hour} never folded");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
        let (status, report) = http_get(&addr, "/report");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(report, tables, "threads={threads}: /report vs batch tables");
        let (status, report_json) = http_get(&addr, "/report.json");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(
            report_json, json,
            "threads={threads}: /report.json vs analyze --json"
        );
        for dir in [&spool, &held, &checkpoint] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A daemon resumed on a spool it has already folded publishes once, at
/// start-up: a cycle that folds nothing finalizes and renders nothing.
#[test]
fn a_resumed_daemon_publishes_no_idle_cycle() {
    use certchain_obs::json::JsonValue;
    let spool = fresh("spool-idle");
    let checkpoint = fresh("ckpt-idle");
    serve::spool_split(dataset_dir(), &spool, 2).expect("spool-split");
    drain(&spool, &checkpoint, 2);
    let addr = spawn_daemon(
        &spool,
        &checkpoint,
        serve::ServeOptions {
            threads: 2,
            listen: Some("127.0.0.1:0".to_string()),
            interval_ms: 50,
            listen_addr_file: Some(fresh("addr-idle").with_extension("txt")),
            trace_capacity: 8192,
            ..serve::ServeOptions::default()
        },
    );
    let mut tries = 0;
    loop {
        // The body counts cycles also while the watchdog answers 503.
        let (_, body) = http_get(&addr, "/healthz");
        let doc = certchain_obs::json::parse(&body).expect("healthz JSON");
        if doc.get("cycles").and_then(JsonValue::as_u64) >= Some(3) {
            break;
        }
        tries += 1;
        assert!(tries < 600, "the daemon never completed three cycles");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let (status, trace) = http_get(&addr, "/trace.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let doc = certchain_obs::json::parse(&trace).expect("trace JSON");
    let events = doc
        .get("events")
        .and_then(JsonValue::as_arr)
        .expect("events array");
    let text =
        |ev: &JsonValue, key: &str| ev.get(key).and_then(JsonValue::as_str).map(String::from);
    let idle_cycles: Vec<u64> = events
        .iter()
        .filter(|ev| {
            text(ev, "kind").as_deref() == Some("span_end")
                && text(ev, "name").as_deref() == Some("serve.cycle")
                && ev
                    .get("attrs")
                    .and_then(|a| a.get("files_folded"))
                    .and_then(JsonValue::as_str)
                    == Some("0")
        })
        .filter_map(|ev| ev.get("span").and_then(JsonValue::as_u64))
        .collect();
    assert!(idle_cycles.len() >= 3, "idle cycles: {idle_cycles:?}");
    for cycle in &idle_cycles {
        assert!(
            !events.iter().any(|ev| {
                text(ev, "name").as_deref() == Some("serve.publish")
                    && ev.get("parent").and_then(JsonValue::as_u64) == Some(*cycle)
            }),
            "idle cycle {cycle} published"
        );
    }
    for dir in [&spool, &checkpoint] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Add (or replace) a `category_census` entry in the meta of the
/// checkpoint generation at `gen_dir`, as older builds wrote one.
fn set_census(gen_dir: &Path, census: certchain_obs::json::JsonValue) {
    use certchain_obs::json::JsonValue;
    let path = gen_dir.join(certchain_colstore::CHECKPOINT_MANIFEST_FILE);
    let mut doc = certchain_obs::json::parse(&std::fs::read_to_string(&path).unwrap())
        .expect("manifest JSON");
    let JsonValue::Obj(fields) = &mut doc else {
        panic!("manifest is not an object")
    };
    let Some((_, JsonValue::Obj(meta))) = fields.iter_mut().find(|(k, _)| k == "meta") else {
        panic!("manifest has no meta object")
    };
    meta.retain(|(k, _)| k != "category_census");
    meta.push(("category_census".into(), census));
    std::fs::write(&path, doc.to_pretty() + "\n").unwrap();
}

/// Generations written by older builds carry a `category_census` in
/// their meta. Such a generation still resumes to the batch drain, the
/// generation after it carries no census, and a malformed census is
/// still a corrupt checkpoint.
#[test]
fn a_generation_with_a_category_census_resumes_without_it() {
    use certchain_chainlab::{PipelineState, StateError};
    use certchain_obs::json::JsonValue;
    let spool = fresh("spool-census");
    let hidden = fresh("hidden-census");
    let checkpoint = fresh("ckpt-census");
    serve::spool_split(dataset_dir(), &spool, 4).expect("spool-split");
    std::fs::create_dir_all(&hidden).unwrap();
    let later = ["ssl.2024-09-01-02.log", "ssl.2024-09-01-03.log"];
    for name in later {
        std::fs::rename(spool.join(name), hidden.join(name)).unwrap();
    }
    drain(&spool, &checkpoint, 2);
    let newest = || {
        certchain_colstore::Checkpoint::load_latest(&checkpoint)
            .unwrap()
            .expect("a checkpoint")
    };
    let gen_dir = newest().dir().to_path_buf();
    let census = {
        let state = PipelineState::load_latest(&checkpoint).unwrap().unwrap();
        state.category_census(&dataset::load_trust(dataset_dir()).unwrap())
    };
    let as_json =
        |values: &[u64]| JsonValue::Arr(values.iter().map(|&n| JsonValue::Num(n as f64)).collect());

    for (bad, why) in [
        (as_json(&census[1..]), "entries"),
        (
            JsonValue::Arr(vec![JsonValue::Str("6".into()); census.len()]),
            "not an integer",
        ),
    ] {
        set_census(&gen_dir, bad);
        match PipelineState::load_latest(&checkpoint) {
            Err(StateError::Corrupt(msg)) => assert!(msg.contains(why), "{msg}"),
            Err(e) => panic!("expected a corrupt census, got {e}"),
            Ok(_) => panic!("a malformed census loaded"),
        }
    }
    set_census(&gen_dir, as_json(&census));

    for name in later {
        std::fs::rename(hidden.join(name), spool.join(name)).unwrap();
    }
    assert_eq!(drain(&spool, &checkpoint, 2), batch_tables(1));
    let resumed = newest();
    assert_ne!(resumed.dir(), gen_dir, "the drain wrote no new generation");
    assert!(
        resumed.meta.get("category_census").is_none(),
        "the census was persisted again"
    );
    for dir in [&spool, &hidden, &checkpoint] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn http_get(addr: &str, path: &str) -> (String, String) {
    http_get_with(addr, path, &[])
}

fn http_get_with(addr: &str, path: &str, headers: &[(&str, &str)]) -> (String, String) {
    let mut conn = TcpStream::connect(addr.trim()).expect("connect");
    let mut req = format!("GET {path} HTTP/1.1\r\nHost: serve\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str("\r\n");
    conn.write_all(req.as_bytes()).expect("send");
    let mut text = String::new();
    conn.read_to_string(&mut text).expect("read");
    let status = text.lines().next().unwrap_or("").to_string();
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The CI shape check in Rust: every non-comment non-blank Prometheus
/// line is `name[{labels}] value` with a metric-charset name and a
/// numeric value.
fn assert_prometheus_shape(body: &str) {
    let mut samples = 0;
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("line has a value");
        let name = series.split('{').next().unwrap_or("");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_lowercase() || c == '_' || c == ':')
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_:.".contains(c)),
            "bad metric name in line {line:?}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "bad sample value in line {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 10, "suspiciously few Prometheus samples");
}

/// Pull the pretty-printed deterministic section out of a
/// `certchain-metrics/v1` document.
fn deterministic_section(metrics_body: &str) -> String {
    let doc = certchain_obs::json::parse(metrics_body).expect("metrics parses as JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("certchain-metrics/v1"),
        "schema tag"
    );
    assert!(doc.get("timing").is_some(), "timing section present");
    doc.get("deterministic")
        .expect("deterministic section")
        .to_pretty()
}

#[test]
fn http_endpoints_expose_report_and_thread_invariant_metrics() {
    let mut sections = Vec::new();
    for threads in [1usize, 2] {
        let spool = fresh(&format!("spool-http-{threads}"));
        let checkpoint = fresh(&format!("ckpt-http-{threads}"));
        serve::spool_split(dataset_dir(), &spool, 2).expect("spool-split");
        let addr_file = fresh(&format!("addr-{threads}")).with_extension("txt");
        let opts = serve::ServeOptions {
            threads,
            listen: Some("127.0.0.1:0".to_string()),
            drain_once: false,
            interval_ms: 100,
            listen_addr_file: Some(addr_file.clone()),
            // Large enough that idle-cycle spans between our polls never
            // evict the first (folding) cycle we assert on below.
            trace_capacity: 8192,
            ..serve::ServeOptions::default()
        };
        let addr = spawn_daemon(&spool, &checkpoint, opts);
        // Wait until the first publish covered the whole spool.
        let mut tries = 0;
        loop {
            let (status, body) = http_get(&addr, "/status");
            assert_eq!(status, "HTTP/1.1 200 OK");
            let doc = certchain_obs::json::parse(&body).expect("status JSON");
            assert_eq!(
                doc.get("schema").and_then(|v| v.as_str()),
                Some("certchain-serve/v1")
            );
            let folded = doc
                .get("folded_files")
                .and_then(|v| match v {
                    certchain_obs::json::JsonValue::Arr(a) => Some(a.len()),
                    _ => None,
                })
                .unwrap_or(0);
            if folded >= 4 {
                break;
            }
            tries += 1;
            assert!(tries < 600, "serve never folded the full spool");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let (status, report) = http_get(&addr, "/report");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(report, batch_tables(1), "served report vs batch tables");
        let (status, report_json) = http_get(&addr, "/report.json");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(
            report_json,
            batch_json(1),
            "served JSON summary vs analyze --json"
        );

        // Content negotiation: query param and Accept header both reach
        // the JSON body; an unknown format gets 406 plus a hint.
        let (status, by_query) = http_get(&addr, "/report?format=json");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(by_query, report_json, "?format=json vs /report.json");
        let (status, by_accept) =
            http_get_with(&addr, "/report", &[("Accept", "application/json")]);
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(by_accept, report_json, "Accept negotiation vs /report.json");
        let (status, hint) = http_get(&addr, "/report?format=yaml");
        assert_eq!(status, "HTTP/1.1 406 Not Acceptable");
        assert!(hint.contains("format=json"), "406 hint names the formats");

        let (status, metrics) = http_get(&addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        sections.push(deterministic_section(&metrics));

        // Prometheus exposition, by query param and by Accept header.
        let (status, prom) = http_get(&addr, "/metrics?format=prometheus");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_prometheus_shape(&prom);
        assert!(
            prom.contains("http_requests{"),
            "per-request accounting missing from Prometheus output"
        );
        let (status, prom2) = http_get_with(&addr, "/metrics", &[("Accept", "text/plain")]);
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_prometheus_shape(&prom2);
        let (status, _) = http_get(&addr, "/metrics?format=xml");
        assert_eq!(status, "HTTP/1.1 406 Not Acceptable");

        // The trace journal holds at least one complete fold cycle:
        // serve.cycle span with scan/fold/checkpoint/publish children.
        let (status, trace) = http_get(&addr, "/trace.json");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_complete_fold_cycle(&trace);

        // Cycles are completing: the watchdog reports healthy.
        let (status, health) = http_get(&addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        let doc = certchain_obs::json::parse(&health).expect("healthz JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("certchain-healthz/v1")
        );
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));

        let (status, _) = http_get(&addr, "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        let _ = std::fs::remove_file(&addr_file);
        // The serve thread keeps running; its spool/checkpoint dirs are
        // cleaned with the temp dir by the OS. Leave them.
    }
    assert_eq!(
        sections[0], sections[1],
        "deterministic metrics section must be thread-count invariant"
    );
}

/// Assert a `/trace.json` document contains one *complete* fold cycle:
/// a `serve.cycle` span that both started and ended, with `serve.scan`,
/// `serve.fold`, `checkpoint.commit`, `checkpoint.prune` and
/// `serve.publish` children, the publish with `serve.finalize` and
/// `serve.render` children. The pipeline's stage spans nest under the
/// span that runs them: a fold's `pipeline.enrich` or `pipeline.ingest`
/// under its `serve.fold`, every `pipeline.dispatch` under a
/// `pipeline.ingest`, and `pipeline.resolve`, `pipeline.categorize` and
/// `pipeline.finalize` under `serve.finalize`; no pipeline span is a
/// root.
fn assert_complete_fold_cycle(trace_body: &str) {
    use certchain_obs::json::JsonValue;
    let doc = certchain_obs::json::parse(trace_body).expect("trace parses as JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("certchain-trace/v1"),
        "trace schema tag"
    );
    let events = doc
        .get("events")
        .and_then(JsonValue::as_arr)
        .expect("events array");
    let field = |ev: &JsonValue, key: &str| ev.get(key).and_then(JsonValue::as_u64);
    let name_of = |ev: &JsonValue| ev.get("name").and_then(JsonValue::as_str).map(String::from);
    let kind_of = |ev: &JsonValue| ev.get("kind").and_then(JsonValue::as_str).map(String::from);

    // A folding cycle's span_end carries files_folded > 0.
    let cycle_id = events
        .iter()
        .find(|ev| {
            kind_of(ev).as_deref() == Some("span_end")
                && name_of(ev).as_deref() == Some("serve.cycle")
                && ev
                    .get("attrs")
                    .and_then(|a| a.get("files_folded"))
                    .and_then(JsonValue::as_str)
                    .and_then(|v| v.parse::<u64>().ok())
                    .is_some_and(|n| n > 0)
        })
        .and_then(|ev| field(ev, "span"))
        .expect("a completed serve.cycle that folded files");
    assert!(
        events
            .iter()
            .any(|ev| kind_of(ev).as_deref() == Some("span_start")
                && field(ev, "span") == Some(cycle_id)),
        "cycle {cycle_id} has no span_start — journal truncated the tree"
    );
    let child_of = |parent: u64, child: &str| {
        events
            .iter()
            .find(|ev| name_of(ev).as_deref() == Some(child) && field(ev, "parent") == Some(parent))
            .and_then(|ev| field(ev, "span"))
    };
    for child in [
        "serve.scan",
        "serve.fold",
        "checkpoint.commit",
        "checkpoint.prune",
        "serve.publish",
    ] {
        assert!(
            child_of(cycle_id, child).is_some(),
            "cycle {cycle_id} lacks a {child} child span"
        );
    }
    let publish = child_of(cycle_id, "serve.publish").unwrap_or_default();
    for pass in ["serve.finalize", "serve.render"] {
        assert!(
            child_of(publish, pass).is_some(),
            "publish {publish} lacks a {pass} child span"
        );
    }
    let finalize = child_of(publish, "serve.finalize").unwrap_or_default();
    for stage in [
        "pipeline.resolve",
        "pipeline.categorize",
        "pipeline.finalize",
    ] {
        assert!(
            child_of(finalize, stage).is_some(),
            "finalize {finalize} lacks a {stage} child span"
        );
    }
    let folds: Vec<u64> = events
        .iter()
        .filter(|ev| {
            name_of(ev).as_deref() == Some("serve.fold") && field(ev, "parent") == Some(cycle_id)
        })
        .filter_map(|ev| field(ev, "span"))
        .collect();
    for stage in ["pipeline.enrich", "pipeline.ingest"] {
        assert!(
            folds.iter().any(|&fold| child_of(fold, stage).is_some()),
            "no serve.fold of cycle {cycle_id} has a {stage} child span"
        );
    }
    let span_named = |id: u64| {
        events
            .iter()
            .find(|ev| field(ev, "span") == Some(id))
            .and_then(name_of)
    };
    for ev in events {
        let Some(name) = name_of(ev).filter(|n| n.starts_with("pipeline.")) else {
            continue;
        };
        let parent = field(ev, "parent").unwrap_or_default();
        assert_ne!(parent, 0, "{name} is a root span");
        if name == "pipeline.dispatch" {
            assert_eq!(
                span_named(parent).as_deref(),
                Some("pipeline.ingest"),
                "a pipeline.dispatch outside pipeline.ingest"
            );
        }
    }
}

/// The stall watchdog end to end: `/healthz` answers 200 while cycles
/// complete, flips to 503 when a fold blocks (a spool FIFO with no
/// writer), and recovers to 200 once the fold finishes.
#[cfg(unix)]
#[test]
fn healthz_flips_to_503_on_stall_and_recovers() {
    let spool = fresh("spool-stall");
    let checkpoint = fresh("ckpt-stall");
    serve::spool_split(dataset_dir(), &spool, 2).expect("spool-split");
    // Grab a real rotated-log preamble so the FIFO's eventual content
    // parses cleanly (header only, zero records).
    let header: String = std::fs::read_to_string(spool.join("ssl.2024-09-01-00.log"))
        .expect("read split part")
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();

    let addr_file = fresh("addr-stall").with_extension("txt");
    let opts = serve::ServeOptions {
        threads: 1,
        listen: Some("127.0.0.1:0".to_string()),
        drain_once: false,
        interval_ms: 50,
        listen_addr_file: Some(addr_file.clone()),
        watchdog_cycles: 3, // stall window: 150 ms
        ..serve::ServeOptions::default()
    };
    let addr = spawn_daemon(&spool, &checkpoint, opts);

    let poll_status = |want: &str, why: &str| {
        let mut tries = 0;
        loop {
            let (status, _) = http_get(&addr, "/healthz");
            if status == want {
                break;
            }
            tries += 1;
            assert!(
                tries < 400,
                "{why}: /healthz stuck at {status}, want {want}"
            );
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    };
    poll_status("HTTP/1.1 200 OK", "initial cycles");

    // A recognizable spool entry that is a FIFO with no writer: the
    // fold's open() blocks, no cycle completes, the watchdog fires.
    let fifo = spool.join("ssl.2024-09-01-09.log");
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if !made {
        eprintln!("skipping stall test: mkfifo unavailable");
        return;
    }
    poll_status("HTTP/1.1 503 Service Unavailable", "stalled fold");

    // Feed the FIFO its header and close: the blocked open() returns,
    // the fold sees zero records, the cycle completes, health recovers.
    std::io::Write::write_all(
        &mut std::fs::OpenOptions::new()
            .write(true)
            .open(&fifo)
            .expect("open fifo for writing"),
        header.as_bytes(),
    )
    .expect("write fifo");
    poll_status("HTTP/1.1 200 OK", "recovery after stall");

    let _ = std::fs::remove_file(&addr_file);
    for dir in [&spool, &checkpoint] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn compact_recovers_from_interrupted_leftovers() {
    // A private dataset copy: this test rewrites the store.
    let dir = fresh("compact-ds");
    let profile = CampusProfile {
        seed: 78,
        chain_scale: 0.0005,
        conn_scale: 0.00005,
        public_chains: 60,
        public_conns_per_chain: 2,
    };
    generate::generate(&dir, profile).expect("generate");
    convert::convert(&dir).expect("convert");
    let store = dataset::colstore_dir(&dir);
    let tmp = store.with_file_name("colstore.tmp-compact");
    let old = store.with_file_name("colstore.pre-compact");

    // `compact` and `convert --force` share one store rewrite, so each
    // recovers the leftovers of the other (or of itself) the same way.
    let force = convert::ConvertOptions {
        force: true,
        ..convert::ConvertOptions::default()
    };
    let rewrites: [(&str, &dyn Fn() -> String, &str); 2] = [
        (
            "compact",
            &|| compact::compact(&dir).expect("compact"),
            "compacted",
        ),
        (
            "convert --force",
            &|| convert::convert_opts(&dir, &force).expect("convert --force"),
            "wrote v2 store",
        ),
    ];
    for (name, rewrite, summary) in rewrites {
        // Leftover temp dir from a rewrite killed mid-write: cleaned up
        // with a notice, then the rewrite proceeds.
        std::fs::create_dir_all(&tmp).unwrap();
        std::fs::write(tmp.join("partial.bin"), b"junk").unwrap();
        let out = rewrite();
        assert!(
            out.contains("notice: removed leftover"),
            "{name}: missing notice: {out}"
        );
        assert!(out.contains(summary), "{name}: summary missing: {out}");
        assert!(!tmp.exists(), "{name}");

        // Crash inside the swap window: the store was moved aside but the
        // new one never installed. The rewrite restores it and carries on.
        std::fs::rename(&store, &old).unwrap();
        let out = rewrite();
        assert!(
            out.contains("notice: restored"),
            "{name}: missing notice: {out}"
        );
        assert!(store.exists() && !old.exists(), "{name}");

        // Swap completed but the superseded store lingered: dropped.
        std::fs::create_dir_all(&old).unwrap();
        std::fs::write(old.join("stale.bin"), b"junk").unwrap();
        let out = rewrite();
        assert!(
            out.contains("notice: removed superseded"),
            "{name}: missing notice: {out}"
        );
        assert!(!old.exists(), "{name}");
    }

    // The recovered store still analyzes identically to the TSV logs.
    let columnar = analyze::analyze_opts(
        &dir,
        &analyze::AnalyzeOptions {
            threads: 2,
            format: Some(dataset::DatasetFormat::Columnar),
            ..analyze::AnalyzeOptions::default()
        },
    )
    .expect("columnar analyze");
    assert!(columnar.contains("Chain census"));
    let _ = std::fs::remove_dir_all(&dir);
}
