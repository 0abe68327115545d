//! The incremental publisher against the batch finalize: fold a
//! generated trace one rotated file at a time, cut as the benchmark's
//! soak cuts its logs, and after every file publish it both ways. The
//! publisher's roll-up, JSON summary and `pipeline.*` metrics must equal
//! those of `finalize_state` plus the batch roll-up, at every thread
//! count, also across a restart from a checkpoint. The test also checks
//! that the cases the publisher handles apart arose: a chain that
//! resolved only after a later x509 file, a chain that a later
//! confirmation moved into the interception category, and the restart.

use certchain_chainlab::{
    AnalysisSummary, ChainCategoryLabel, ChainKey, CrossSignRegistry, Pipeline, PipelineOptions,
    PipelineState, Publisher, ReportRollup,
};
use certchain_netsim::{SslRecord, X509Record};
use certchain_obs::Registry;
use certchain_workload::{CampusProfile, CampusTrace};
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Rotation pairs the logs are cut into.
const PAIRS: usize = 8;

/// The pairs after which the session restarts from its checkpoint.
const RESTART_AFTER: usize = 5;

/// The quick profile with five times its public chains: their first
/// connections log certificates faster than the rest log connections, so
/// the first ssl part needs x509 rows of the second.
fn trace() -> &'static CampusTrace {
    static CELL: OnceLock<CampusTrace> = OnceLock::new();
    CELL.get_or_init(|| {
        CampusTrace::generate(CampusProfile {
            public_chains: 1_000,
            ..CampusProfile::quick()
        })
    })
}

/// `rows` cut into `PAIRS` contiguous parts of equal length, as the
/// benchmark cuts `x509.log` and `ssl.log` apart: so a part of ssl rows
/// can arrive before the x509 rows its chains need.
fn parts<T>(rows: &[T]) -> Vec<&[T]> {
    rows.chunks(rows.len().div_ceil(PAIRS).max(1)).collect()
}

/// One rotated file.
enum File<'t> {
    X509(&'t [X509Record]),
    Ssl(&'t [SslRecord]),
}

/// What both ways of publishing gave.
#[derive(Debug, PartialEq)]
struct Published {
    rollup: ReportRollup,
    summary: String,
    metrics: String,
}

fn pipeline(threads: usize, registry: &Arc<Registry>) -> Pipeline<'static> {
    let trace = trace();
    Pipeline::with_options(
        &trace.eco.trust,
        &trace.ct_index,
        CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
        PipelineOptions {
            threads,
            ..PipelineOptions::default()
        },
    )
    .with_metrics(Arc::clone(registry))
}

fn deterministic(registry: &Registry) -> String {
    registry
        .snapshot()
        .to_json()
        .get("deterministic")
        .expect("a deterministic section")
        .to_pretty()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("certchain-publish-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn incremental_publishes_equal_the_batch_finalize_at_every_thread_count() {
    let trace = trace();
    let ssl_parts = parts(&trace.ssl_records);
    // The generator emits interception traffic last, so every entity is
    // confirmed by the last ssl part. An early file repeats that part's
    // rows without an SNI: their chains resolve with the last x509 part
    // and count where they stand until the last ssl part confirms their
    // issuers.
    let preview: Vec<SslRecord> = ssl_parts
        .last()
        .into_iter()
        .flat_map(|part| part.iter())
        .filter(|r| r.server_name.is_none() && !r.cert_chain_fps.is_empty())
        .cloned()
        .collect();
    let mut files = Vec::new();
    for (pair, (x509, ssl)) in parts(&trace.x509_records)
        .into_iter()
        .zip(ssl_parts)
        .enumerate()
    {
        files.push(File::X509(x509));
        files.push(File::Ssl(ssl));
        if pair == 1 {
            files.push(File::Ssl(&preview));
        }
    }
    let restart_at = 2 * RESTART_AFTER;
    for threads in [1usize, 2, 8] {
        let root = scratch(&format!("t{threads}"));
        let fold_pipe = pipeline(threads, &Arc::new(Registry::new()));
        let mut state = PipelineState::new();
        let mut publisher = Publisher::new();
        let mut incremental_publishes = 0;
        let mut folded_chains: BTreeSet<ChainKey> = BTreeSet::new();
        let mut unresolved_before: BTreeSet<ChainKey> = BTreeSet::new();
        let mut categories_before: BTreeMap<ChainKey, ChainCategoryLabel> = BTreeMap::new();
        let (mut resolved_late, mut moved_by_confirmation, mut restarted) = (0, 0, false);
        for (at, file) in files.iter().enumerate() {
            match file {
                File::X509(rows) => fold_pipe
                    .fold_x509_stream(&mut state, rows.iter().map(Ok::<_, Infallible>))
                    .unwrap_or_else(|never| match never {}),
                File::Ssl(rows) => {
                    folded_chains.extend(
                        rows.iter()
                            .filter(|r| !r.cert_chain_fps.is_empty())
                            .map(|r| ChainKey(r.cert_chain_fps.clone())),
                    );
                    fold_pipe
                        .fold_ssl_stream(&mut state, rows.iter().cloned().map(Ok::<_, Infallible>))
                        .unwrap_or_else(|never| match never {})
                }
            }
            if at == restart_at {
                state.save_checkpoint(&root).expect("checkpoint");
                state = PipelineState::load_latest(&root)
                    .expect("reload")
                    .expect("a generation");
                publisher = Publisher::new();
                restarted = true;
            }
            let primed = at > 0 && at != restart_at;

            let registry = Arc::new(Registry::new());
            let analysis = pipeline(threads, &registry).finalize_state(&state);
            let batch = Published {
                rollup: ReportRollup::from_analysis(&analysis, true),
                summary: AnalysisSummary::from_analysis(&analysis).to_json(),
                metrics: deterministic(&registry),
            };
            let registry = Arc::new(Registry::new());
            let rollup = publisher
                .publish(&pipeline(threads, &registry), &mut state)
                .clone();
            let incremental = Published {
                summary: AnalysisSummary::from_rollup(&rollup).to_json(),
                rollup,
                metrics: deterministic(&registry),
            };
            assert_eq!(
                incremental, batch,
                "threads={threads}: publish after file {at} differs from the batch finalize"
            );
            incremental_publishes += primed as usize;

            let categories: BTreeMap<ChainKey, ChainCategoryLabel> = analysis
                .chains
                .iter()
                .map(|c| (c.key.clone(), c.category))
                .collect();
            resolved_late += unresolved_before
                .iter()
                .filter(|&key| categories.contains_key(key))
                .count();
            if primed {
                moved_by_confirmation += categories_before
                    .iter()
                    .filter(|&(key, &was)| {
                        was != ChainCategoryLabel::Interception
                            && categories.get(key) == Some(&ChainCategoryLabel::Interception)
                    })
                    .count();
            }
            unresolved_before = folded_chains
                .iter()
                .filter(|&key| !categories.contains_key(key))
                .cloned()
                .collect();
            categories_before = categories;
        }
        assert!(restarted);
        assert!(incremental_publishes + 2 >= files.len());
        assert!(
            resolved_late > 0,
            "threads={threads}: no chain resolved only after a later x509 file"
        );
        assert!(
            moved_by_confirmation > 0,
            "threads={threads}: no later confirmation moved a chain into interception"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
