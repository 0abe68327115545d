//! Stage 5 — finalize: pass 2 over the sorted chains and [`Analysis`]
//! assembly.
//!
//! Everything here operates on the `ChainKey`-sorted `Prepared` vector,
//! which is the single total order the determinism guarantee hangs on:
//! contiguous runs concatenate back in order, so the output sequence
//! equals the sequential one for every thread count.

use super::categorize::{self, Prepared};
use super::{concat, par_map, Analysis, ChainAnalysis, Pipeline};
use crate::crosssign::CrossSignRegistry;
use certchain_x509::Fingerprint;
use std::collections::BTreeSet;

/// Pass 2: per-chain categorization and structure analysis, in parallel
/// over contiguous runs of the sorted `prepared` vector.
pub(crate) fn analyze_chains(
    pipe: &Pipeline<'_>,
    prepared: Vec<Prepared>,
    entities: &BTreeSet<String>,
    registry: &CrossSignRegistry,
    threads: usize,
) -> (Vec<ChainAnalysis>, BTreeSet<Fingerprint>) {
    let parts = par_map(prepared, threads, |part| {
        let mut chains = Vec::with_capacity(part.len());
        let mut distinct: BTreeSet<Fingerprint> = BTreeSet::new();
        for p in part {
            distinct.extend(p.key.0.iter().copied());
            chains.push(categorize::analyze_one(pipe, p, entities, registry));
        }
        (chains, distinct)
    });
    let (runs, distinct): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    let distinct = distinct.into_iter().reduce(|mut all, run| {
        all.extend(run);
        all
    });
    (concat(runs), distinct.unwrap_or_default())
}

/// Assemble the final [`Analysis`] value.
pub(crate) fn assemble(
    chains: Vec<ChainAnalysis>,
    distinct: BTreeSet<Fingerprint>,
    no_chain_records: u64,
    unresolvable_records: u64,
    interception_entities: BTreeSet<String>,
) -> Analysis {
    Analysis {
        chains,
        no_chain_records,
        unresolvable_records,
        distinct_certificates: distinct.len(),
        interception_entities,
    }
}
