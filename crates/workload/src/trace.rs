//! Trace assembly: populations + volume model → Zeek-shaped logs.

use crate::calibration::{CalibrationTargets, CampusProfile};
use crate::interception::{self, InterceptionCounts};
use crate::pki::Ecosystem;
use crate::servers::{hybrid, nonpub, public, GeneratedServer, TrafficGroup};
use crate::traffic::{group_spec, GroupSpec};
use certchain_asn1::Asn1Time;
use certchain_ctlog::DomainIndex;
use certchain_netsim::handshake::record_connection;
use certchain_netsim::{Client, SimClock, SslRecord, TlsVersion, X509Record};
use certchain_obs::Registry;

use certchain_x509::{DistinguishedName, Fingerprint};
use std::collections::{BTreeMap, HashMap, HashSet};

pub use crate::servers::{ChainCategory, ContainsKind, HybridKind, NoPathKind, NonPubKind};

/// Reporting sidecar for one connection record: which server produced it
/// and how many paper-scale connections it represents. The analysis
/// pipeline itself never reads this — it exists so experiment reports can
/// rescale to paper numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnMeta {
    /// Index into [`CampusTrace::servers`].
    pub server_idx: usize,
    /// Statistical weight of this record.
    pub weight: f64,
}

/// Ground truth: generator-side labels for scoring the analysis pipeline.
#[derive(Debug, Default)]
pub struct GroundTruth {
    /// Delivered-chain fingerprints → server index.
    pub by_chain: HashMap<Vec<Fingerprint>, usize>,
}

/// The complete synthetic campus trace.
#[derive(Debug)]
pub struct CampusTrace {
    /// Profile used.
    pub profile: CampusProfile,
    /// Paper targets (for reporting).
    pub targets: CalibrationTargets,
    /// ssl.log records.
    pub ssl_records: Vec<SslRecord>,
    /// Per-record sidecar, aligned with `ssl_records`.
    pub conn_meta: Vec<ConnMeta>,
    /// x509.log records, one per distinct certificate.
    pub x509_records: Vec<X509Record>,
    /// The generated server population with ground-truth labels.
    pub servers: Vec<GeneratedServer>,
    /// The full PKI ecosystem (trust databases, CT log, CA keys — the
    /// latter are what the §5 evolution operators re-issue with).
    pub eco: Ecosystem,
    /// crt.sh-style domain index over the CT log.
    pub ct_index: DomainIndex,
    /// Publicly disclosed cross-signing relationships.
    pub cross_sign_disclosures: Vec<(DistinguishedName, DistinguishedName)>,
    /// Ground-truth labels.
    pub truth: GroundTruth,
}

/// Receives a generated trace record-by-record, in the deterministic
/// emission order. Sinks let `certchain generate` write Zeek logs straight
/// to disk without materializing the trace: only one emission window is in
/// memory at a time, regardless of connection volume.
pub trait TraceSink {
    /// Error surfaced by the sink (e.g. `std::io::Error` for file sinks).
    type Error;
    /// One ssl.log record with its reporting sidecar.
    fn ssl(&mut self, record: SslRecord, meta: ConnMeta) -> Result<(), Self::Error>;
    /// One x509.log record — the global first sighting of a certificate.
    fn x509(&mut self, record: X509Record) -> Result<(), Self::Error>;
}

/// Everything a generated trace carries besides the record streams:
/// populations, PKI state, CT index, and ground truth. This is what
/// [`CampusTrace::stream_with`] returns after the records have been
/// delivered to the sink.
#[derive(Debug)]
pub struct TraceContext {
    /// Profile used.
    pub profile: CampusProfile,
    /// Paper targets (for reporting).
    pub targets: CalibrationTargets,
    /// The generated server population with ground-truth labels.
    pub servers: Vec<GeneratedServer>,
    /// The full PKI ecosystem.
    pub eco: Ecosystem,
    /// crt.sh-style domain index over the CT log.
    pub ct_index: DomainIndex,
    /// Publicly disclosed cross-signing relationships.
    pub cross_sign_disclosures: Vec<(DistinguishedName, DistinguishedName)>,
    /// Ground-truth labels.
    pub truth: GroundTruth,
}

/// The in-memory sink behind [`CampusTrace::generate_with`].
#[derive(Default)]
struct VecSink {
    ssl: Vec<SslRecord>,
    meta: Vec<ConnMeta>,
    x509: Vec<X509Record>,
}

impl TraceSink for VecSink {
    type Error = std::convert::Infallible;

    fn ssl(&mut self, record: SslRecord, meta: ConnMeta) -> Result<(), Self::Error> {
        self.ssl.push(record);
        self.meta.push(meta);
        Ok(())
    }

    fn x509(&mut self, record: X509Record) -> Result<(), Self::Error> {
        self.x509.push(record);
        Ok(())
    }
}

impl CampusTrace {
    /// Generate the full trace for `profile` using all available cores.
    ///
    /// Shorthand for [`CampusTrace::generate_with`] with `threads = 0`; the
    /// produced trace is identical for every thread count.
    pub fn generate(profile: CampusProfile) -> CampusTrace {
        CampusTrace::generate_with(profile, 0)
    }

    /// Generate the full trace for `profile` on `threads` worker threads
    /// (`0` = available parallelism, `1` = fully sequential).
    ///
    /// This is [`CampusTrace::stream_with`] into an in-memory sink; the
    /// record vectors hold exactly the stream a file sink would have
    /// written.
    pub fn generate_with(profile: CampusProfile, threads: usize) -> CampusTrace {
        let mut sink = VecSink::default();
        let ctx =
            CampusTrace::stream_with(profile, threads, &mut sink).unwrap_or_else(|e| match e {});
        CampusTrace {
            profile: ctx.profile,
            targets: ctx.targets,
            ssl_records: sink.ssl,
            conn_meta: sink.meta,
            x509_records: sink.x509,
            servers: ctx.servers,
            eco: ctx.eco,
            ct_index: ctx.ct_index,
            cross_sign_disclosures: ctx.cross_sign_disclosures,
            truth: ctx.truth,
        }
    }

    /// Generate the trace for `profile` on `threads` worker threads,
    /// delivering every record to `sink` instead of materializing it.
    ///
    /// Population building mutates the PKI ecosystem and stays sequential.
    /// Connection emission, however, is a pure function of the connection's
    /// global `uid` and its index within its traffic group, so it is
    /// decomposed into work items with precomputed index offsets (prefix
    /// sums over the sequential emission order), split into fixed-size
    /// batches, and emitted a window of `threads` batches at a time.
    /// Batches drain to the sink in batch (= sequential stream) order and
    /// certificates dedup against a global first-sighting set, so the
    /// delivered stream is identical to the sequential one for any thread
    /// count — and identical to the vectors [`CampusTrace::generate_with`]
    /// returns.
    ///
    /// The first sink error aborts generation and is returned as-is.
    pub fn stream_with<S: TraceSink>(
        profile: CampusProfile,
        threads: usize,
        sink: &mut S,
    ) -> Result<TraceContext, S::Error> {
        CampusTrace::stream_observed(profile, threads, sink, None)
    }

    /// [`CampusTrace::stream_with`] plus generation accounting: when a
    /// metrics registry is given, the emitted volumes are recorded into
    /// it — `generate.connections` (ssl records delivered to the sink),
    /// `generate.certificates` (deduplicated x509 records), and the
    /// `generate.servers` / `generate.distinct_chains` population gauges.
    /// All four are derived from the deterministic delivered stream, so
    /// they are identical for every thread count. The registry also
    /// times two stages: `population` (the sequential population build
    /// and volume model) and `emit` (connection emission together with
    /// the sink's writes).
    pub fn stream_observed<S: TraceSink>(
        profile: CampusProfile,
        threads: usize,
        sink: &mut S,
        metrics: Option<&Registry>,
    ) -> Result<TraceContext, S::Error> {
        let population_stage = metrics.map(|r| r.stage("population"));
        let threads = resolve_threads(threads);
        let targets = CalibrationTargets::paper();
        let mut eco = Ecosystem::bootstrap(profile.seed);

        // Build the populations. Public first: the CT index must know the
        // "real" issuers of the domains interception middleboxes forge.
        let public_weight = (targets.total_chains as f64
            * (1.0
                - targets.share_nonpub_only
                - targets.share_hybrid
                - targets.share_interception))
            / profile.public_chains.max(1) as f64;
        let mut servers = public::build(&mut eco, 0, profile.public_chains, public_weight);
        servers.extend(hybrid::build(&mut eco, 100_000));
        let np_counts = nonpub::NonPubCounts::from_profile(&targets, &profile);
        servers.extend(nonpub::build(&mut eco, 200_000, np_counts, &profile));
        let ic_counts = InterceptionCounts::from_profile(&targets, &profile);
        servers.extend(interception::build(
            &mut eco,
            400_000,
            ic_counts,
            &profile,
            profile.public_chains,
        ));

        // Volume model: group servers, then emit connections.
        let mut by_group: BTreeMap<TrafficGroup, Vec<usize>> = BTreeMap::new();
        for (idx, s) in servers.iter().enumerate() {
            by_group.entry(s.group).or_default().push(idx);
        }

        // Flatten the volume model into per-server work items carrying
        // their `uid` / in-group index offsets. Each server appears in
        // exactly one item, so a per-shard validation-outcome cache hits
        // exactly as often as the sequential one.
        let mut specs: Vec<GroupSpec> = Vec::new();
        let mut items: Vec<WorkItem> = Vec::new();
        let mut uid: u64 = 0;
        for (group, members) in &by_group {
            let spec = group_spec(*group, &targets, &profile);
            let n = members.len() as u64;
            if n == 0 || spec.connections == 0 {
                continue;
            }
            // Every generated chain must be *observed* at least once, even
            // in groups whose scaled connection volume rounds below the
            // server count (e.g. the 0.02%-of-connections interception
            // categories of Table 1). Floor the record count at one per
            // server and rescale the per-record weight so the weighted
            // connection total is preserved.
            let records = spec.connections.max(n);
            let conn_weight = spec.conn_weight * spec.connections as f64 / records as f64;
            let per_server = records / n;
            let remainder = (records % n) as usize;
            let spec_idx = specs.len();
            specs.push(spec);
            let mut k_in_group: u64 = 0;
            for (slot, &server_idx) in members.iter().enumerate() {
                let conns = per_server + u64::from(slot < remainder);
                items.push(WorkItem {
                    server_idx,
                    group: *group,
                    spec_idx,
                    conns,
                    uid_start: uid,
                    k_start: k_in_group,
                    records,
                    conn_weight,
                });
                uid += conns;
                k_in_group += conns;
            }
        }

        let clock = SimClock::campus_window_start();
        let base_secs = clock.now().unix_secs();
        let window_secs = SimClock::campus_window_end().unix_secs() - base_secs;

        // Emit in fixed-size batches, a window of `threads` at a time.
        // Batches drain in batch (= sequential stream) order; x509.log
        // keeps the first sighting of each certificate: within a batch
        // local-first is stream-first, and batches drain in stream order,
        // so keeping the globally-first record reproduces the sequential
        // dedup exactly. Peak memory is one window of batch outputs,
        // independent of total connection volume.
        let batches = batch_items(items);
        drop(population_stage);
        let emit_stage = metrics.map(|r| r.stage("emit"));
        let mut seen_certs: HashSet<Fingerprint> = HashSet::new();
        let conn_counter = metrics.map(|r| r.counter("generate.connections"));
        let cert_counter = metrics.map(|r| r.counter("generate.certificates"));
        let drain = |sink: &mut S,
                     out: ShardOutput,
                     seen_certs: &mut HashSet<Fingerprint>|
         -> Result<(), S::Error> {
            for rec in out.x509 {
                if seen_certs.insert(rec.fingerprint) {
                    if let Some(c) = &cert_counter {
                        c.inc();
                    }
                    sink.x509(rec)?;
                }
            }
            if let Some(c) = &conn_counter {
                c.add(out.ssl.len() as u64);
            }
            for (rec, meta) in out.ssl.into_iter().zip(out.meta) {
                sink.ssl(rec, meta)?;
            }
            Ok(())
        };
        if threads <= 1 {
            for batch in &batches {
                let out = emit_shard(batch, &servers, &specs, &eco, base_secs, window_secs);
                drain(sink, out, &mut seen_certs)?;
            }
        } else {
            for window in batches.chunks(threads) {
                let outs: Vec<ShardOutput> = std::thread::scope(|scope| {
                    let handles: Vec<_> = window
                        .iter()
                        .map(|batch| {
                            let (servers, specs, eco) = (&servers, &specs, &eco);
                            scope.spawn(move || {
                                emit_shard(batch, servers, specs, eco, base_secs, window_secs)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("trace emitter thread panicked"))
                        .collect()
                });
                for out in outs {
                    drain(sink, out, &mut seen_certs)?;
                }
            }
        }
        drop(emit_stage);

        let mut truth = GroundTruth::default();
        for (idx, s) in servers.iter().enumerate() {
            let fps: Vec<Fingerprint> = s.endpoint.chain.iter().map(|c| c.fingerprint()).collect();
            truth.by_chain.insert(fps, idx);
        }
        if let Some(r) = metrics {
            r.gauge("generate.servers").set(servers.len() as u64);
            r.gauge("generate.distinct_chains")
                .set(truth.by_chain.len() as u64);
        }

        let ct_index = DomainIndex::build(&[&eco.ct]);
        let cross_sign_disclosures = eco.cross_sign_disclosures.clone();
        Ok(TraceContext {
            profile,
            targets,
            servers,
            eco,
            ct_index,
            cross_sign_disclosures,
            truth,
        })
    }
}

/// One server's slice of the emission stream: everything the sequential
/// loop would have known when it reached this server, captured as plain
/// offsets so any thread can emit the slice independently.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    server_idx: usize,
    group: TrafficGroup,
    spec_idx: usize,
    /// Connection records to emit for this server.
    conns: u64,
    /// Global `uid` counter value just before this item's first record.
    uid_start: u64,
    /// In-group connection index of this item's first record.
    k_start: u64,
    /// Total records in the group (the policy-mix denominator).
    records: u64,
    conn_weight: f64,
}

/// What one shard of work items produces. `x509` holds the shard-local
/// first sighting of each certificate, in stream order.
struct ShardOutput {
    ssl: Vec<SslRecord>,
    meta: Vec<ConnMeta>,
    x509: Vec<X509Record>,
}

/// Connection records per emission batch. The batch is both the parallel
/// grain and the streaming memory bound: at most one window of batch
/// outputs is ever materialized.
const BATCH_CONNS: u64 = 16_384;

/// Split the work items into contiguous batches of ~[`BATCH_CONNS`]
/// records. Emission is a pure function of an item's offsets, so an item
/// larger than a batch is split — the tail keeps emitting the same
/// records from its advanced `uid_start`/`k_start`. Batch boundaries
/// never affect the drained output, only the grain.
fn batch_items(items: Vec<WorkItem>) -> Vec<Vec<WorkItem>> {
    let mut batches = Vec::new();
    let mut cur: Vec<WorkItem> = Vec::new();
    let mut cur_conns = 0u64;
    for mut item in items {
        loop {
            let room = BATCH_CONNS - cur_conns;
            if item.conns <= room {
                cur_conns += item.conns;
                cur.push(item);
                if cur_conns == BATCH_CONNS {
                    batches.push(std::mem::take(&mut cur));
                    cur_conns = 0;
                }
                break;
            }
            let mut head = item;
            head.conns = room;
            cur.push(head);
            batches.push(std::mem::take(&mut cur));
            cur_conns = 0;
            item.uid_start += room;
            item.k_start += room;
            item.conns -= room;
        }
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    batches
}

/// Emit every connection record for one shard of work items. Pure function
/// of the item offsets: the sequential loop and any sharding of it produce
/// the same records in the same relative order.
fn emit_shard(
    items: &[WorkItem],
    servers: &[GeneratedServer],
    specs: &[GroupSpec],
    eco: &Ecosystem,
    base_secs: u64,
    window_secs: u64,
) -> ShardOutput {
    let mut out = ShardOutput {
        ssl: Vec::new(),
        meta: Vec::new(),
        x509: Vec::new(),
    };
    let mut seen_certs: HashSet<Fingerprint> = HashSet::new();
    // Validation outcome cache: (server, policy id) → established.
    // Validation outcomes are designed to be time-invariant within the
    // window; validate once per (server, policy) and reuse the verdict.
    let mut outcome_cache: HashMap<(usize, u8), bool> = HashMap::new();
    for item in items {
        let server = &servers[item.server_idx];
        let spec = &specs[item.spec_idx];
        for c in 0..item.conns {
            let uid = item.uid_start + c + 1;
            let policy = spec.mix.pick(item.k_start + c, item.records);
            let at = Asn1Time::from_unix(base_secs + uid.wrapping_mul(2_654_435_761) % window_secs);
            let client = Client::new(spec.pool.public_ip(uid.wrapping_mul(0x9e37_79b9)), policy);
            // The paper's analyzed logs only carry chain-bearing
            // connections (TLS ≤ 1.2). Roughly a quarter of TLS traffic is
            // 1.3 and invisible to the monitor (§6.3); modelled as TLS
            // 1.3-only *servers* in the public background, whose chains
            // passive monitoring never sees (the IP-space sweep of
            // `scanner::sweep` recovers them).
            let version = if item.group == TrafficGroup::PublicOnly && item.server_idx % 4 == 3 {
                TlsVersion::Tls13
            } else {
                TlsVersion::Tls12
            };
            let policy_id = policy_id(policy);
            let established = *outcome_cache
                .entry((item.server_idx, policy_id))
                .or_insert_with(|| {
                    certchain_netsim::validate_chain(
                        policy.validation,
                        &server.endpoint.chain,
                        &eco.trust,
                        at,
                        policy
                            .sends_sni
                            .then_some(server.endpoint.domain.as_deref())
                            .flatten(),
                    )
                    .is_ok()
                });
            let ssl = record_connection(uid, at, &client, &server.endpoint, established, version);
            if version == TlsVersion::Tls12 {
                for cert in &server.endpoint.chain {
                    if seen_certs.insert(cert.fingerprint()) {
                        out.x509.push(X509Record::from_certificate(at, cert));
                    }
                }
            }
            out.ssl.push(ssl);
            out.meta.push(ConnMeta {
                server_idx: item.server_idx,
                weight: item.conn_weight,
            });
        }
    }
    out
}

/// `0` → available parallelism (falling back to 1), anything else as-is.
fn resolve_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    // srclint: allow(det-thread-sensitivity) -- knob resolution only; generated traces are independent of the count
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn policy_id(policy: certchain_netsim::ClientPolicy) -> u8 {
    use certchain_netsim::ValidationPolicy::*;
    let v = match policy.validation {
        Browser => 0,
        StrictPresented => 1,
        Permissive => 2,
    };
    v | ((policy.sends_sni as u8) << 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_trace() -> &'static CampusTrace {
        static TRACE: std::sync::OnceLock<CampusTrace> = std::sync::OnceLock::new();
        TRACE.get_or_init(|| CampusTrace::generate(CampusProfile::quick()))
    }

    #[test]
    fn trace_generates_and_joins() {
        let trace = quick_trace();
        assert!(!trace.ssl_records.is_empty());
        assert_eq!(trace.ssl_records.len(), trace.conn_meta.len());
        // Every fingerprint referenced by an ssl record exists in x509.log.
        let known: HashSet<Fingerprint> =
            trace.x509_records.iter().map(|r| r.fingerprint).collect();
        for rec in trace.ssl_records.iter().take(2_000) {
            for fp in &rec.cert_chain_fps {
                assert!(known.contains(fp), "dangling fingerprint in ssl.log");
            }
        }
    }

    #[test]
    fn timestamps_are_inside_the_window() {
        let trace = quick_trace();
        let start = SimClock::campus_window_start().now();
        let end = SimClock::campus_window_end();
        for rec in &trace.ssl_records {
            assert!(
                rec.ts >= start && rec.ts <= end,
                "ts {} outside window",
                rec.ts
            );
        }
    }

    #[test]
    fn hybrid_connections_are_full_fidelity() {
        let trace = quick_trace();
        let hybrid_conns: f64 = trace
            .conn_meta
            .iter()
            .filter(|m| {
                matches!(
                    trace.servers[m.server_idx].category,
                    ChainCategory::Hybrid(_)
                )
            })
            .map(|m| m.weight)
            .sum();
        let target = trace.targets.hybrid_connections as f64;
        assert!(
            (hybrid_conns - target).abs() / target < 0.01,
            "hybrid weighted connections = {hybrid_conns}, target {target}"
        );
    }

    #[test]
    fn hybrid_establishment_rates_match_paper() {
        let trace = quick_trace();
        let mut complete = (0u64, 0u64);
        let mut contains = (0u64, 0u64);
        let mut no_path = (0u64, 0u64);
        for (rec, meta) in trace.ssl_records.iter().zip(&trace.conn_meta) {
            let server = &trace.servers[meta.server_idx];
            let bucket = match server.category {
                ChainCategory::Hybrid(
                    HybridKind::CompleteAnchored { .. } | HybridKind::CompletePubToPrv,
                ) => &mut complete,
                ChainCategory::Hybrid(HybridKind::ContainsPath(_)) => &mut contains,
                ChainCategory::Hybrid(HybridKind::NoPath(_)) => &mut no_path,
                _ => continue,
            };
            bucket.0 += rec.established as u64;
            bucket.1 += 1;
        }
        let rate = |b: &(u64, u64)| b.0 as f64 / b.1.max(1) as f64;
        assert!(
            (rate(&complete) - 0.9756).abs() < 0.01,
            "complete rate = {}",
            rate(&complete)
        );
        assert!(
            (rate(&contains) - 0.9204).abs() < 0.01,
            "contains rate = {}",
            rate(&contains)
        );
        assert!(
            (rate(&no_path) - 0.5742).abs() < 0.015,
            "no-path rate = {}",
            rate(&no_path)
        );
    }

    #[test]
    fn single_cert_sni_rate_matches_paper() {
        let trace = quick_trace();
        let mut no_sni = 0f64;
        let mut total = 0f64;
        for (rec, meta) in trace.ssl_records.iter().zip(&trace.conn_meta) {
            let server = &trace.servers[meta.server_idx];
            if matches!(
                server.category,
                ChainCategory::NonPublicOnly(
                    NonPubKind::SingleSelfSigned | NonPubKind::SingleDistinct | NonPubKind::Dga
                )
            ) {
                // Weighted: the full-fidelity DGA cluster is a large share
                // of *generated* records at small scales but a negligible
                // share of paper-scale connections.
                total += meta.weight;
                no_sni += meta.weight * (rec.server_name.is_none() as u64 as f64);
            }
        }
        let rate = no_sni / total.max(1.0);
        assert!((rate - 0.867).abs() < 0.04, "single no-SNI rate = {rate}");
    }

    #[test]
    fn ground_truth_covers_every_chain() {
        let trace = quick_trace();
        assert_eq!(trace.truth.by_chain.len(), trace.servers.len());
        for rec in trace.ssl_records.iter().take(500) {
            if !rec.cert_chain_fps.is_empty() {
                assert!(trace.truth.by_chain.contains_key(&rec.cert_chain_fps));
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = CampusTrace::generate(CampusProfile::quick());
        let b = CampusTrace::generate(CampusProfile::quick());
        assert_eq!(a.ssl_records.len(), b.ssl_records.len());
        assert_eq!(a.ssl_records[..100], b.ssl_records[..100]);
        assert_eq!(a.x509_records.len(), b.x509_records.len());
    }

    #[test]
    fn stream_matches_generate() {
        struct CountSink {
            ssl: u64,
            x509: u64,
            weight: f64,
        }
        impl TraceSink for CountSink {
            type Error = std::convert::Infallible;
            fn ssl(&mut self, _rec: SslRecord, meta: ConnMeta) -> Result<(), Self::Error> {
                self.ssl += 1;
                self.weight += meta.weight;
                Ok(())
            }
            fn x509(&mut self, _rec: X509Record) -> Result<(), Self::Error> {
                self.x509 += 1;
                Ok(())
            }
        }
        let trace = quick_trace();
        let mut sink = CountSink {
            ssl: 0,
            x509: 0,
            weight: 0.0,
        };
        let ctx = CampusTrace::stream_with(CampusProfile::quick(), 2, &mut sink)
            .unwrap_or_else(|e| match e {});
        assert_eq!(sink.ssl as usize, trace.ssl_records.len());
        assert_eq!(sink.x509 as usize, trace.x509_records.len());
        let total: f64 = trace.conn_meta.iter().map(|m| m.weight).sum();
        assert!((sink.weight - total).abs() < 1e-6);
        assert_eq!(ctx.servers.len(), trace.servers.len());
    }

    #[test]
    fn sink_errors_abort_generation() {
        struct FailingSink {
            remaining: u64,
        }
        impl TraceSink for FailingSink {
            type Error = &'static str;
            fn ssl(&mut self, _rec: SslRecord, _meta: ConnMeta) -> Result<(), Self::Error> {
                if self.remaining == 0 {
                    return Err("disk full");
                }
                self.remaining -= 1;
                Ok(())
            }
            fn x509(&mut self, _rec: X509Record) -> Result<(), Self::Error> {
                Ok(())
            }
        }
        let mut sink = FailingSink { remaining: 10 };
        let err = CampusTrace::stream_with(CampusProfile::quick(), 2, &mut sink).unwrap_err();
        assert_eq!(err, "disk full");
    }

    #[test]
    fn batches_split_large_items_without_changing_records() {
        // An item larger than BATCH_CONNS must split into offset-advanced
        // tails that cover exactly the same (uid, k) pairs.
        let item = WorkItem {
            server_idx: 0,
            group: TrafficGroup::PublicOnly,
            spec_idx: 0,
            conns: BATCH_CONNS * 2 + 17,
            uid_start: 5,
            k_start: 3,
            records: BATCH_CONNS * 3,
            conn_weight: 1.0,
        };
        let batches = batch_items(vec![item]);
        assert_eq!(batches.len(), 3);
        let mut uid = item.uid_start;
        let mut k = item.k_start;
        let mut conns = 0;
        for batch in &batches {
            for part in batch {
                assert_eq!(part.uid_start, uid);
                assert_eq!(part.k_start, k);
                assert_eq!(part.records, item.records);
                uid += part.conns;
                k += part.conns;
                conns += part.conns;
            }
        }
        assert_eq!(conns, item.conns);
    }

    #[test]
    fn thread_count_does_not_change_the_trace() {
        let seq = CampusTrace::generate_with(CampusProfile::quick(), 1);
        let par = CampusTrace::generate_with(CampusProfile::quick(), 4);
        assert_eq!(seq.ssl_records, par.ssl_records);
        assert_eq!(seq.conn_meta, par.conn_meta);
        assert_eq!(seq.x509_records, par.x509_records);
    }
}
