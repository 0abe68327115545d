//! Connection-usage aggregation: establishment rates, ports (Table 4),
//! SNI presence, client-IP counts.
//!
//! Two forms of a chain's usage: [`UsageStats`], what a state and an
//! analysis hold, with its ports and client addresses as sorted, distinct
//! vectors; and `UsageFold`, what a fold adds rows to, whose vectors take
//! each new element in amortized O(log n) (`SortedFold`). A fold's
//! partials become `UsageStats` when they leave the fold.

use std::cmp::Ordering;
use std::net::Ipv4Addr;
use std::ops::AddAssign;
use std::sync::Arc;

/// A connection weight in fixed point: a count of units of 2^-28.
///
/// The generator emits about 1/1000 of the paper's connection volume and
/// scales each record back up with a fractional statistical weight. A
/// weight is quantized once, to the nearest unit, where it enters a fold;
/// a Zeek or columnar row folds [`Weight::ONE`]. Every usage sum is then
/// an integer sum, exact in any order and over any split of the rows, and
/// becomes an `f64` ([`Weight::to_f64`]) only where a table, the JSON
/// summary or a checkpoint reads it. A `u64` of units holds weights below
/// 2^36 (about 6.9e10, 265 times the paper's 259.30 M connections).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Weight(pub u64);

impl Weight {
    /// Bits below the binary point: one unit is 2^-28.
    const FRACTION_BITS: u32 = 28;

    /// Weight 0.
    const ZERO: Weight = Weight(0);

    /// Weight 1.0: 2^28 units, what every log row folds.
    pub const ONE: Weight = Weight(1 << Weight::FRACTION_BITS);

    /// 2^36: the exclusive bound on a weight and on a sum, the first
    /// weight whose units do not fit a `u64`.
    const LIMIT: f64 = (1u64 << (u64::BITS - Weight::FRACTION_BITS)) as f64;

    /// Units per 1.0.
    const SCALE: f64 = (1u64 << Weight::FRACTION_BITS) as f64;

    /// Quantize a statistical weight to the nearest unit (a tie rounds
    /// up).
    ///
    /// # Panics
    ///
    /// When `w` is not finite, is negative or is not below 2^36.
    pub fn from_f64(w: f64) -> Weight {
        // The range also rejects NaN and the infinities.
        assert!(
            (0.0..Weight::LIMIT).contains(&w),
            "weight {w} is not finite, non-negative and below 2^36"
        );
        Weight((w * Weight::SCALE).round() as u64)
    }

    /// `w` as a weight when it is a whole number of units, as every
    /// [`Weight::to_f64`] is: `None` when `w` is not finite, is negative,
    /// is at least 2^36 or falls between two units.
    pub(crate) fn exact(w: f64) -> Option<Weight> {
        let units = w * Weight::SCALE;
        ((0.0..Weight::LIMIT).contains(&w) && units.fract() == 0.0).then_some(Weight(units as u64))
    }

    /// The weight as an `f64`: exact when its units have at most 53
    /// significant bits, as every whole-number weight and every weight
    /// below 2^25 does, and the nearest `f64` otherwise.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Weight::SCALE
    }
}

impl AddAssign for Weight {
    /// # Panics
    ///
    /// When the sum reaches 2^36: a wrapped sum would be a wrong report.
    fn add_assign(&mut self, other: Weight) {
        self.0 = self
            .0
            .checked_add(other.0)
            .expect("a weight sum reached 2^36");
    }
}

/// An element of a sorted, distinct vector: ordered and found by its
/// key, and merged with another element of the same key by `absorb`.
pub(crate) trait Keyed {
    /// What orders the elements; no two elements of a vector share it.
    type Key: Ord + ?Sized;

    /// The element's key.
    fn key(&self) -> &Self::Key;

    /// The order of two keys: `Ord`'s, unless a cheaper comparison gives
    /// the same order.
    fn order(a: &Self::Key, b: &Self::Key) -> Ordering {
        a.cmp(b)
    }

    /// Merge in `other`, an element of the same key. A set's elements are
    /// their keys, so only a map's values have anything to merge.
    fn absorb(&mut self, _other: &Self) {}
}

/// The order of two elements' keys.
fn order<T: Keyed>(a: &T, b: &T) -> Ordering {
    T::order(a.key(), b.key())
}

impl Keyed for Ipv4Addr {
    type Key = Ipv4Addr;

    fn key(&self) -> &Ipv4Addr {
        self
    }

    /// `Ipv4Addr` orders by octets, as a byte-slice comparison; the
    /// address as a big-endian `u32` orders the same in one compare.
    fn order(a: &Ipv4Addr, b: &Ipv4Addr) -> Ordering {
        u32::from(*a).cmp(&u32::from(*b))
    }
}

/// A port and its weight sum.
impl Keyed for (u16, Weight) {
    type Key = u16;

    fn key(&self) -> &u16 {
        &self.0
    }

    fn absorb(&mut self, other: &(u16, Weight)) {
        self.1 += other.1;
    }
}

/// A store dictionary code (the columnar fold's SNIs).
impl Keyed for u32 {
    type Key = u32;

    fn key(&self) -> &u32 {
        self
    }
}

impl Keyed for String {
    type Key = str;

    fn key(&self) -> &str {
        self
    }
}

impl Keyed for Arc<str> {
    type Key = str;

    fn key(&self) -> &str {
        self
    }
}

/// Sort `items` by key and merge the elements of each key into one, in
/// place: the sorted, distinct vector of any collection, in one sort.
fn sort_distinct<T: Keyed>(items: &mut Vec<T>) {
    items.sort_unstable_by(order);
    items.dedup_by(|next, kept| {
        let same = order(next, kept) == Ordering::Equal;
        if same {
            kept.absorb(next);
        }
        same
    });
}

/// [`sort_distinct`] into an allocation of the vector's own length.
pub(crate) fn gather<T: Keyed>(mut items: Vec<T>) -> Vec<T> {
    sort_distinct(&mut items);
    items.shrink_to_fit();
    items
}

/// The sorted, distinct union of two sorted, distinct vectors, elements
/// of one key merged. When every element of `b` is already in `a`, they
/// merge in place and `a` comes back in its own allocation.
pub(crate) fn union<T: Keyed>(mut a: Vec<T>, b: Vec<T>) -> Vec<T> {
    if a.is_empty() {
        return b;
    }
    let find = |a: &[T], y: &T| a.binary_search_by(|x| order(x, y));
    if b.iter().all(|y| find(&a, y).is_ok()) {
        for y in &b {
            if let Ok(i) = find(&a, y) {
                a[i].absorb(y);
            }
        }
        return a;
    }
    let mut out = merge_sorted(a, b);
    out.shrink_to_fit();
    out
}

/// Merge two sorted, distinct sequences into one vector, elements of one
/// key merged.
fn merge_sorted<T: Keyed>(a: Vec<T>, b: impl IntoIterator<Item = T>) -> Vec<T> {
    let b = b.into_iter();
    let mut out = Vec::with_capacity(a.len() + b.size_hint().0);
    let mut b = b.peekable();
    for mut x in a {
        while let Some(y) = b.next_if(|y| order(y, &x) == Ordering::Less) {
            out.push(y);
        }
        if let Some(y) = b.next_if(|y| order(y, &x) == Ordering::Equal) {
            x.absorb(&y);
        }
        out.push(x);
    }
    out.extend(b);
    out
}

/// Run length below which [`SortedFold`] inserts a new element into the
/// run itself: moving fewer elements than this costs less than queueing
/// and merging them.
const DIRECT: usize = 256;

/// A sorted, distinct vector as a fold builds it, one element at a time:
/// a sorted, distinct run and an unsorted tail. While the run is shorter
/// than [`DIRECT`], a new element is inserted into the run; after that it
/// joins the tail, which is sorted and merged into the run once it
/// reaches an eighth of the run. So an insert costs
/// O(log n) amortized. Inserting every new element into the run would
/// move O(n) elements per insert: about 10 GB in all for a chain seen by
/// 10^5 clients.
#[derive(Debug)]
pub(crate) struct SortedFold<T> {
    run: Vec<T>,
    tail: Vec<T>,
}

impl<T> Default for SortedFold<T> {
    fn default() -> SortedFold<T> {
        SortedFold {
            run: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T: Keyed> SortedFold<T> {
    /// The element of `key` in the run. `None` when only the tail holds
    /// it: an insert then queues a second element of the key, and the two
    /// merge when the tail is sorted in.
    pub(crate) fn find_mut(&mut self, key: &T::Key) -> Option<&mut T> {
        match self.run.binary_search_by(|x| T::order(x.key(), key)) {
            Ok(i) => Some(&mut self.run[i]),
            Err(_) => None,
        }
    }

    /// Fold in one element: merged into the run's element of its key,
    /// inserted into a short run, or queued in the tail.
    pub(crate) fn insert(&mut self, item: T) {
        match self.run.binary_search_by(|x| order(x, &item)) {
            Ok(i) => self.run[i].absorb(&item),
            Err(i) if self.run.len() < DIRECT => {
                self.run.insert(i, item);
            }
            Err(_) => {
                self.tail.push(item);
                if self.tail.len() >= self.run.len() / 8 {
                    self.settle();
                }
            }
        }
    }

    /// Sort the tail into the run. The tail keeps its allocation.
    fn settle(&mut self) {
        if !self.tail.is_empty() {
            sort_distinct(&mut self.tail);
            self.run = merge_sorted(std::mem::take(&mut self.run), self.tail.drain(..));
        }
    }

    /// Merge in another fold of the same chain.
    pub(crate) fn merge(&mut self, other: SortedFold<T>) {
        self.settle();
        self.run = union(std::mem::take(&mut self.run), other.finish());
    }

    /// The sorted, distinct vector, in an allocation of its own length.
    pub(crate) fn finish(mut self) -> Vec<T> {
        self.settle();
        self.run.shrink_to_fit();
        self.run
    }
}

/// Weighted usage counters for one group of connections, as a
/// [`crate::PipelineState`] and an analysis hold them: ports
/// and client addresses are sorted, distinct vectors.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct UsageStats {
    /// Weighted connection count.
    pub connections: Weight,
    /// Weighted established connections.
    pub established: Weight,
    /// Weighted connections that carried an SNI.
    pub with_sni: Weight,
    /// Weighted connections per responder port, sorted by port.
    pub ports: Vec<(u16, Weight)>,
    /// Distinct client addresses observed (unweighted), sorted.
    pub client_ips: Vec<Ipv4Addr>,
    /// Raw (unweighted) record count.
    pub records: u64,
}

impl UsageStats {
    /// Merge another stats block into this one: a sorted merge. To
    /// aggregate many blocks, [`UsageStats::gather`] them instead, which
    /// sorts once where merging them one by one is quadratic.
    pub fn merge(&mut self, other: &UsageStats) {
        self.absorb(other.clone());
    }

    /// [`UsageStats::merge`] of a block this one may consume.
    pub(crate) fn absorb(&mut self, other: UsageStats) {
        self.add_sums(&other);
        self.ports = union(std::mem::take(&mut self.ports), other.ports);
        self.client_ips = union(std::mem::take(&mut self.client_ips), other.client_ips);
    }

    /// The aggregate of many blocks: their sums added, and their ports
    /// and addresses gathered into one vector each, then sorted and
    /// merged once.
    pub fn gather<'a>(parts: impl IntoIterator<Item = &'a UsageStats>) -> UsageStats {
        let mut out = UsageStats::default();
        for part in parts {
            out.add_sums(part);
            out.ports.extend_from_slice(&part.ports);
            out.client_ips.extend_from_slice(&part.client_ips);
        }
        out.ports = gather(out.ports);
        out.client_ips = gather(out.client_ips);
        out
    }

    fn add_sums(&mut self, other: &UsageStats) {
        self.connections += other.connections;
        self.established += other.established;
        self.with_sni += other.with_sni;
        self.records += other.records;
    }

    /// Establishment rate.
    pub fn established_rate(&self) -> f64 {
        if self.connections == Weight::ZERO {
            0.0
        } else {
            self.established.to_f64() / self.connections.to_f64()
        }
    }

    /// Share of connections lacking SNI.
    pub fn no_sni_rate(&self) -> f64 {
        if self.connections == Weight::ZERO {
            0.0
        } else {
            1.0 - self.with_sni.to_f64() / self.connections.to_f64()
        }
    }

    /// Port distribution as `(port, percent)` sorted by share descending
    /// (ties by port).
    pub fn port_distribution(&self) -> Vec<(u16, f64)> {
        let total = self.connections.to_f64().max(f64::MIN_POSITIVE);
        let mut out: Vec<(u16, f64)> = self
            .ports
            .iter()
            .map(|&(p, w)| (p, 100.0 * w.to_f64() / total))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));
        out
    }
}

/// The weighted sums of a [`UsageStats`], as a report's roll-up adds
/// chains' usage into a category and takes it back out: integer sums of
/// [`Weight`] units, exact in any order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sums {
    pub(crate) connections: Weight,
    pub(crate) established: Weight,
    pub(crate) with_sni: Weight,
}

impl Sums {
    /// The sums of `usage`.
    pub(crate) fn of(usage: &UsageStats) -> Sums {
        Sums {
            connections: usage.connections,
            established: usage.established,
            with_sni: usage.with_sni,
        }
    }

    /// Add `other`.
    pub(crate) fn add(&mut self, other: &Sums) {
        self.connections += other.connections;
        self.established += other.established;
        self.with_sni += other.with_sni;
    }

    /// Take back `other`, which this sum includes.
    ///
    /// # Panics
    ///
    /// When a sum is below `other`'s: it did not include `other`.
    pub(crate) fn sub(&mut self, other: &Sums) {
        let less = |a: Weight, b: Weight| {
            Weight(
                a.0.checked_sub(b.0)
                    .expect("a sum taken back it never held"),
            )
        };
        self.connections = less(self.connections, other.connections);
        self.established = less(self.established, other.established);
        self.with_sni = less(self.with_sni, other.with_sni);
    }
}

/// One chain's usage as a fold accumulates it, row by row:
/// [`UsageFold::finish`] gives the [`UsageStats`] that a state or an
/// analysis holds.
#[derive(Debug, Default)]
pub(crate) struct UsageFold {
    connections: Weight,
    established: Weight,
    with_sni: Weight,
    ports: SortedFold<(u16, Weight)>,
    client_ips: SortedFold<Ipv4Addr>,
    records: u64,
}

impl UsageFold {
    /// Fold in one connection observation.
    pub(crate) fn add(
        &mut self,
        established: bool,
        sni: bool,
        port: u16,
        client: Ipv4Addr,
        weight: Weight,
    ) {
        self.connections += weight;
        if established {
            self.established += weight;
        }
        if sni {
            self.with_sni += weight;
        }
        self.ports.insert((port, weight));
        self.client_ips.insert(client);
        self.records += 1;
    }

    /// Merge in another fold of the same chain.
    pub(crate) fn merge(&mut self, other: UsageFold) {
        self.connections += other.connections;
        self.established += other.established;
        self.with_sni += other.with_sni;
        self.ports.merge(other.ports);
        self.client_ips.merge(other.client_ips);
        self.records += other.records;
    }

    /// The folded usage, its vectors sorted and distinct.
    pub(crate) fn finish(self) -> UsageStats {
        UsageStats {
            connections: self.connections,
            established: self.established,
            with_sni: self.with_sni,
            ports: self.ports.finish(),
            client_ips: self.client_ips.finish(),
            records: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    #[test]
    fn rates_and_ports() {
        let mut fold = UsageFold::default();
        fold.add(true, true, 443, ip(1), Weight::ONE);
        fold.add(true, false, 443, ip(2), Weight::ONE);
        fold.add(false, false, 8013, ip(1), Weight::from_f64(2.0));
        let s = fold.finish();
        assert!((s.established_rate() - 0.5).abs() < 1e-9);
        assert!((s.no_sni_rate() - 0.75).abs() < 1e-9);
        let ports = s.port_distribution();
        assert_eq!(ports[0], (443, 50.0));
        assert_eq!(ports[1], (8013, 50.0));
        assert_eq!(s.client_ips, [ip(1), ip(2)]);
        assert_eq!(s.records, 3);
    }

    #[test]
    fn merge_combines() {
        let mut a = UsageFold::default();
        a.add(true, true, 443, ip(1), Weight::ONE);
        let mut b = UsageFold::default();
        b.add(false, false, 25, ip(2), Weight::from_f64(3.0));
        let mut a = a.finish();
        a.merge(&b.finish());
        assert_eq!(a.connections, Weight::from_f64(4.0));
        assert_eq!(a.client_ips, [ip(1), ip(2)]);
        assert_eq!(a.ports, [(25, Weight::from_f64(3.0)), (443, Weight::ONE)]);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = UsageStats::default();
        assert_eq!(s.established_rate(), 0.0);
        assert_eq!(s.no_sni_rate(), 0.0);
        assert!(s.port_distribution().is_empty());
    }

    #[test]
    fn one_is_two_to_the_28_units() {
        assert_eq!(Weight::ONE.0, 1 << 28);
        assert_eq!(Weight::from_f64(1.0), Weight::ONE);
        assert_eq!(Weight::ONE.to_f64(), 1.0);
        assert_eq!(Weight::LIMIT, 68_719_476_736.0);
    }

    #[test]
    fn from_f64_rounds_to_the_nearest_unit() {
        let unit = 1.0 / (1u64 << 28) as f64;
        // 0.1 is 26843545.6 units.
        assert_eq!(Weight::from_f64(0.1).0, 26_843_546);
        assert_eq!(Weight::from_f64(0.4 * unit).0, 0);
        assert_eq!(Weight::from_f64(0.6 * unit).0, 1);
        assert_eq!(Weight::from_f64(2.49 * unit).0, 2);
        assert_eq!(Weight::from_f64(2.51 * unit).0, 3);
        // The generator's weights, each within half a unit.
        for w in [24.691358024691358, 28.571428571428573, 705.4794520547945] {
            let q = Weight::from_f64(w);
            assert!((q.to_f64() - w).abs() <= unit / 2.0, "{w} -> {q:?}");
            assert_eq!(Weight::exact(q.to_f64()), Some(q));
        }
        assert_eq!(
            Weight::from_f64(Weight::LIMIT - 1.0).to_f64(),
            Weight::LIMIT - 1.0
        );
    }

    #[test]
    #[should_panic(expected = "not finite, non-negative and below 2^36")]
    fn from_f64_panics_on_nan() {
        Weight::from_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "not finite, non-negative and below 2^36")]
    fn from_f64_panics_on_a_negative_weight() {
        Weight::from_f64(-0.5);
    }

    #[test]
    #[should_panic(expected = "not finite, non-negative and below 2^36")]
    fn from_f64_panics_at_two_to_the_36() {
        Weight::from_f64(Weight::LIMIT);
    }

    #[test]
    fn exact_takes_only_whole_units_in_range() {
        assert_eq!(Weight::exact(3.0), Some(Weight(3 << 28)));
        assert_eq!(Weight::exact(0.0), Some(Weight::ZERO));
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.1, Weight::LIMIT] {
            assert_eq!(Weight::exact(bad), None, "{bad}");
        }
    }

    /// Ten records of weight 0.1 on one chain sum to exactly ten times
    /// the quantized 0.1 at every thread count; as `f64`s they would sum
    /// to 0.9999999999999999.
    #[test]
    fn tenths_sum_exactly_at_every_thread_count() {
        use crate::{CrossSignRegistry, Pipeline, PipelineOptions};
        use certchain_asn1::Asn1Time;
        use certchain_netsim::{SslRecord, TlsVersion, X509Record};
        use certchain_x509::Fingerprint;

        let ts = Asn1Time::from_unix(1_600_000_000);
        let fp = Fingerprint([7; 32]);
        let x509 = [X509Record {
            ts,
            fingerprint: fp,
            cert_version: 3,
            serial: "07".into(),
            subject: "CN=tenth.example".into(),
            issuer: "CN=tenth.example".into(),
            not_before: ts,
            not_after: Asn1Time::from_unix(1_700_000_000),
            basic_constraints_ca: None,
            path_len: None,
            san_dns: vec!["tenth.example".into()],
        }];
        let ssl: Vec<SslRecord> = (0..10u8)
            .map(|i| SslRecord {
                ts,
                uid: format!("C{i}"),
                orig_h: ip(i),
                orig_p: 40_000,
                resp_h: Ipv4Addr::new(192, 168, 0, 1),
                resp_p: 443,
                version: TlsVersion::Tls12,
                server_name: None,
                established: true,
                cert_chain_fps: vec![fp],
            })
            .collect();
        let weights = [0.1; 10];
        let want = Weight(10 * Weight::from_f64(0.1).0);
        let (trust, ct) = (
            certchain_trust::TrustDb::new(),
            certchain_ctlog::DomainIndex::new(),
        );
        for threads in [1, 2, 8] {
            let options = PipelineOptions {
                threads,
                ..PipelineOptions::default()
            };
            let pipeline = Pipeline::with_options(&trust, &ct, CrossSignRegistry::new(), options);
            let analysis = pipeline.analyze(&ssl, &x509, Some(&weights));
            assert_eq!(analysis.chains.len(), 1);
            let usage = &analysis.chains[0].usage;
            assert_eq!(usage.connections, want, "threads = {threads}");
            assert_eq!(usage.established, want, "threads = {threads}");
            assert_eq!(usage.ports, [(443, want)], "threads = {threads}");
        }
    }

    /// A million distinct client addresses, in shuffled order, fold into
    /// one chain at threads 1; then two folds of half a million each
    /// merge in a state. Each takes seconds in a debug build, where one
    /// `Vec::insert` per new address would move about a terabyte.
    #[test]
    fn a_million_client_addresses_fold_and_merge_in_seconds() {
        use crate::{CrossSignRegistry, Pipeline, PipelineOptions, PipelineState};
        use certchain_asn1::Asn1Time;
        use certchain_netsim::{SslRecord, TlsVersion, X509Record};
        use certchain_x509::Fingerprint;
        use std::convert::Infallible;

        const N: u32 = 1_000_000;
        let ts = Asn1Time::from_unix(1_600_000_000);
        let fp = Fingerprint([9; 32]);
        let x509 = X509Record {
            ts,
            fingerprint: fp,
            cert_version: 3,
            serial: "09".into(),
            subject: "CN=busy.example".into(),
            issuer: "CN=busy.example".into(),
            not_before: ts,
            not_after: Asn1Time::from_unix(1_700_000_000),
            basic_constraints_ca: None,
            path_len: None,
            san_dns: vec!["busy.example".into()],
        };
        // An odd multiplier permutes the u32s: distinct, and shuffled.
        let rows = |range: std::ops::Range<u32>| {
            range.map(move |i| {
                Ok::<_, Infallible>(SslRecord {
                    ts,
                    uid: String::new(),
                    orig_h: Ipv4Addr::from(i.wrapping_mul(0x9E37_79B1)),
                    orig_p: 40_000,
                    resp_h: Ipv4Addr::new(192, 168, 0, 1),
                    resp_p: 443,
                    version: TlsVersion::Tls12,
                    server_name: None,
                    established: true,
                    cert_chain_fps: vec![fp],
                })
            })
        };
        let (trust, ct) = (
            certchain_trust::TrustDb::new(),
            certchain_ctlog::DomainIndex::new(),
        );
        let options = PipelineOptions {
            threads: 1,
            ..PipelineOptions::default()
        };
        let pipeline = Pipeline::with_options(&trust, &ct, CrossSignRegistry::new(), options);
        let x509s = || std::iter::once(Ok::<_, Infallible>(x509.clone()));
        let check = |usage: &UsageStats| {
            assert_eq!(usage.records, u64::from(N));
            assert_eq!(usage.client_ips.len(), N as usize);
            assert!(usage.client_ips.windows(2).all(|w| w[0] < w[1]));
        };
        let once = pipeline
            .analyze_stream(rows(0..N), x509s())
            .unwrap_or_else(|never| match never {});
        check(&once.chains[0].usage);

        let mut state = PipelineState::new();
        pipeline.fold_x509_stream(&mut state, x509s()).unwrap();
        pipeline
            .fold_ssl_stream(&mut state, rows(0..N / 2))
            .unwrap();
        pipeline
            .fold_ssl_stream(&mut state, rows(N / 2..N))
            .unwrap();
        let merged = pipeline.finalize_state(&state);
        check(&merged.chains[0].usage);
        assert_eq!(merged.chains[0].usage, once.chains[0].usage);
    }

    mod model {
        //! The compact forms against a `BTreeMap`/`BTreeSet` model.
        use super::super::*;
        use crate::pipeline::ingest::SniPool;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// One connection: chain, port, client, SNI, established, weight
        /// units.
        type Row = (u8, u16, u32, Option<u8>, bool, u64);

        fn arb_row() -> impl Strategy<Value = Row> {
            (
                0u8..3,
                prop_oneof![Just(443u16), 0u16..6, any::<u16>()],
                // Few clients repeat often; many spill past the short
                // tail and into the sorted merges.
                prop_oneof![0u32..24, 0u32..4_000],
                proptest::option::of(0u8..40),
                any::<bool>(),
                0u64..1 << 30,
            )
        }

        fn sni(n: u8) -> String {
            format!("s{n}.example")
        }

        /// The reference aggregate: ordered maps and sets.
        #[derive(Debug, Default, PartialEq)]
        struct Model {
            sums: [u64; 4],
            ports: BTreeMap<u16, u64>,
            ips: BTreeSet<Ipv4Addr>,
            snis: BTreeSet<String>,
        }

        impl Model {
            fn of<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Model {
                let mut m = Model::default();
                for &(_, port, ip, s, est, w) in rows {
                    m.sums[0] += w;
                    m.sums[1] += if est { w } else { 0 };
                    m.sums[2] += if s.is_some() { w } else { 0 };
                    m.sums[3] += 1;
                    *m.ports.entry(port).or_default() += w;
                    m.ips.insert(Ipv4Addr::from(ip));
                    m.snis.extend(s.map(sni));
                }
                m
            }

            fn seen(usage: &UsageStats, snis: &[impl AsRef<str>]) -> Model {
                assert!(usage.ports.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(usage.client_ips.windows(2).all(|w| w[0] < w[1]));
                let snis: Vec<&str> = snis.iter().map(AsRef::as_ref).collect();
                assert!(snis.windows(2).all(|w| w[0] < w[1]));
                Model {
                    sums: [
                        usage.connections.0,
                        usage.established.0,
                        usage.with_sni.0,
                        usage.records,
                    ],
                    ports: usage.ports.iter().map(|&(p, w)| (p, w.0)).collect(),
                    ips: usage.client_ips.iter().copied().collect(),
                    snis: snis.iter().map(|s| s.to_string()).collect(),
                }
            }
        }

        /// One chain's fold of `rows`, as the ingest shards fold them.
        #[derive(Default)]
        struct Fold {
            usage: UsageFold,
            snis: SortedFold<String>,
        }

        impl Fold {
            fn of<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Fold {
                let mut f = Fold::default();
                for &(_, port, ip, s, est, w) in rows {
                    f.usage
                        .add(est, s.is_some(), port, Ipv4Addr::from(ip), Weight(w));
                    if let Some(s) = s.map(sni) {
                        if f.snis.find_mut(&s).is_none() {
                            f.snis.insert(s);
                        }
                    }
                }
                f
            }
        }

        /// `items` in an order drawn from `seed`.
        fn shuffled<T>(mut items: Vec<T>, mut seed: u64) -> Vec<T> {
            for i in (1..items.len()).rev() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                items.swap(i, (seed >> 33) as usize % (i + 1));
            }
            items
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Per chain: the fold of all rows; partial folds over any
            /// split, merged as folds in any order (the workers' merge);
            /// and the same partials finished and merged as at-rest
            /// vectors in any order (a state's merge, SNIs through its
            /// pool) all equal the model. Over all chains, gathering the
            /// finished chains equals the model of every row.
            #[test]
            fn compact_forms_match_the_ordered_model(
                rows in proptest::collection::vec(arb_row(), 0..700),
                cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..5),
                seed in any::<u64>(),
            ) {
                let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(rows.len() + 1)).collect();
                cuts.push(0);
                cuts.push(rows.len());
                cuts.sort_unstable();
                let mut finished = Vec::new();
                for chain in 0..3u8 {
                    let of_chain = |r: &&Row| r.0 == chain;
                    let want = Model::of(rows.iter().filter(of_chain));

                    let whole = Fold::of(rows.iter().filter(of_chain));
                    let (usage, snis) = (whole.usage.finish(), whole.snis.finish());
                    prop_assert_eq!(&Model::seen(&usage, &snis), &want);

                    let parts = || {
                        let folds: Vec<Fold> = cuts
                            .windows(2)
                            .map(|w| Fold::of(rows[w[0]..w[1]].iter().filter(of_chain)))
                            .collect();
                        shuffled(folds, seed)
                    };
                    let mut merged = Fold::default();
                    for part in parts() {
                        merged.usage.merge(part.usage);
                        merged.snis.merge(part.snis);
                    }
                    let (m_usage, m_snis) = (merged.usage.finish(), merged.snis.finish());
                    prop_assert_eq!(&Model::seen(&m_usage, &m_snis), &want);

                    let mut pool = SniPool::default();
                    let mut at_rest = UsageStats::default();
                    let mut slice = pool.none();
                    for part in parts() {
                        at_rest.absorb(part.usage.finish());
                        pool.merge(&mut slice, &part.snis.finish());
                    }
                    prop_assert_eq!(&Model::seen(&at_rest, &slice), &want);
                    finished.push(usage);
                }
                let all = UsageStats::gather(&finished);
                let mut want = Model::of(&rows);
                want.snis.clear();
                prop_assert_eq!(Model::seen(&all, &[] as &[&str]), want);
            }
        }
    }
}
