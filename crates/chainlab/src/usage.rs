//! Connection-usage aggregation: establishment rates, ports (Table 4),
//! SNI presence, client-IP counts.

use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;
use std::ops::AddAssign;

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

/// Weighted usage counters for one group of connections.
#[derive(Debug, Default, Clone)]
pub struct UsageStats {
    /// Weighted connection count.
    pub connections: Weight,
    /// Weighted established connections.
    pub established: Weight,
    /// Weighted connections that carried an SNI.
    pub with_sni: Weight,
    /// Weighted connections per responder port.
    pub ports: BTreeMap<u16, Weight>,
    /// Distinct client addresses observed (unweighted set).
    pub client_ips: HashSet<Ipv4Addr>,
    /// Raw (unweighted) record count.
    pub records: u64,
}

impl UsageStats {
    /// Fold in one connection observation.
    pub fn add(
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
        *self.ports.entry(port).or_default() += weight;
        self.client_ips.insert(client);
        self.records += 1;
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &UsageStats) {
        self.connections += other.connections;
        self.established += other.established;
        self.with_sni += other.with_sni;
        for (&port, &w) in &other.ports {
            *self.ports.entry(port).or_default() += w;
        }
        // srclint: commutative -- set union; insertion order is invisible
        self.client_ips.extend(other.client_ips.iter().copied());
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

    /// Port distribution as `(port, percent)` sorted by share descending.
    pub fn port_distribution(&self) -> Vec<(u16, f64)> {
        let total = self.connections.to_f64().max(f64::MIN_POSITIVE);
        let mut out: Vec<(u16, f64)> = self
            .ports
            .iter()
            .map(|(&p, &w)| (p, 100.0 * w.to_f64() / total))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));
        out
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
        let mut s = UsageStats::default();
        s.add(true, true, 443, ip(1), Weight::ONE);
        s.add(true, false, 443, ip(2), Weight::ONE);
        s.add(false, false, 8013, ip(1), Weight::from_f64(2.0));
        assert!((s.established_rate() - 0.5).abs() < 1e-9);
        assert!((s.no_sni_rate() - 0.75).abs() < 1e-9);
        let ports = s.port_distribution();
        assert_eq!(ports[0], (443, 50.0));
        assert_eq!(ports[1], (8013, 50.0));
        assert_eq!(s.client_ips.len(), 2);
        assert_eq!(s.records, 3);
    }

    #[test]
    fn merge_combines() {
        let mut a = UsageStats::default();
        a.add(true, true, 443, ip(1), Weight::ONE);
        let mut b = UsageStats::default();
        b.add(false, false, 25, ip(2), Weight::from_f64(3.0));
        a.merge(&b);
        assert_eq!(a.connections, Weight::from_f64(4.0));
        assert_eq!(a.client_ips.len(), 2);
        assert_eq!(a.ports.len(), 2);
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
            assert_eq!(usage.ports[&443], want, "threads = {threads}");
        }
    }
}
