//! TLS handshake simulation.
//!
//! One call = one TLS connection crossing the border gateway. The outcome
//! bundles the `ssl.log` record and the `x509.log` records the Zeek-like
//! monitor would emit for it.

use crate::client::Client;
use crate::endpoint::ServerEndpoint;
use crate::validate::{validate_chain, ValidationError};
use crate::zeek::record::{SslRecord, X509Record};
use certchain_asn1::Asn1Time;
use certchain_trust::TrustDb;

/// TLS protocol version of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlsVersion {
    /// TLS 1.2 and below: the certificate chain crosses the wire in clear.
    Tls12,
    /// TLS 1.3: certificates are encrypted; the passive monitor sees none.
    Tls13,
}

impl TlsVersion {
    /// Zeek's string rendering.
    pub fn as_str(&self) -> &'static str {
        match self {
            TlsVersion::Tls12 => "TLSv12",
            TlsVersion::Tls13 => "TLSv13",
        }
    }
}

/// The result of one simulated connection: what [`simulate_connection`]
/// returns. Trace generators call [`record_connection`] instead, which
/// yields the ssl row alone.
#[derive(Debug, Clone)]
pub struct ConnectionOutcome {
    /// The ssl.log record.
    pub ssl: SslRecord,
    /// x509.log records for each delivered certificate (empty for TLS 1.3),
    /// projected from the server's chain by [`simulate_connection`].
    pub x509: Vec<X509Record>,
    /// Validation verdict (None when the client accepted without
    /// validating, i.e. the permissive policy).
    pub validation_error: Option<ValidationError>,
}

/// Simulate one connection from `client` to `server` at `at`.
///
/// `uid` must be unique per connection (the trace generator numbers them).
pub fn simulate_connection(
    uid: u64,
    at: Asn1Time,
    client: &Client,
    server: &ServerEndpoint,
    trust: &TrustDb,
    version: TlsVersion,
) -> ConnectionOutcome {
    let sni = if client.policy.sends_sni {
        server.domain.clone()
    } else {
        None
    };
    let verdict = validate_chain(
        client.policy.validation,
        &server.chain,
        trust,
        at,
        sni.as_deref(),
    );
    let ssl = record_connection(uid, at, client, server, verdict.is_ok(), version);
    // The passive monitor sees the certificates only below TLS 1.3.
    let x509 = match version {
        TlsVersion::Tls13 => Vec::new(),
        TlsVersion::Tls12 => server
            .chain
            .iter()
            .map(|c| X509Record::from_certificate(at, c))
            .collect(),
    };
    ConnectionOutcome {
        ssl,
        x509,
        validation_error: verdict.err(),
    }
}

/// Build the ssl.log record for a connection whose validation outcome is
/// already known. Trace generators use this with a per-(server, policy)
/// outcome cache so signature verification runs once, not once per
/// connection. It yields the ssl row alone: a generator writes an x509
/// row only at a certificate's first sighting, so it projects those
/// itself.
pub fn record_connection(
    uid: u64,
    at: Asn1Time,
    client: &Client,
    server: &ServerEndpoint,
    established: bool,
    version: TlsVersion,
) -> SslRecord {
    let sni = if client.policy.sends_sni {
        server.domain.clone()
    } else {
        None
    };
    // What the passive monitor captures depends on the TLS version.
    let cert_chain_fps = match version {
        TlsVersion::Tls13 => Vec::new(),
        TlsVersion::Tls12 => server.chain.iter().map(|c| c.fingerprint()).collect(),
    };
    SslRecord {
        ts: at,
        uid: format!("C{uid:016x}"),
        orig_h: client.ip,
        orig_p: 32768 + (uid % 28_000) as u16,
        resp_h: server.ip,
        resp_p: server.port,
        version,
        server_name: sni,
        established,
        cert_chain_fps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientPolicy;
    use certchain_cryptosim::KeyPair;
    use certchain_x509::{CertificateBuilder, DistinguishedName, Validity};
    use std::net::Ipv4Addr;

    fn at() -> Asn1Time {
        Asn1Time::from_ymd_hms(2020, 10, 1, 8, 0, 0).unwrap()
    }

    fn self_signed_server() -> ServerEndpoint {
        let kp = KeyPair::derive(1, "hs:self");
        let dn = DistinguishedName::cn("printer.campus.edu");
        let cert = CertificateBuilder::new()
            .issuer(dn.clone())
            .subject(dn)
            .validity(Validity::days_from(
                Asn1Time::from_ymd_hms(2020, 1, 1, 0, 0, 0).unwrap(),
                3650,
            ))
            .sign(&kp)
            .into_arc();
        ServerEndpoint::new(
            7,
            Ipv4Addr::new(203, 0, 113, 8),
            8888,
            Some("printer.campus.edu".into()),
            vec![cert],
        )
    }

    #[test]
    fn permissive_client_establishes_to_self_signed() {
        let server = self_signed_server();
        let client = Client::new(
            Ipv4Addr::new(128, 143, 5, 5),
            ClientPolicy::permissive_no_sni(),
        );
        let trust = TrustDb::new();
        let out = simulate_connection(1, at(), &client, &server, &trust, TlsVersion::Tls12);
        assert!(out.ssl.established);
        assert!(out.ssl.server_name.is_none(), "no-SNI client");
        assert_eq!(out.ssl.cert_chain_fps.len(), 1);
        assert_eq!(out.x509.len(), 1);
        assert!(out.validation_error.is_none());
    }

    #[test]
    fn browser_client_fails_to_self_signed() {
        let server = self_signed_server();
        let client = Client::new(Ipv4Addr::new(128, 143, 5, 6), ClientPolicy::browser());
        let trust = TrustDb::new();
        let out = simulate_connection(2, at(), &client, &server, &trust, TlsVersion::Tls12);
        assert!(!out.ssl.established);
        assert_eq!(out.ssl.server_name.as_deref(), Some("printer.campus.edu"));
        assert!(out.validation_error.is_some());
        // Failed handshakes still reveal the chain to the passive monitor
        // (Zeek records certificates from the server's Certificate message
        // regardless of the final outcome).
        assert_eq!(out.x509.len(), 1);
    }

    #[test]
    fn tls13_hides_certificates() {
        let server = self_signed_server();
        let client = Client::new(Ipv4Addr::new(128, 143, 5, 7), ClientPolicy::permissive());
        let trust = TrustDb::new();
        let out = simulate_connection(3, at(), &client, &server, &trust, TlsVersion::Tls13);
        assert!(out.ssl.cert_chain_fps.is_empty());
        assert!(out.x509.is_empty());
        assert_eq!(out.ssl.version, TlsVersion::Tls13);
    }

    #[test]
    fn uids_are_distinct_and_ports_in_range() {
        let server = self_signed_server();
        let client = Client::new(Ipv4Addr::new(128, 143, 5, 8), ClientPolicy::permissive());
        let trust = TrustDb::new();
        let a = simulate_connection(10, at(), &client, &server, &trust, TlsVersion::Tls12);
        let b = simulate_connection(11, at(), &client, &server, &trust, TlsVersion::Tls12);
        assert_ne!(a.ssl.uid, b.ssl.uid);
        assert!(a.ssl.orig_p >= 32768);
        assert_eq!(a.ssl.resp_p, 8888);
    }
}
