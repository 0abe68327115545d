//! The certificate itself: TBS structure, DER encode/parse, fingerprints
//! and signature verification against the simulated scheme.

use crate::dn::DistinguishedName;
use crate::extensions::{decode_extensions, encode_extensions, BasicConstraints, Extension};
use crate::serial::Serial;
use crate::validity::Validity;
use certchain_asn1::{oid::known, writer, Asn1Error, Asn1Result, Decoder, Encoder, Oid, Tag};
use certchain_cryptosim::{sha256, PublicKey, Sha256, Signature};
use std::fmt;
use std::sync::Arc;

/// Signature/key algorithm identifier. The simulator issues everything under
/// [`AlgorithmId::SimSig`]; [`AlgorithmId::Unknown`] reproduces the paper's
/// "public key not recognized by the validation library" chains (Table 5).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AlgorithmId {
    /// The workspace's simulated signature scheme.
    SimSig,
    /// An algorithm the validator does not implement.
    Unknown(Oid),
}

impl AlgorithmId {
    /// The algorithm OID.
    pub fn oid(&self) -> Oid {
        match self {
            AlgorithmId::SimSig => known::sim_sig_with_sha256(),
            AlgorithmId::Unknown(oid) => oid.clone(),
        }
    }

    fn from_oid(oid: Oid) -> AlgorithmId {
        if oid == known::sim_sig_with_sha256() {
            AlgorithmId::SimSig
        } else {
            AlgorithmId::Unknown(oid)
        }
    }

    /// Encode as AlgorithmIdentifier (OID + NULL params).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|enc| {
            enc.oid(&self.oid());
            enc.null();
        });
    }

    /// Decode an AlgorithmIdentifier; params may be NULL or absent.
    pub fn decode(dec: &mut Decoder<'_>) -> Asn1Result<AlgorithmId> {
        dec.sequence(|inner| {
            let oid = inner.oid()?;
            if !inner.is_at_end() {
                inner.null()?;
            }
            Ok(AlgorithmId::from_oid(oid))
        })
    }
}

/// SHA-256 fingerprint of the full certificate DER — the identifier Zeek
/// records and both log streams join on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; 32]);

impl Fingerprint {
    /// Lowercase hex, Zeek's `x509.log` format.
    pub fn to_hex(&self) -> String {
        sha256::hex(&self.0)
    }

    /// Parse 64 lowercase/uppercase ASCII hex digits.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        Fingerprint::from_hex_bytes(s.as_bytes())
    }

    /// [`Fingerprint::from_hex`] over raw bytes: exactly 64 ASCII hex
    /// digits, nothing else (no sign, no non-ASCII byte).
    pub fn from_hex_bytes(hex: &[u8]) -> Option<Fingerprint> {
        if hex.len() != 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        // Branch-free: any non-digit sets a high nibble bit in `bad`.
        let mut bad = 0u8;
        for (out, pair) in bytes.iter_mut().zip(hex.chunks_exact(2)) {
            let (hi, lo) = (
                HEX_VALUE[usize::from(pair[0])],
                HEX_VALUE[usize::from(pair[1])],
            );
            bad |= hi | lo;
            *out = (hi << 4) | lo;
        }
        (bad & 0xf0 == 0).then_some(Fingerprint(bytes))
    }
}

/// The value of each ASCII hex digit, upper- or lowercase; `0xff` for
/// every other byte.
const HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut d = 0;
    while d < 16 {
        let digit = b"0123456789abcdef"[d];
        table[digit as usize] = d as u8;
        table[digit.to_ascii_uppercase() as usize] = d as u8;
        d += 1;
    }
    table
};

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// A parsed (or freshly built) X.509 certificate.
///
/// Certificates are immutable once created; they are shared widely across
/// chains, logs and indexes, so cheap cloning matters — wrap in
/// [`std::sync::Arc`] via [`Certificate::into_arc`] when fanning out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// X.509 version (0 = v1, 2 = v3). v1 certificates carry no extensions.
    pub version: u64,
    /// Serial number.
    pub serial: Serial,
    /// Signature algorithm (appears in both TBS and outer wrapper).
    pub algorithm: AlgorithmId,
    /// Issuer distinguished name.
    pub issuer: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// Subject distinguished name.
    pub subject: DistinguishedName,
    /// Subject public key (32-byte simulated key).
    pub public_key: PublicKey,
    /// Extensions in order of appearance.
    pub extensions: Vec<Extension>,
    /// The signature over the TBS bytes.
    pub signature: Signature,
    /// Full-certificate DER: as encoded by the builder, or as given to
    /// [`Certificate::parse`].
    der: Vec<u8>,
    /// Cached fingerprint of `der`.
    fingerprint: Fingerprint,
}

impl Certificate {
    /// Assemble a certificate from parts plus its signature, computing the
    /// canonical DER and fingerprint. Used by the builder; external code
    /// should go through [`crate::CertificateBuilder`].
    #[allow(clippy::too_many_arguments)] // mirrors the TBS field list; a params struct would just restate it
    pub(crate) fn assemble(
        version: u64,
        serial: Serial,
        algorithm: AlgorithmId,
        issuer: DistinguishedName,
        validity: Validity,
        subject: DistinguishedName,
        public_key: PublicKey,
        extensions: Vec<Extension>,
        signature: Signature,
    ) -> Certificate {
        let tbs = encode_tbs(
            version,
            &serial,
            &algorithm,
            &issuer,
            &validity,
            &subject,
            &public_key,
            &extensions,
        );
        let der = writer::encode(|enc| {
            enc.sequence(|enc| {
                enc.raw(&tbs);
                algorithm.encode(enc);
                enc.bit_string(signature.as_bytes());
            });
        });
        let fingerprint = Fingerprint(Sha256::digest(&der));
        Certificate {
            version,
            serial,
            algorithm,
            issuer,
            validity,
            subject,
            public_key,
            extensions,
            signature,
            der,
            fingerprint,
        }
    }

    /// The full certificate DER.
    pub fn der(&self) -> &[u8] {
        &self.der
    }

    /// The DER of the TBS (to-be-signed) portion.
    pub fn tbs_der(&self) -> Vec<u8> {
        encode_tbs(
            self.version,
            &self.serial,
            &self.algorithm,
            &self.issuer,
            &self.validity,
            &self.subject,
            &self.public_key,
            &self.extensions,
        )
    }

    /// SHA-256 fingerprint of the DER.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Move into an `Arc` for cheap sharing.
    pub fn into_arc(self) -> Arc<Certificate> {
        Arc::new(self)
    }

    /// Whether issuer and subject DNs are byte-identical — the paper's
    /// definition of *self-signed* (§4.3 works purely on these fields).
    pub fn is_self_signed(&self) -> bool {
        self.issuer == self.subject
    }

    /// Verify this certificate's signature with `issuer_key`.
    ///
    /// Returns `false` both for a wrong key and for an
    /// [`AlgorithmId::Unknown`] algorithm — callers distinguishing the two
    /// (Table 5's "unrecognized key" row) should check
    /// [`Certificate::algorithm`] first.
    pub fn verify_signed_by(&self, issuer_key: &PublicKey) -> bool {
        if matches!(self.algorithm, AlgorithmId::Unknown(_)) {
            return false;
        }
        certchain_cryptosim::verify(issuer_key, &self.tbs_der(), &self.signature)
    }

    /// The basicConstraints extension, if present. Absence — pervasive
    /// among non-public-DB certificates per §4.3 — returns `None`.
    pub fn basic_constraints(&self) -> Option<BasicConstraints> {
        self.extensions.iter().find_map(|e| match e {
            Extension::BasicConstraints(bc) => Some(*bc),
            _ => None,
        })
    }

    /// DNS names from subjectAltName (empty when absent).
    pub fn dns_names(&self) -> Vec<&str> {
        self.extensions
            .iter()
            .find_map(|e| match e {
                Extension::SubjectAltName(names) => {
                    Some(names.iter().map(|s| s.as_str()).collect())
                }
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Embedded SCTs (empty when absent).
    pub fn scts(&self) -> &[Vec<u8>] {
        self.extensions
            .iter()
            .find_map(|e| match e {
                Extension::SctList(scts) => Some(scts.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// Parse a certificate from DER.
    ///
    /// The certificate keeps the bytes it was given: [`Certificate::der`]
    /// is `der` and [`Certificate::fingerprint`] is its SHA-256, the
    /// identifier Zeek computed over the same wire bytes. The fields are
    /// not re-encoded, so a certificate whose encoding differs from the
    /// one this crate writes (a printable DN value tagged UTF8String,
    /// say) keeps its own fingerprint. [`Certificate::tbs_der`], and so
    /// signature checks, still re-encode the parsed fields.
    pub fn parse(der: &[u8]) -> Asn1Result<Certificate> {
        let mut dec = Decoder::new(der);
        let cert = dec.sequence(|outer| {
            let tbs_tlv = outer.expect(Tag::SEQUENCE)?;
            let mut tbs = tbs_tlv.decoder()?;

            let version = match tbs.optional(Tag::context(0))? {
                Some(v) => v.decoder()?.integer_u64()?,
                None => 0,
            };
            let serial = Serial::decode(&mut tbs)?;
            let algorithm = AlgorithmId::decode(&mut tbs)?;
            let issuer = DistinguishedName::decode(&mut tbs)?;
            let validity = Validity::decode(&mut tbs)?;
            let subject = DistinguishedName::decode(&mut tbs)?;
            let public_key = decode_spki(&mut tbs)?;
            let extensions = decode_extensions(&mut tbs)?;
            tbs.finish()?;

            let outer_algorithm = AlgorithmId::decode(outer)?;
            if outer_algorithm != algorithm {
                return Err(Asn1Error::Unencodable {
                    reason: "TBS and outer signature algorithms disagree",
                });
            }
            let sig_bytes = outer.bit_string()?;
            let signature =
                Signature::from_slice(sig_bytes).ok_or(Asn1Error::InvalidLength { offset: 0 })?;

            Ok(Certificate {
                version,
                serial,
                algorithm,
                issuer,
                validity,
                subject,
                public_key,
                extensions,
                signature,
                der: der.to_vec(),
                fingerprint: Fingerprint(Sha256::digest(der)),
            })
        })?;
        dec.finish()?;
        Ok(cert)
    }
}

fn decode_spki(dec: &mut Decoder<'_>) -> Asn1Result<PublicKey> {
    dec.sequence(|inner| {
        let _alg = AlgorithmId::decode(inner)?;
        let key_bytes = inner.bit_string()?;
        let bytes: [u8; 32] = key_bytes
            .try_into()
            .map_err(|_| Asn1Error::InvalidLength { offset: 0 })?;
        Ok(PublicKey::from_bytes(bytes))
    })
}

#[allow(clippy::too_many_arguments)] // mirrors the TBS field list; a params struct would just restate it
fn encode_tbs(
    version: u64,
    serial: &Serial,
    algorithm: &AlgorithmId,
    issuer: &DistinguishedName,
    validity: &Validity,
    subject: &DistinguishedName,
    public_key: &PublicKey,
    extensions: &[Extension],
) -> Vec<u8> {
    writer::encode(|enc| {
        enc.sequence(|enc| {
            if version != 0 {
                enc.explicit(0, |enc| enc.integer_u64(version));
            }
            serial.encode(enc);
            algorithm.encode(enc);
            issuer.encode(enc);
            validity.encode(enc);
            subject.encode(enc);
            // SubjectPublicKeyInfo.
            enc.sequence(|enc| {
                algorithm.encode(enc);
                enc.bit_string(public_key.as_bytes());
            });
            encode_extensions(enc, extensions);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use certchain_asn1::Asn1Time;
    use certchain_cryptosim::KeyPair;

    fn t0() -> Asn1Time {
        Asn1Time::from_ymd_hms(2020, 9, 1, 0, 0, 0).unwrap()
    }

    fn sample() -> Certificate {
        let ca = KeyPair::derive(1, "ca");
        let leaf = KeyPair::derive(1, "leaf");
        CertificateBuilder::new()
            .serial(Serial::from_u64(42))
            .issuer(DistinguishedName::cn_o("Test CA", "Test Org"))
            .subject(DistinguishedName::cn("host.example.org"))
            .validity(Validity::days_from(t0(), 90))
            .public_key(leaf.public().clone())
            .extension(Extension::BasicConstraints(BasicConstraints {
                ca: false,
                path_len: None,
            }))
            .extension(Extension::SubjectAltName(vec!["host.example.org".into()]))
            .sign(&ca)
    }

    #[test]
    fn parse_round_trip() {
        let cert = sample();
        let parsed = Certificate::parse(cert.der()).unwrap();
        assert_eq!(parsed, cert);
        assert_eq!(parsed.fingerprint(), cert.fingerprint());
    }

    #[test]
    fn parse_keeps_and_fingerprints_the_wire_der() {
        // Re-tag the subject CN from PrintableString (0x13) to
        // UTF8String (0x0c): the same value, other bytes than the
        // builder writes.
        let cert = sample();
        let cn = b"host.example.org";
        let mut tlv = vec![0x13, cn.len() as u8];
        tlv.extend_from_slice(cn);
        let mut wire = cert.der().to_vec();
        let at = wire
            .windows(tlv.len())
            .position(|w| w == tlv.as_slice())
            .expect("the subject CN is a PrintableString");
        wire[at] = 0x0c;
        let parsed = Certificate::parse(&wire).unwrap();
        assert_eq!(parsed.subject, cert.subject);
        assert_eq!(parsed.der(), wire.as_slice());
        assert_eq!(parsed.fingerprint().0, Sha256::digest(&wire));
        assert_ne!(parsed.fingerprint(), cert.fingerprint());
    }

    #[test]
    fn fingerprint_is_sha256_of_der() {
        let cert = sample();
        assert_eq!(cert.fingerprint().0, Sha256::digest(cert.der()));
        assert_eq!(cert.fingerprint().to_hex().len(), 64);
    }

    #[test]
    fn fingerprint_hex_round_trip() {
        let cert = sample();
        let hex = cert.fingerprint().to_hex();
        assert_eq!(Fingerprint::from_hex(&hex), Some(cert.fingerprint()));
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&hex[..62]), None);
    }

    #[test]
    fn fingerprint_hex_accepts_uppercase() {
        let fp = sample().fingerprint();
        assert_eq!(Fingerprint::from_hex(&fp.to_hex().to_uppercase()), Some(fp));
    }

    #[test]
    fn fingerprint_hex_rejects_non_ascii_without_panicking() {
        // 64 bytes, but `é` is two bytes: slicing pairs of bytes as
        // `str` would split a character.
        let s = format!("a{}b", "\u{e9}".repeat(31));
        assert_eq!(s.len(), 64);
        assert_eq!(Fingerprint::from_hex(&s), None);
    }

    #[test]
    fn fingerprint_hex_rejects_signs() {
        // `u8::from_str_radix` takes `+0` as 0; a fingerprint never has a sign.
        assert_eq!(Fingerprint::from_hex(&"+0".repeat(32)), None);
        assert_eq!(Fingerprint::from_hex(&"-0".repeat(32)), None);
    }

    #[test]
    fn signature_verification() {
        let ca = KeyPair::derive(1, "ca");
        let other = KeyPair::derive(1, "other");
        let cert = sample();
        assert!(cert.verify_signed_by(ca.public()));
        assert!(!cert.verify_signed_by(other.public()));
    }

    #[test]
    fn unknown_algorithm_never_verifies() {
        let ca = KeyPair::derive(1, "ca");
        let leaf = KeyPair::derive(1, "leaf");
        let cert = CertificateBuilder::new()
            .issuer(DistinguishedName::cn("CA"))
            .subject(DistinguishedName::cn("x"))
            .validity(Validity::days_from(t0(), 10))
            .public_key(leaf.public().clone())
            .algorithm(AlgorithmId::Unknown(known::unknown_algorithm()))
            .sign(&ca);
        assert!(!cert.verify_signed_by(ca.public()));
        assert!(matches!(cert.algorithm, AlgorithmId::Unknown(_)));
        // Still parses.
        let parsed = Certificate::parse(cert.der()).unwrap();
        assert!(matches!(parsed.algorithm, AlgorithmId::Unknown(_)));
    }

    #[test]
    fn self_signed_detection_uses_dns() {
        let kp = KeyPair::derive(2, "self");
        let dn = DistinguishedName::cn("self.example");
        let cert = CertificateBuilder::new()
            .issuer(dn.clone())
            .subject(dn)
            .validity(Validity::days_from(t0(), 365))
            .public_key(kp.public().clone())
            .sign(&kp);
        assert!(cert.is_self_signed());
        assert!(!sample().is_self_signed());
    }

    #[test]
    fn accessors() {
        let cert = sample();
        assert_eq!(
            cert.basic_constraints(),
            Some(BasicConstraints {
                ca: false,
                path_len: None
            })
        );
        assert_eq!(cert.dns_names(), vec!["host.example.org"]);
        assert!(cert.scts().is_empty());
    }

    #[test]
    fn v1_certificate_omits_version_and_extensions() {
        let kp = KeyPair::derive(3, "v1");
        let dn = DistinguishedName::cn("old-school");
        let cert = CertificateBuilder::new()
            .version(0)
            .issuer(dn.clone())
            .subject(dn)
            .validity(Validity::days_from(t0(), 365))
            .public_key(kp.public().clone())
            .sign(&kp);
        assert!(cert.extensions.is_empty());
        assert!(cert.basic_constraints().is_none());
        let parsed = Certificate::parse(cert.der()).unwrap();
        assert_eq!(parsed.version, 0);
        assert_eq!(parsed, cert);
    }

    #[test]
    fn parse_rejects_truncation() {
        let cert = sample();
        let der = cert.der();
        for cut in [1, der.len() / 2, der.len() - 1] {
            assert!(Certificate::parse(&der[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        let cert = sample();
        let mut der = cert.der().to_vec();
        der.push(0x00);
        assert!(Certificate::parse(&der).is_err());
    }

    #[test]
    fn tbs_der_matches_signed_bytes() {
        let ca = KeyPair::derive(1, "ca");
        let cert = sample();
        let expected = certchain_cryptosim::sign(&ca, &cert.tbs_der());
        assert_eq!(cert.signature, expected);
    }

    #[test]
    fn distinct_serials_distinct_fingerprints() {
        let ca = KeyPair::derive(1, "ca");
        let leaf = KeyPair::derive(1, "leaf");
        let make = |serial: u64| {
            CertificateBuilder::new()
                .serial(Serial::from_u64(serial))
                .issuer(DistinguishedName::cn("CA"))
                .subject(DistinguishedName::cn("x"))
                .validity(Validity::days_from(t0(), 1))
                .public_key(leaf.public().clone())
                .sign(&ca)
        };
        assert_ne!(make(1).fingerprint(), make(2).fingerprint());
    }
}
