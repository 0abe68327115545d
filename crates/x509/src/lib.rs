#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! X.509 v3 certificate model over the workspace's DER layer.
//!
//! Implements the RFC 5280 structures the paper's analysis needs:
//! distinguished names (with RFC 4514 string syntax), validity periods,
//! the extensions relevant to chain building (basicConstraints, keyUsage,
//! subjectAltName, SKI/AKI, SCT list), certificate building + simulated
//! signing, DER parsing back into the model, SHA-256 fingerprints and PEM
//! armor.
//!
//! One deliberate deviation from a production library: certificates carry
//! their issuer and subject as *data* and nothing in this crate enforces
//! that chains are well-formed — producing malformed, mis-ordered and
//! mismatched chains is the whole point of the study, and the `workload`
//! crate exercises every such shape.

pub mod builder;
pub mod cert;
pub mod dn;
pub mod extensions;
pub mod pem;
pub mod serial;
pub mod validity;

pub use builder::CertificateBuilder;
pub use cert::{AlgorithmId, Certificate, Fingerprint};
pub use dn::{AttrType, DistinguishedName, Rdn};
pub use extensions::{BasicConstraints, Extension, KeyUsage};
pub use serial::Serial;
pub use validity::Validity;

/// The SHA-256 that [`Fingerprint`]s are taken with, for crates that
/// digest other bytes stored beside certificates (the checkpoint
/// manifest's file digests).
pub use certchain_cryptosim::sha256;
