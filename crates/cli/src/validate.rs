//! `certchain validate`: run both Appendix-D validators over a PEM chain
//! file, plus the browser/strict policy comparison when trust material is
//! available.

use crate::{io_ctx, CliError, CliResult};
use certchain_asn1::Asn1Time;
use certchain_netsim::{validate_chain, ValidationPolicy};
use certchain_scanner::sclient::{ScanResult, ScannedCert};
use certchain_scanner::{
    validate_issuer_subject, validate_keysig, IssuerSubjectVerdict, KeysigVerdict,
};
use certchain_trust::TrustDb;
use certchain_x509::{pem, Certificate};
use std::path::Path;
use std::sync::Arc;

/// Validate the chain in `path` (concatenated PEM certificates, leaf
/// first). `trust` enables the browser/strict comparison; `at` is the
/// evaluation time (defaults to the last certificate's notBefore).
pub fn validate(path: &Path, trust: Option<&TrustDb>, at: Option<Asn1Time>) -> CliResult<String> {
    let text =
        std::fs::read_to_string(path).map_err(io_ctx(format!("reading {}", path.display())))?;
    let blocks = pem::decode_all("CERTIFICATE", &text)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;

    let mut out = String::new();
    let mut scanned = Vec::with_capacity(blocks.len());
    let mut parsed: Vec<Option<Certificate>> = Vec::with_capacity(blocks.len());
    for (i, der) in blocks.iter().enumerate() {
        match Certificate::parse(der) {
            Ok(cert) => {
                out.push_str(&format!(
                    "[{i}] subject: {}\n    issuer:  {}\n    valid:   {} .. {}\n",
                    cert.subject, cert.issuer, cert.validity.not_before, cert.validity.not_after
                ));
                scanned.push(ScannedCert {
                    der: der.clone(),
                    issuer: cert.issuer.to_rfc4514(),
                    subject: cert.subject.to_rfc4514(),
                });
                parsed.push(Some(cert));
            }
            Err(e) => {
                out.push_str(&format!("[{i}] <unparseable certificate: {e}>\n"));
                scanned.push(ScannedCert {
                    der: der.clone(),
                    issuer: String::new(),
                    subject: String::new(),
                });
                parsed.push(None);
            }
        }
    }

    let result = ScanResult {
        domain: path.display().to_string(),
        chain: scanned,
        pem: text,
        server_idx: 0,
    };
    out.push('\n');
    out.push_str(&format!(
        "issuer-subject method : {}\n",
        describe_is(&validate_issuer_subject(&result))
    ));
    out.push_str(&format!(
        "key-signature method  : {}\n",
        describe_ks(&validate_keysig(&result))
    ));

    if let Some(trust) = trust {
        if parsed.iter().all(Option::is_some) {
            let chain: Vec<Arc<Certificate>> = parsed
                .into_iter()
                .map(|c| c.expect("checked above").into_arc())
                .collect();
            let at = at.unwrap_or(chain[0].validity.not_before);
            out.push('\n');
            for (name, policy) in [
                ("browser (path building) ", ValidationPolicy::Browser),
                (
                    "strict (presented chain)",
                    ValidationPolicy::StrictPresented,
                ),
            ] {
                match validate_chain(policy, &chain, trust, at, None) {
                    Ok(()) => out.push_str(&format!("{name}: VALID\n")),
                    Err(e) => out.push_str(&format!("{name}: REJECTED ({e})\n")),
                }
            }
        }
    }
    Ok(out)
}

/// Lint the chain in `path` against the paper's compliance observations.
pub fn lint(path: &Path, at: Option<Asn1Time>) -> CliResult<String> {
    use certchain_chainlab::{lint_chain, CertRecord, CrossSignRegistry};
    let text =
        std::fs::read_to_string(path).map_err(io_ctx(format!("reading {}", path.display())))?;
    let blocks = pem::decode_all("CERTIFICATE", &text)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
    let mut chain = Vec::with_capacity(blocks.len());
    for (i, der) in blocks.iter().enumerate() {
        let cert = Certificate::parse(der)
            .map_err(|e| CliError::Invalid(format!("certificate {i}: {e}")))?;
        chain.push(CertRecord {
            fingerprint: cert.fingerprint(),
            issuer: Arc::new(cert.issuer.clone()),
            subject: Arc::new(cert.subject.clone()),
            validity: cert.validity,
            bc_ca: cert.basic_constraints().map(|bc| bc.ca),
            san_dns: cert.dns_names().iter().map(|s| s.to_string()).collect(),
        });
    }
    let report = certchain_chainlab::matchpath::analyze(&chain, &CrossSignRegistry::new());
    // Lint against *now* by default — otherwise the expired-leaf checks
    // could never fire (a chain is always valid at its own notBefore).
    let at = at.unwrap_or_else(now);
    let findings = lint_chain(&chain, &report, at);
    if findings.is_empty() {
        return Ok("no findings\n".to_string());
    }
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{f}\n"));
    }
    Ok(out)
}

/// Current wall-clock time as an [`Asn1Time`]. The simulator never uses
/// wall time, but the CLI lints *real* chains for *today's* user — so the
/// read goes through `obs::clock`, the workspace's single sanctioned
/// wall-clock site.
fn now() -> Asn1Time {
    Asn1Time::from_unix(certchain_obs::clock::wall_unix_secs())
}

fn describe_is(v: &IssuerSubjectVerdict) -> String {
    match v {
        IssuerSubjectVerdict::Single => "single-certificate chain".into(),
        IssuerSubjectVerdict::Valid => "VALID (all issuer-subject pairs match)".into(),
        IssuerSubjectVerdict::Broken { mismatch_positions } => {
            format!("BROKEN (mismatched pairs at {mismatch_positions:?})")
        }
    }
}

fn describe_ks(v: &KeysigVerdict) -> String {
    match v {
        KeysigVerdict::Single => "single-certificate chain".into(),
        KeysigVerdict::Valid => "VALID (all signatures verify)".into(),
        KeysigVerdict::Broken { failure_positions } => {
            format!("BROKEN (signature failures at {failure_positions:?})")
        }
        KeysigVerdict::UnrecognizedKey => "UNRECOGNIZED KEY ALGORITHM".into(),
        KeysigVerdict::ParseError { position } => {
            format!("ASN.1 PARSE ERROR at certificate {position}")
        }
    }
}
