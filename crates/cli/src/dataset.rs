//! On-disk dataset layout shared by `generate` and `analyze`.
//!
//! ```text
//! <dir>/
//!   ssl.log            Zeek-format TLS connection log
//!   x509.log           Zeek-format certificate log
//!   colstore/          columnar store (optional; preferred when present)
//!     dataset.json          versioned manifest
//!     *.dat, ssl.*, x509.*  one file per column
//!   trust/roots/*.pem       trusted root certificates (all programs)
//!   trust/ccadb/*.pem       CCADB-listed intermediates
//!   ct/*.pem                CT-logged certificates (crt.sh-style corpus)
//!   crosssign.tsv           subject<TAB>alternate-issuer disclosure pairs
//!   sample-chain.pem        one delivered chain, for `certchain validate`
//! ```
//!
//! A dataset carries its logs as Zeek TSV, as a columnar store, or both.
//! [`detect_format`] prefers the columnar store when a manifest is
//! present (it skips the parse stage entirely); `--format` overrides.

use crate::{io_ctx, CliError, CliResult};
use certchain_chainlab::pipeline::{par_map, resolve_threads};
use certchain_chainlab::{CrossSignRegistry, Pipeline, PipelineOptions};
use certchain_ctlog::DomainIndex;
use certchain_trust::TrustDb;
use certchain_x509::{pem, Certificate, DistinguishedName};
use std::ffi::{OsStr, OsString};
use std::path::Path;
use std::sync::Arc;

/// How a dataset's log tables are stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetFormat {
    /// Zeek TSV logs (`ssl.log` / `x509.log`).
    Tsv,
    /// Columnar store under `colstore/` (`certchain-colstore/v1`).
    Columnar,
}

impl DatasetFormat {
    /// Parse a `--format` argument.
    pub fn parse(s: &str) -> CliResult<DatasetFormat> {
        match s {
            "tsv" => Ok(DatasetFormat::Tsv),
            "columnar" => Ok(DatasetFormat::Columnar),
            other => Err(CliError::Invalid(format!(
                "unknown format {other:?} (expected tsv or columnar)"
            ))),
        }
    }
}

/// The columnar store directory of a dataset.
pub fn colstore_dir(dir: &Path) -> std::path::PathBuf {
    dir.join(certchain_colstore::STORE_DIR)
}

/// Detect which log representation to analyze: the columnar store when a
/// manifest is present (no parse stage), Zeek TSV otherwise. A manifest
/// that exists but fails the schema/version check is an error spelling
/// out expected vs found — a newer- or older-format store must never
/// silently fall back to re-parsing possibly stale TSV.
pub fn detect_format(dir: &Path) -> CliResult<DatasetFormat> {
    let store = colstore_dir(dir);
    if store.join(certchain_colstore::MANIFEST_FILE).is_file() {
        certchain_colstore::Manifest::load(&store)
            .map_err(|e| CliError::Invalid(format!("{}: {e}", store.display())))?;
        return Ok(DatasetFormat::Columnar);
    }
    Ok(DatasetFormat::Tsv)
}

/// Read every `*.pem` file under `dir` (non-recursive) into certificates,
/// in file-name order, on all available cores.
pub fn read_pem_dir(dir: &Path) -> CliResult<Vec<Arc<Certificate>>> {
    Ok(parse_pem_dir(dir, 0)?.into_iter().map(Arc::new).collect())
}

/// Read, decode and parse every `*.pem` file under `dir` (non-recursive)
/// on `threads` workers (`0` = available parallelism). The certificates
/// come back in file-name order, and in block order within a file. On
/// failure the error names the first failing file in that order, so
/// neither the result nor the error depends on `threads`.
fn parse_pem_dir(dir: &Path, threads: usize) -> CliResult<Vec<Certificate>> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CliError::Io(format!("reading {}", dir.display()), e))?;
    let mut names: Vec<OsString> = entries
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .filter(|name| Path::new(name).extension() == Some(OsStr::new("pem")))
        .collect();
    names.sort_unstable();
    // Each run stops at its first failing file, so the first failed run
    // holds the first failure in file-name order.
    let runs = par_map(names, resolve_threads(threads), |names| {
        let mut certs = Vec::new();
        for name in names {
            certs.extend(read_pem_file(&dir.join(name))?);
        }
        Ok(certs)
    });
    let mut certs = Vec::new();
    for run in runs {
        certs.extend(run?);
    }
    Ok(certs)
}

/// Every certificate of one PEM file, in block order.
fn read_pem_file(path: &Path) -> CliResult<Vec<Certificate>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("reading {}", path.display()), e))?;
    let invalid = |e: &dyn std::fmt::Display| CliError::Invalid(format!("{}: {e}", path.display()));
    pem::decode_all("CERTIFICATE", &text)
        .map_err(|e| invalid(&e))?
        .iter()
        .map(|der| Certificate::parse(der).map_err(|e| invalid(&e)))
        .collect()
}

/// The reference data every analysis reads beside its logs: the trust
/// databases, the CT index and the cross-sign registry.
pub struct Corpus {
    /// `<dir>/trust/`.
    pub trust: TrustDb,
    /// `<dir>/ct/`.
    pub ct: DomainIndex,
    /// `<dir>/crosssign.tsv`.
    pub crosssign: CrossSignRegistry,
}

impl Corpus {
    /// Load a dataset's corpus, parsing its PEM files on `threads`
    /// workers (`0` = available parallelism). The corpus, and the error
    /// if one file is bad, are the same for every thread count.
    pub fn load(dir: &Path, threads: usize) -> CliResult<Corpus> {
        Ok(Corpus {
            trust: load_trust_with(dir, threads)?,
            ct: load_ct_index_with(dir, threads)?,
            crosssign: CrossSignRegistry::from_disclosures(&load_crosssign(dir)?),
        })
    }

    /// A pipeline over this corpus.
    pub fn pipeline(&self, options: PipelineOptions) -> Pipeline<'_> {
        Pipeline::with_options(&self.trust, &self.ct, self.crosssign.clone(), options)
    }
}

/// Load the trust databases from `<dir>/trust/` on all available cores.
pub fn load_trust(dir: &Path) -> CliResult<TrustDb> {
    load_trust_with(dir, 0)
}

/// [`load_trust`] on `threads` workers (`0` = available parallelism).
pub fn load_trust_with(dir: &Path, threads: usize) -> CliResult<TrustDb> {
    let mut trust = TrustDb::new();
    let roots_dir = dir.join("trust/roots");
    for root in parse_pem_dir(&roots_dir, threads)? {
        trust.add_root_everywhere(Arc::new(root));
    }
    let ccadb_dir = dir.join("trust/ccadb");
    if ccadb_dir.is_dir() {
        // Intermediates may chain through each other; insert in passes so
        // order on disk does not matter.
        let mut pending: Vec<_> = parse_pem_dir(&ccadb_dir, threads)?
            .into_iter()
            .map(Arc::new)
            .collect();
        loop {
            let before = pending.len();
            pending.retain(|cert| {
                trust
                    .try_add_ccadb_intermediate(Arc::clone(cert), false, true)
                    .is_err()
            });
            if pending.is_empty() || pending.len() == before {
                break;
            }
        }
        if !pending.is_empty() {
            return Err(CliError::Invalid(format!(
                "{} CCADB intermediate(s) do not chain to any loaded root",
                pending.len()
            )));
        }
    }
    Ok(trust)
}

/// Load the CT corpus from `<dir>/ct/` into a crt.sh-style index, on all
/// available cores.
pub fn load_ct_index(dir: &Path) -> CliResult<DomainIndex> {
    load_ct_index_with(dir, 0)
}

/// [`load_ct_index`] on `threads` workers (`0` = available parallelism).
/// The files are parsed in parallel and indexed in file-name order; each
/// certificate is freed once indexed.
pub fn load_ct_index_with(dir: &Path, threads: usize) -> CliResult<DomainIndex> {
    let mut index = DomainIndex::new();
    let ct_dir = dir.join("ct");
    if ct_dir.is_dir() {
        for cert in parse_pem_dir(&ct_dir, threads)? {
            index.add(&cert);
        }
    }
    Ok(index)
}

/// Load cross-signing disclosures from `<dir>/crosssign.tsv`.
pub fn load_crosssign(dir: &Path) -> CliResult<Vec<(DistinguishedName, DistinguishedName)>> {
    let path = dir.join("crosssign.tsv");
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text =
        std::fs::read_to_string(&path).map_err(io_ctx(format!("reading {}", path.display())))?;
    let mut pairs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (subject, issuer) = line.split_once('\t').ok_or_else(|| {
            CliError::Invalid(format!("crosssign.tsv line {}: missing tab", lineno + 1))
        })?;
        let parse = |s: &str| {
            DistinguishedName::parse_rfc4514(s).ok_or_else(|| {
                CliError::Invalid(format!("crosssign.tsv line {}: bad DN {s:?}", lineno + 1))
            })
        };
        pairs.push((parse(subject)?, parse(issuer)?));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certchain_asn1::Asn1Time;
    use certchain_cryptosim::KeyPair;
    use certchain_x509::{CertificateBuilder, Validity};

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("certchain-cli-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_pem(path: &Path, cert: &Certificate) {
        std::fs::write(path, pem::encode("CERTIFICATE", cert.der())).unwrap();
    }

    #[test]
    fn pem_dir_round_trip() {
        let dir = tempdir("pemdir");
        let kp = KeyPair::derive(1, "cli:root");
        let dn = DistinguishedName::cn("CLI Root");
        let cert = CertificateBuilder::new()
            .issuer(dn.clone())
            .subject(dn)
            .validity(Validity::days_from(Asn1Time::from_unix(0), 10))
            .ca(None)
            .sign(&kp);
        write_pem(&dir.join("root.pem"), &cert);
        std::fs::write(dir.join("ignored.txt"), "not pem").unwrap();
        let certs = read_pem_dir(&dir).unwrap();
        assert_eq!(certs.len(), 1);
        assert_eq!(certs[0].fingerprint(), cert.fingerprint());
    }

    #[test]
    fn load_trust_resolves_chained_intermediates_in_any_order() {
        let dir = tempdir("trust");
        std::fs::create_dir_all(dir.join("trust/roots")).unwrap();
        std::fs::create_dir_all(dir.join("trust/ccadb")).unwrap();
        let root_kp = KeyPair::derive(2, "cli:root2");
        let root_dn = DistinguishedName::cn("CLI Root 2");
        let root = CertificateBuilder::new()
            .issuer(root_dn.clone())
            .subject(root_dn.clone())
            .validity(Validity::days_from(Asn1Time::from_unix(0), 100))
            .ca(None)
            .sign(&root_kp);
        let ica_kp = KeyPair::derive(2, "cli:ica");
        let ica_dn = DistinguishedName::cn("CLI ICA");
        let ica = CertificateBuilder::new()
            .issuer(root_dn)
            .subject(ica_dn.clone())
            .validity(Validity::days_from(Asn1Time::from_unix(0), 100))
            .public_key(ica_kp.public().clone())
            .ca(None)
            .sign(&root_kp);
        let sub_kp = KeyPair::derive(2, "cli:sub");
        let sub = CertificateBuilder::new()
            .issuer(ica_dn)
            .subject(DistinguishedName::cn("CLI Sub ICA"))
            .validity(Validity::days_from(Asn1Time::from_unix(0), 100))
            .public_key(sub_kp.public().clone())
            .ca(None)
            .sign(&ica_kp);
        write_pem(&dir.join("trust/roots/root.pem"), &root);
        // Deliberately name the deeper intermediate so it sorts FIRST.
        write_pem(&dir.join("trust/ccadb/a-sub.pem"), &sub);
        write_pem(&dir.join("trust/ccadb/b-ica.pem"), &ica);
        let trust = load_trust(&dir).unwrap();
        assert!(trust.is_listed_subject(&DistinguishedName::cn("CLI ICA")));
        assert!(trust.is_listed_subject(&DistinguishedName::cn("CLI Sub ICA")));
    }

    #[test]
    fn crosssign_tsv_parses() {
        let dir = tempdir("xsign");
        std::fs::write(
            dir.join("crosssign.tsv"),
            "# comment\nCN=ICA\tCN=Alt Root\n",
        )
        .unwrap();
        let pairs = load_crosssign(&dir).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.common_name(), Some("ICA"));
        // Missing file → empty.
        assert!(load_crosssign(&tempdir("xsign-empty")).unwrap().is_empty());
    }
}
