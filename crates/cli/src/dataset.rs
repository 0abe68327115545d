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
//!   ct.idx                  the CT index compiled from ct/ (optional)
//!   crosssign.tsv           subject<TAB>alternate-issuer disclosure pairs
//!   sample-chain.pem        one delivered chain, for `certchain validate`
//! ```
//!
//! A dataset carries its logs as Zeek TSV, as a columnar store, or both.
//! [`detect_format`] prefers the columnar store when a manifest is
//! present (it skips the parse stage entirely); `--format` overrides.
//!
//! `ct.idx` spares every load the parse of `ct/`. [`compile_ct_table`]
//! compiles it from the PEM files when it is missing or stale: `generate`
//! runs it after writing `ct/`, and `convert` after the store. Its
//! layout, little-endian:
//!
//! ```text
//! "certchain-ct-idx"  magic
//! u32                 table version
//! u32 files, each:    u32 name length, name bytes, u64 byte size
//!                     (every ct/*.pem the index was compiled from, in
//!                     name order)
//! ...                 the index (`DomainIndex::encode`)
//! [u8; 32]            SHA-256 of everything before it
//! ```
//!
//! Its bytes depend only on the PEM files' names and contents. A load
//! ([`load_ct`]) reads it only while it is fresh: the sorted `*.pem`
//! names and sizes in `ct/` are the ones it lists, and every one of those
//! files was last modified strictly before the table was. So the check
//! costs one `stat` per PEM file, not a read. Otherwise the load parses
//! the PEM files as if there were no table, and names the reason in one
//! notice line. As with make and git, the rule trusts modification times:
//! an edit that keeps a file's size and sets its mtime back before the
//! table's is not seen: delete the table after one.
//!
//! The table is only a cache. A compile that cannot keep it fresh (a PEM
//! file dated in the future, say) removes it and says so in a notice, and
//! the dataset then loads from the PEM files as if it had never had one.

use crate::{io_ctx, CliError, CliResult};
use certchain_chainlab::pipeline::{par_map, resolve_threads};
use certchain_chainlab::{CrossSignRegistry, Pipeline, PipelineOptions};
use certchain_cryptosim::Sha256;
use certchain_ctlog::index::DecodeError;
use certchain_ctlog::DomainIndex;
use certchain_trust::TrustDb;
use certchain_x509::{pem, Certificate, DistinguishedName};
use std::ffi::{OsStr, OsString};
use std::fmt;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

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
    Ok(parse_pem_files(dir, threads)?
        .into_iter()
        .flat_map(|file| file.certs)
        .collect())
}

/// One parsed PEM file.
struct PemFile {
    name: OsString,
    /// Its byte size as read.
    size: u64,
    /// Its certificates, in block order.
    certs: Vec<Certificate>,
}

/// [`parse_pem_dir`], file by file, in file-name order.
fn parse_pem_files(dir: &Path, threads: usize) -> CliResult<Vec<PemFile>> {
    let names = pem_names(dir).map_err(io_ctx(format!("reading {}", dir.display())))?;
    // Each run stops at its first failing file, so the first failed run
    // holds the first failure in file-name order.
    let runs = par_map(names, resolve_threads(threads), |names| {
        names
            .into_iter()
            .map(|name| read_pem_file(dir, name))
            .collect::<CliResult<Vec<_>>>()
    });
    let mut files = Vec::new();
    for run in runs {
        files.extend(run?);
    }
    Ok(files)
}

/// The names of the `*.pem` files directly under `dir`, sorted.
fn pem_names(dir: &Path) -> std::io::Result<Vec<OsString>> {
    let mut names: Vec<OsString> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .filter(|name| Path::new(name).extension() == Some(OsStr::new("pem")))
        .collect();
    names.sort_unstable();
    Ok(names)
}

/// Every certificate of one PEM file, in block order.
fn read_pem_file(dir: &Path, name: OsString) -> CliResult<PemFile> {
    let path = dir.join(&name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError::Io(format!("reading {}", path.display()), e))?;
    let invalid = |e: &dyn std::fmt::Display| CliError::Invalid(format!("{}: {e}", path.display()));
    let certs = pem::decode_all("CERTIFICATE", &text)
        .map_err(|e| invalid(&e))?
        .iter()
        .map(|der| Certificate::parse(der).map_err(|e| invalid(&e)))
        .collect::<CliResult<_>>()?;
    Ok(PemFile {
        name,
        size: text.len() as u64,
        certs,
    })
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

/// [`load_ct_index`] on `threads` workers (`0` = available parallelism):
/// [`load_ct`], with its notice, if any, printed on stderr.
pub fn load_ct_index_with(dir: &Path, threads: usize) -> CliResult<DomainIndex> {
    let load = load_ct(dir, threads);
    if let Some(notice) = &load.notice {
        eprintln!("{notice}");
    }
    load.index
}

/// The compiled CT index beside `ct/` (module doc).
pub const CT_TABLE: &str = "ct.idx";

/// What a [`CT_TABLE`] begins with.
const TABLE_MAGIC: &[u8; 16] = b"certchain-ct-idx";

/// The [`CT_TABLE`] layout this build writes and reads, the encoded
/// index's (`DomainIndex::encode`) included: a change to either bumps it.
const TABLE_VERSION: u32 = 1;

/// The table's trailing SHA-256.
const DIGEST_BYTES: usize = 32;

/// How many times [`write_ct_table`] writes the table while its own
/// check finds a PEM file as new as it, waiting twice as long after each
/// try from [`FIRST_WAIT`]: about 2.5 s in all, longer than the 2 s
/// timestamp tick of the coarsest common filesystem (FAT).
const WRITE_ATTEMPTS: u32 = 10;
const FIRST_WAIT: Duration = Duration::from_millis(5);

/// A CT index and how [`load_ct`] came by it.
#[derive(Debug)]
pub struct CtLoad {
    /// The index, or the error that names the first bad PEM file.
    pub index: CliResult<DomainIndex>,
    /// Whether it was decoded from a fresh [`CT_TABLE`]; otherwise the
    /// PEM files were parsed.
    pub from_table: bool,
    /// Why a [`CT_TABLE`] that exists was not read: the one line
    /// [`load_ct_index_with`] prints on stderr.
    pub notice: Option<String>,
}

/// Load `<dir>/ct/` into a crt.sh-style index on `threads` workers (`0` =
/// available parallelism), from `<dir>/ct.idx` while it is fresh (module
/// doc), else by parsing the PEM files: in parallel, indexed in file-name
/// order, each certificate freed once indexed. The index, and the error
/// if a PEM file is bad, are the same on either path and at every thread
/// count; a stale table's notice comes with either. A dataset without
/// `ct/` has an empty index.
pub fn load_ct(dir: &Path, threads: usize) -> CtLoad {
    let ct_dir = dir.join("ct");
    if !ct_dir.is_dir() {
        return CtLoad {
            index: Ok(DomainIndex::new()),
            from_table: false,
            notice: None,
        };
    }
    let stale = match fresh_table(dir, threads) {
        Ok(None) => None,
        Ok(Some(table)) => match DomainIndex::decode(table.index()) {
            Ok(index) => {
                return CtLoad {
                    index: Ok(index),
                    from_table: true,
                    notice: None,
                }
            }
            Err(e) => Some(Stale::Index(e)),
        },
        Err(stale) => Some(stale),
    };
    CtLoad {
        index: compile_ct(&ct_dir, threads).map(|(index, _)| index),
        from_table: false,
        notice: stale.map(|stale| stale.notice(dir)),
    }
}

/// Compile `<dir>/ct.idx` from the PEM files in `<dir>/ct/` unless a
/// fresh one is there, which is then not even decoded: what `generate`
/// and `convert` run. A dataset without `ct/` gets no table, and one
/// whose PEM files do not parse keeps the table it has. Returns one line
/// per notice and one for a table compiled.
pub fn compile_ct_table(dir: &Path, threads: usize) -> CliResult<String> {
    let ct_dir = dir.join("ct");
    if !ct_dir.is_dir() {
        return Ok(String::new());
    }
    let mut notices = match fresh_table(dir, threads) {
        Ok(Some(_)) => return Ok(String::new()),
        Ok(None) => String::new(),
        Err(stale) => stale.notice(dir) + "\n",
    };
    match compile_ct(&ct_dir, threads) {
        Ok((index, listing)) => notices.push_str(&write_ct_table(dir, &listing, &index, threads)?),
        Err(e) => notices.push_str(&format!(
            "notice: {e}; {} not compiled\n",
            dir.join(CT_TABLE).display()
        )),
    }
    Ok(notices)
}

/// Parse every PEM file in `ct_dir` into an index, in file-name order,
/// and list the files: what a table compiled from them records.
fn compile_ct(ct_dir: &Path, threads: usize) -> CliResult<(DomainIndex, Vec<(OsString, u64)>)> {
    let mut index = DomainIndex::new();
    let mut listing = Vec::new();
    for file in parse_pem_files(ct_dir, threads)? {
        for cert in &file.certs {
            index.add(cert);
        }
        listing.push((file.name, file.size));
    }
    Ok((index, listing))
}

/// Write `<dir>/ct.idx` for `index`, compiled from the `ct/` files
/// `listing` names (name and byte size, in name order). The table is
/// written under a temporary name and renamed in, and is then checked as
/// a load would check it, with `threads` workers for the `stat`s. A PEM
/// file written in the same timestamp tick as the table makes that check
/// fail; the table is then written again once the clock has moved on.
/// Its modification time is never set by hand. A table still rejected
/// after the last try is removed, since every load would only read it to
/// parse the PEM files anyway. Returns the line that says which happened.
fn write_ct_table(
    dir: &Path,
    listing: &[(OsString, u64)],
    index: &DomainIndex,
    threads: usize,
) -> CliResult<String> {
    let bytes = encode_table(listing, index);
    let path = dir.join(CT_TABLE);
    let tmp = dir.join("ct.idx.tmp");
    let (mut attempt, mut wait) = (1, FIRST_WAIT);
    let why = loop {
        std::fs::write(&tmp, &bytes).map_err(io_ctx(format!("writing {}", tmp.display())))?;
        std::fs::rename(&tmp, &path).map_err(io_ctx(format!("installing {}", path.display())))?;
        match fresh_table(dir, threads) {
            Ok(Some(_)) => {
                return Ok(format!(
                    "compiled {} from {} PEM files\n",
                    path.display(),
                    listing.len()
                ))
            }
            Err(Stale::Modified) if attempt < WRITE_ATTEMPTS => {
                std::thread::sleep(wait);
                (attempt, wait) = (attempt + 1, wait * 2);
            }
            Ok(None) => break "missing".to_string(),
            Err(stale) => break stale.to_string(),
        }
    };
    remove_ct_table(dir)?;
    Ok(format!(
        "notice: {}: {why}, right after it was written; removed it\n",
        path.display()
    ))
}

/// Remove `<dir>/ct.idx`, if there is one.
pub(crate) fn remove_ct_table(dir: &Path) -> CliResult<()> {
    let path = dir.join(CT_TABLE);
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(CliError::Io(format!("removing {}", path.display()), e))
        }
        _ => Ok(()),
    }
}

/// The bytes of a table (module doc).
fn encode_table(listing: &[(OsString, u64)], index: &DomainIndex) -> Vec<u8> {
    let len_u32 = |n: usize| u32::try_from(n).expect("fewer than 2^32 files and name bytes");
    let mut out = TABLE_MAGIC.to_vec();
    out.extend_from_slice(&TABLE_VERSION.to_le_bytes());
    out.extend_from_slice(&len_u32(listing.len()).to_le_bytes());
    for (name, size) in listing {
        let name = name.as_encoded_bytes();
        out.extend_from_slice(&len_u32(name.len()).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&size.to_le_bytes());
    }
    out.extend_from_slice(&index.encode());
    let digest = Sha256::digest(&out);
    out.extend_from_slice(&digest);
    out
}

/// Why a table was not read. The reasons are checked in a fixed order,
/// so a dataset always gives the same one, whatever the thread count.
#[derive(Debug)]
enum Stale {
    /// It exists but could not be opened, stat'ed or read.
    Unreadable(std::io::Error),
    /// Bad magic, a digest mismatch, or a listing that does not parse.
    Corrupt,
    /// A table layout this build does not know.
    Version(u32),
    /// A sound table whose index does not decode.
    Index(DecodeError),
    /// `ct/` lists other `*.pem` names or sizes than the table.
    Listing,
    /// A listed file was modified no earlier than the table.
    Modified,
}

impl fmt::Display for Stale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stale::Unreadable(e) => write!(f, "unreadable: {e}"),
            Stale::Corrupt => f.write_str("corrupt"),
            Stale::Version(v) => write!(f, "unknown table version {v}"),
            Stale::Index(e) => write!(f, "{e}"),
            Stale::Listing => f.write_str("ct/ holds other *.pem files than it was compiled from"),
            Stale::Modified => f.write_str("a file in ct/ was modified after it was compiled"),
        }
    }
}

impl Stale {
    /// The one-line notice a load prints for it.
    fn notice(&self, dir: &Path) -> String {
        format!(
            "notice: {}: {self}; parsing {} instead",
            dir.join(CT_TABLE).display(),
            dir.join("ct").display()
        )
    }
}

/// A table read whole, its digest checked.
struct Table {
    bytes: Vec<u8>,
    /// Where the encoded index begins.
    index_at: usize,
}

impl Table {
    /// The encoded index.
    fn index(&self) -> &[u8] {
        &self.bytes[self.index_at..self.bytes.len() - DIGEST_BYTES]
    }
}

/// `<dir>/ct.idx` if it is fresh (module doc), `None` if there is none,
/// or why it is stale. Reads the table and `stat`s each PEM file (on
/// `threads` workers), and reads no PEM file.
fn fresh_table(dir: &Path, threads: usize) -> Result<Option<Table>, Stale> {
    let mut file = match std::fs::File::open(dir.join(CT_TABLE)) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Stale::Unreadable(e)),
    };
    let compiled = file
        .metadata()
        .and_then(|meta| meta.modified())
        .map_err(Stale::Unreadable)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(Stale::Unreadable)?;
    let (listing, index_at) = parse_table(&bytes)?;

    let ct_dir = dir.join("ct");
    let names = pem_names(&ct_dir).map_err(Stale::Unreadable)?;
    if names.len() != listing.len()
        || names
            .iter()
            .zip(&listing)
            .any(|(name, (listed, _))| name.as_encoded_bytes() != *listed)
    {
        return Err(Stale::Listing);
    }
    let stats = par_map(names, resolve_threads(threads), |names| {
        names
            .iter()
            .map(|name| {
                let meta = std::fs::metadata(ct_dir.join(name)).ok()?;
                Some((meta.len(), meta.modified().ok()?))
            })
            .collect::<Vec<Option<(u64, SystemTime)>>>()
    })
    .concat();
    let mut modified = false;
    for (stat, (_, size)) in stats.iter().zip(&listing) {
        match stat {
            Some((len, mtime)) if len == size => modified |= *mtime >= compiled,
            _ => return Err(Stale::Listing),
        }
    }
    if modified {
        return Err(Stale::Modified);
    }
    Ok(Some(Table { bytes, index_at }))
}

/// A file as a table lists it: its name's bytes and its byte size.
type Listed<'a> = (&'a [u8], u64);

/// Check a table's magic, version and digest and parse its listing:
/// each file's name bytes and size, and where the index begins.
fn parse_table(bytes: &[u8]) -> Result<(Vec<Listed<'_>>, usize), Stale> {
    let head = TABLE_MAGIC.len() + 4;
    if bytes.len() < head + 4 + DIGEST_BYTES || &bytes[..TABLE_MAGIC.len()] != TABLE_MAGIC {
        return Err(Stale::Corrupt);
    }
    let version = u32::from_le_bytes(bytes[TABLE_MAGIC.len()..head].try_into().expect("4 bytes"));
    if version != TABLE_VERSION {
        return Err(Stale::Version(version));
    }
    let (body, digest) = bytes.split_at(bytes.len() - DIGEST_BYTES);
    if Sha256::digest(body) != digest {
        return Err(Stale::Corrupt);
    }
    let mut rest = &body[head..];
    let mut take = |n: usize| -> Result<&[u8], Stale> {
        if n > rest.len() {
            return Err(Stale::Corrupt);
        }
        let (taken, left) = rest.split_at(n);
        rest = left;
        Ok(taken)
    };
    let u32_at = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize;
    let count = u32_at(take(4)?);
    let mut listing = Vec::new();
    for _ in 0..count {
        let name = take(4).map(u32_at).and_then(&mut take)?;
        let size = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
        listing.push((name, size));
    }
    Ok((listing, bytes.len() - DIGEST_BYTES - rest.len()))
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
