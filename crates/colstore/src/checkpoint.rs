//! Generation-based checkpoint directories: crash-safe persistence for
//! resumable accumulator state.
//!
//! A checkpoint root holds numbered generation directories:
//!
//! ```text
//! checkpoint/
//!   gen-000001/
//!     checkpoint.json    manifest: schema, generation, file sizes and
//!                        SHA-256 digests, meta
//!     <field files>      the serialized state
//!   gen-000002/
//!     ...
//! ```
//!
//! The container applies the same discipline as the columnar store's
//! [`crate::DatasetWriter`]: every data file is written (or carried over
//! from the previous generation) *before* the manifest, and the manifest
//! records each file's exact byte length and SHA-256. A writer that dies
//! mid-way leaves a directory without a valid manifest — never a
//! manifest pointing at incomplete data — and the loader skips such
//! directories, falling back to the newest generation whose manifest
//! exists and whose files all have exactly the recorded sizes. Reading a
//! field checks its digest, so a byte changed in place is an error, not a
//! different state.
//!
//! Growth stays O(new data) for files that never change once written: a
//! new generation *carries* them from its predecessor via hard links
//! (same filesystem by construction; silent copy fallback otherwise),
//! with the digest the predecessor recorded, so only genuinely new bytes
//! are written and hashed.
//!
//! Manifests of the first schema, `certchain-checkpoint/v1`, record sizes
//! only; they still open, and their files read without a digest check.
//!
//! The container is generic: it stores named byte blobs plus a caller
//! metadata object. What the fields *mean* is the caller's business
//! (`certchain-chainlab` encodes its `PipelineState` through this).

use crate::{io_ctx, ColError, ColResult};
use certchain_obs::json::{self, JsonValue};
use certchain_obs::trace::Span;
use certchain_x509::sha256::{hex, Sha256};
use certchain_x509::Fingerprint;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every checkpoint manifest.
pub const CHECKPOINT_SCHEMA: &str = "certchain-checkpoint/v2";

/// The schema of manifests that record no digests, which still load.
const CHECKPOINT_SCHEMA_V1: &str = "certchain-checkpoint/v1";

/// Manifest file name inside a generation directory — written last.
pub const CHECKPOINT_MANIFEST_FILE: &str = "checkpoint.json";

/// The buffer a field is copied or hashed through.
const COPY_BUFFER: usize = 64 * 1024;

/// Generation directory name for generation `n`.
fn gen_dir_name(generation: u64) -> String {
    format!("gen-{generation:06}")
}

/// Parse a generation number back out of a directory name.
fn parse_gen_dir(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("gen-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// List the generation numbers present under `root` (any validity),
/// ascending. A missing root is an empty list, not an error.
fn list_generations(root: &Path) -> ColResult<Vec<u64>> {
    let mut gens = Vec::new();
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(gens),
        Err(e) => return Err(ColError::Io(format!("reading {}", root.display()), e)),
    };
    for entry in entries {
        let entry = entry.map_err(io_ctx(format!("reading {}", root.display())))?;
        if let Some(gen) = entry.file_name().to_str().and_then(parse_gen_dir) {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// One field file as a manifest records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldFile {
    /// Its exact byte length.
    pub bytes: u64,
    /// Its SHA-256; `None` in a `certchain-checkpoint/v1` generation.
    pub sha256: Option<[u8; 32]>,
}

/// An in-progress checkpoint generation. Field files accumulate first;
/// [`CheckpointWriter::commit`] writes the manifest last, which is the
/// single action that makes the generation loadable.
pub struct CheckpointWriter {
    dir: PathBuf,
    generation: u64,
    files: BTreeMap<String, FieldFile>,
    meta: Vec<(String, JsonValue)>,
    trace: Option<Span>,
    carried: Carried,
    /// Bytes of the field files written fresh.
    written: u64,
}

/// What [`CheckpointWriter::carry_field`] has carried so far: the commit
/// traces it as one event, whatever the number of files.
#[derive(Debug, Default)]
struct Carried {
    files: u64,
    bytes: u64,
    copied: u64,
}

impl CheckpointWriter {
    /// Start generation `generation` under `root`, creating the root as
    /// needed. Errors if that generation's directory already exists —
    /// pick a fresh number with [`Checkpoint::next_generation`].
    pub fn begin(root: &Path, generation: u64) -> ColResult<CheckpointWriter> {
        std::fs::create_dir_all(root).map_err(io_ctx(format!("creating {}", root.display())))?;
        let dir = root.join(gen_dir_name(generation));
        std::fs::create_dir(&dir).map_err(io_ctx(format!("creating {}", dir.display())))?;
        Ok(CheckpointWriter {
            dir,
            generation,
            files: BTreeMap::new(),
            meta: Vec::new(),
            trace: None,
            carried: Carried::default(),
            written: 0,
        })
    }

    /// Attach a trace span: each field write and the manifest commit
    /// then emit a phase event (file name, bytes, fsync) on it, and the
    /// commit one `checkpoint.carry` event for all carried files (count,
    /// bytes, and how many were hard-linked or copied) and a
    /// `written_bytes` attribute (the field files written fresh and the
    /// manifest). The span ends when the writer commits or is dropped,
    /// so an aborted generation still closes its span.
    pub fn attach_trace(&mut self, span: Span) {
        self.trace = Some(span);
    }

    /// Write one field file.
    pub fn write_field(&mut self, name: &str, bytes: &[u8]) -> ColResult<()> {
        let mut field = self.field(name)?;
        field.append(bytes)?;
        field.finish().map(drop)
    }

    /// Start a field file that is written in pieces
    /// ([`FieldWriter::append`], [`FieldReader::copy_section`]) and
    /// hashed as it goes; [`FieldWriter::finish`] syncs and records it.
    pub fn field(&mut self, name: &str) -> ColResult<FieldWriter<'_>> {
        check_field_name(name)?;
        let path = self.dir.join(name);
        let file =
            std::fs::File::create(&path).map_err(io_ctx(format!("creating {}", path.display())))?;
        Ok(FieldWriter {
            name: name.to_string(),
            path,
            file,
            sha: Sha256::new(),
            bytes: 0,
            writer: self,
        })
    }

    /// Carry an unchanged field file over from a previous generation
    /// without rewriting its bytes: hard-link when the filesystem allows
    /// it, copy otherwise. `recorded` is what the previous generation
    /// knows of the file, its digest included, which this manifest
    /// records again. The source must be exactly that many bytes — a
    /// mismatch means the previous generation is not what the caller
    /// thinks it is, and is reported as truncation rather than silently
    /// propagated.
    pub fn carry_field(&mut self, name: &str, from: &Path, recorded: FieldFile) -> ColResult<()> {
        check_field_name(name)?;
        let found = std::fs::metadata(from)
            .map_err(io_ctx(format!("stat {}", from.display())))?
            .len();
        if found != recorded.bytes {
            return Err(ColError::Truncated {
                file: from.display().to_string(),
                expected: recorded.bytes,
                found,
            });
        }
        let to = self.dir.join(name);
        let linked = std::fs::hard_link(from, &to).is_ok();
        if !linked {
            std::fs::copy(from, &to).map_err(io_ctx(format!(
                "carrying {} to {}",
                from.display(),
                to.display()
            )))?;
        }
        self.carried.files += 1;
        self.carried.bytes += recorded.bytes;
        self.carried.copied += u64::from(!linked);
        self.files.insert(name.to_string(), recorded);
        Ok(())
    }

    /// Attach one caller-defined metadata entry (stored under `"meta"`
    /// in the manifest, returned verbatim by the loader).
    pub fn set_meta(&mut self, key: &str, value: JsonValue) {
        self.meta.push((key.to_string(), value));
    }

    /// Write the manifest and seal the generation. Until this returns,
    /// the generation is invisible to [`Checkpoint::load_latest`].
    pub fn commit(self) -> ColResult<Checkpoint> {
        let c = &self.carried;
        if let Some(t) = self.trace.as_ref().filter(|_| c.files > 0) {
            t.event(
                "checkpoint.carry",
                &[
                    ("files", c.files.to_string()),
                    ("bytes", c.bytes.to_string()),
                    ("hardlinked", (c.files - c.copied).to_string()),
                    ("copied", c.copied.to_string()),
                ],
            );
        }
        let files_json = self
            .files
            .iter()
            .map(|(name, file)| {
                let mut entry = vec![("bytes".to_string(), JsonValue::Num(file.bytes as f64))];
                if let Some(digest) = &file.sha256 {
                    entry.push(("sha256".to_string(), JsonValue::Str(hex(digest))));
                }
                (name.clone(), JsonValue::Obj(entry))
            })
            .collect();
        let doc = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Str(CHECKPOINT_SCHEMA.into())),
            ("generation".into(), JsonValue::Num(self.generation as f64)),
            ("files".into(), JsonValue::Obj(files_json)),
            ("meta".into(), JsonValue::Obj(self.meta.clone())),
        ]);
        let path = self.dir.join(CHECKPOINT_MANIFEST_FILE);
        let text = doc.to_pretty() + "\n";
        let mut file =
            std::fs::File::create(&path).map_err(io_ctx(format!("creating {}", path.display())))?;
        file.write_all(text.as_bytes())
            .map_err(io_ctx(format!("writing {}", path.display())))?;
        file.sync_all()
            .map_err(io_ctx(format!("syncing {}", path.display())))?;
        if let Some(t) = &self.trace {
            t.event(
                "checkpoint.manifest",
                &[
                    ("generation", self.generation.to_string()),
                    ("bytes", text.len().to_string()),
                    ("phase", "fsync".to_string()),
                ],
            );
            t.attr(
                "written_bytes",
                (self.written + text.len() as u64).to_string(),
            );
        }
        Ok(Checkpoint {
            dir: self.dir,
            generation: self.generation,
            files: self.files,
            meta: JsonValue::Obj(self.meta),
        })
    }

    /// The generation directory (for tests and diagnostics).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// A field file being written: every byte appended is hashed, and
/// [`FieldWriter::finish`] fsyncs the file and records its size and
/// digest with the generation. A field never finished is not in the
/// manifest.
pub struct FieldWriter<'w> {
    writer: &'w mut CheckpointWriter,
    name: String,
    path: PathBuf,
    file: std::fs::File,
    sha: Sha256,
    bytes: u64,
}

impl FieldWriter<'_> {
    /// Append `bytes` to the field.
    pub fn append(&mut self, bytes: &[u8]) -> ColResult<()> {
        self.file
            .write_all(bytes)
            .map_err(io_ctx(format!("writing {}", self.path.display())))?;
        self.sha.update(bytes);
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Sync the field and record it: its size and digest go into the
    /// manifest. Returns them.
    pub fn finish(self) -> ColResult<FieldFile> {
        self.file
            .sync_all()
            .map_err(io_ctx(format!("syncing {}", self.path.display())))?;
        let writer = self.writer;
        if let Some(t) = &writer.trace {
            t.event(
                "checkpoint.field",
                &[
                    ("file", self.name.clone()),
                    ("bytes", self.bytes.to_string()),
                    ("phase", "fsync".to_string()),
                ],
            );
        }
        let recorded = FieldFile {
            bytes: self.bytes,
            sha256: Some(self.sha.finalize()),
        };
        writer.written += self.bytes;
        writer.files.insert(self.name, recorded);
        Ok(recorded)
    }
}

/// A field file read front to back, section by section, and hashed as
/// it goes: [`FieldReader::finish`] reads what is left and checks the
/// digest, so a caller decodes a section before the whole file is
/// vouched for and must discard what it decoded on an error.
pub struct FieldReader {
    path: PathBuf,
    file: std::fs::File,
    sha: Sha256,
    left: u64,
    recorded: FieldFile,
}

impl FieldReader {
    /// Open the field file at `path`, which must have the recorded size.
    pub fn open(path: &Path, recorded: FieldFile) -> ColResult<FieldReader> {
        let file =
            std::fs::File::open(path).map_err(io_ctx(format!("reading {}", path.display())))?;
        let found = file
            .metadata()
            .map_err(io_ctx(format!("stat {}", path.display())))?
            .len();
        if found != recorded.bytes {
            return Err(ColError::Truncated {
                file: path.display().to_string(),
                expected: recorded.bytes,
                found,
            });
        }
        Ok(FieldReader {
            path: path.to_path_buf(),
            file,
            sha: Sha256::new(),
            left: recorded.bytes,
            recorded,
        })
    }

    /// The next `len` bytes of the field.
    pub fn section(&mut self, len: u64) -> ColResult<Vec<u8>> {
        let len = self.claim(len)?;
        let mut bytes = vec![0u8; len];
        self.file
            .read_exact(&mut bytes)
            .map_err(io_ctx(format!("reading {}", self.path.display())))?;
        self.sha.update(&bytes);
        Ok(bytes)
    }

    /// Copy the next `len` bytes of the field into `to`, through a
    /// fixed buffer.
    pub fn copy_section(&mut self, len: u64, to: &mut FieldWriter<'_>) -> ColResult<()> {
        let mut left = self.claim(len)?;
        let mut buf = vec![0u8; left.min(COPY_BUFFER)];
        while left > 0 {
            let chunk = &mut buf[..left.min(COPY_BUFFER)];
            self.file
                .read_exact(chunk)
                .map_err(io_ctx(format!("reading {}", self.path.display())))?;
            self.sha.update(chunk);
            to.append(chunk)?;
            left -= chunk.len();
        }
        Ok(())
    }

    /// Read the rest of the field and check it against the recorded
    /// digest, if the manifest has one. Returns the field's SHA-256.
    pub fn finish(mut self) -> ColResult<[u8; 32]> {
        let mut buf = vec![0u8; self.left.min(COPY_BUFFER as u64) as usize];
        while self.left > 0 {
            let chunk = &mut buf[..self.left.min(COPY_BUFFER as u64) as usize];
            self.file
                .read_exact(chunk)
                .map_err(io_ctx(format!("reading {}", self.path.display())))?;
            self.sha.update(chunk);
            self.left -= chunk.len() as u64;
        }
        let found = self.sha.finalize();
        match self.recorded.sha256 {
            Some(want) if want != found => Err(ColError::Corrupt(format!(
                "{}: SHA-256 {} differs from the manifest's {}",
                self.path.display(),
                hex(&found),
                hex(&want)
            ))),
            _ => Ok(found),
        }
    }

    /// Take `len` of the bytes left, as a buffer length.
    fn claim(&mut self, len: u64) -> ColResult<usize> {
        if len > self.left {
            return Err(ColError::Corrupt(format!(
                "{}: a section of {len} bytes overruns the {} left",
                self.path.display(),
                self.left
            )));
        }
        self.left -= len;
        usize::try_from(len).map_err(|_| {
            ColError::Corrupt(format!(
                "{}: a section of {len} bytes does not fit in memory",
                self.path.display()
            ))
        })
    }
}

/// Field names are plain file names — no path separators, no dot-files,
/// and not the manifest's own name.
fn check_field_name(name: &str) -> ColResult<()> {
    let ok = !name.is_empty()
        && name != CHECKPOINT_MANIFEST_FILE
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.');
    if ok {
        Ok(())
    } else {
        Err(ColError::Format(format!(
            "invalid checkpoint field name {name:?}"
        )))
    }
}

/// A manifest's record of one file: `{"bytes": n, "sha256": hex}`, or a
/// bare size in a v1 manifest.
fn parse_field_file(name: &str, entry: &JsonValue, digested: bool) -> ColResult<FieldFile> {
    let bad = |what: &str| ColError::Format(format!("checkpoint file {name:?}: {what}"));
    if !digested {
        let bytes = entry
            .as_u64()
            .ok_or_else(|| bad("size is not an integer"))?;
        return Ok(FieldFile {
            bytes,
            sha256: None,
        });
    }
    let bytes = entry
        .get("bytes")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| bad("size is not an integer"))?;
    let digest = entry
        .get("sha256")
        .and_then(JsonValue::as_str)
        .and_then(Fingerprint::from_hex)
        .ok_or_else(|| bad("no SHA-256 of 64 hex digits"))?;
    Ok(FieldFile {
        bytes,
        sha256: Some(digest.0),
    })
}

/// A validated, loadable checkpoint generation.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    /// The generation number.
    pub generation: u64,
    /// Every field file's size and digest, keyed by field name.
    pub files: BTreeMap<String, FieldFile>,
    /// The caller metadata object stored at commit time.
    pub meta: JsonValue,
}

impl Checkpoint {
    /// Open and validate one generation directory: the manifest must
    /// parse, carry a known schema, and every listed field file must
    /// exist with exactly the recorded byte length. Any violation is an
    /// error — [`Checkpoint::load_latest`] turns it into fallback.
    /// Digests are checked when a field is read, not here.
    pub fn open(dir: &Path) -> ColResult<Checkpoint> {
        let manifest_path = dir.join(CHECKPOINT_MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(io_ctx(format!("reading {}", manifest_path.display())))?;
        let doc = json::parse(&text).map_err(|e| {
            ColError::Format(format!("{}: invalid JSON: {e}", manifest_path.display()))
        })?;
        let digested = match doc.get("schema").and_then(JsonValue::as_str) {
            Some(CHECKPOINT_SCHEMA) => true,
            Some(CHECKPOINT_SCHEMA_V1) => false,
            schema => {
                return Err(ColError::Format(format!(
                    "checkpoint schema mismatch: expected {CHECKPOINT_SCHEMA:?}, found {:?}",
                    schema.unwrap_or("<missing>")
                )))
            }
        };
        let generation = doc
            .get("generation")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| {
                ColError::Format("checkpoint manifest missing numeric \"generation\"".into())
            })?;
        let mut files = BTreeMap::new();
        let listed = doc
            .get("files")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| ColError::Format("checkpoint manifest missing \"files\"".into()))?;
        for (name, entry) in listed {
            check_field_name(name)?;
            let recorded = parse_field_file(name, entry, digested)?;
            let path = dir.join(name);
            let found = std::fs::metadata(&path)
                .map_err(io_ctx(format!("stat {}", path.display())))?
                .len();
            if found != recorded.bytes {
                return Err(ColError::Truncated {
                    file: name.clone(),
                    expected: recorded.bytes,
                    found,
                });
            }
            files.insert(name.clone(), recorded);
        }
        let meta = doc
            .get("meta")
            .cloned()
            .unwrap_or(JsonValue::Obj(Vec::new()));
        Ok(Checkpoint {
            dir: dir.to_path_buf(),
            generation,
            files,
            meta,
        })
    }

    /// Load the newest valid generation under `root`, skipping (never
    /// deleting) directories that fail validation — a crash between the
    /// field files and the manifest leaves exactly such a directory, and
    /// resumption must fall back to the last complete state behind it.
    /// `Ok(None)` means no valid generation exists (fresh start).
    pub fn load_latest(root: &Path) -> ColResult<Option<Checkpoint>> {
        let gens = list_generations(root)?;
        for gen in gens.into_iter().rev() {
            let dir = root.join(gen_dir_name(gen));
            if let Ok(ckpt) = Checkpoint::open(&dir) {
                return Ok(Some(ckpt));
            }
        }
        Ok(None)
    }

    /// The first unused generation number under `root`: one past the
    /// highest existing directory, valid or not (a crashed writer's
    /// directory must never be reused).
    pub fn next_generation(root: &Path) -> ColResult<u64> {
        Ok(list_generations(root)?.last().copied().unwrap_or(0) + 1)
    }

    /// Delete every generation directory under `root` but those numbered
    /// in `keep`, valid or not, without opening any of them. Returns the
    /// number of directories removed.
    pub fn prune(root: &Path, keep: &[u64]) -> ColResult<usize> {
        let mut removed = 0;
        for gen in list_generations(root)? {
            if !keep.contains(&gen) {
                let dir = root.join(gen_dir_name(gen));
                std::fs::remove_dir_all(&dir)
                    .map_err(io_ctx(format!("removing {}", dir.display())))?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Read one field file fully into memory, checking its digest.
    pub fn read_field(&self, name: &str) -> ColResult<Vec<u8>> {
        let mut field = self.open_field(name)?;
        let bytes = field.section(field.left)?;
        field.finish()?;
        Ok(bytes)
    }

    /// Open one field file for reading in sections.
    pub fn open_field(&self, name: &str) -> ColResult<FieldReader> {
        let recorded = self
            .files
            .get(name)
            .ok_or_else(|| ColError::Format(format!("checkpoint has no field {name:?}")))?;
        FieldReader::open(&self.dir.join(name), *recorded)
    }

    /// Absolute path of a field file, if the manifest lists it.
    pub fn field_path(&self, name: &str) -> Option<PathBuf> {
        self.files.contains_key(name).then(|| self.dir.join(name))
    }

    /// The generation directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("certchain-checkpoint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_gen(root: &Path, generation: u64, payload: &[u8]) -> Checkpoint {
        let mut w = CheckpointWriter::begin(root, generation).unwrap();
        w.write_field("data.dat", payload).unwrap();
        w.set_meta("records", JsonValue::Num(payload.len() as f64));
        w.commit().unwrap()
    }

    #[test]
    fn round_trips_fields_and_meta() {
        let root = tmp_root("round-trip");
        write_gen(&root, 1, b"hello");
        let ckpt = Checkpoint::load_latest(&root).unwrap().expect("one gen");
        assert_eq!(ckpt.generation, 1);
        assert_eq!(ckpt.read_field("data.dat").unwrap(), b"hello");
        assert_eq!(
            ckpt.files["data.dat"].sha256,
            Some(Sha256::digest(b"hello"))
        );
        assert_eq!(
            ckpt.meta.get("records").and_then(JsonValue::as_u64),
            Some(5)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn latest_valid_generation_wins() {
        let root = tmp_root("latest");
        write_gen(&root, 1, b"old");
        write_gen(&root, 2, b"new");
        let ckpt = Checkpoint::load_latest(&root).unwrap().unwrap();
        assert_eq!(ckpt.generation, 2);
        assert_eq!(ckpt.read_field("data.dat").unwrap(), b"new");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn partial_generation_without_manifest_is_rejected_and_skipped() {
        let root = tmp_root("partial");
        write_gen(&root, 1, b"complete");
        // Simulate a crash after the field files but before the
        // manifest: a writer that is never committed.
        let mut w = CheckpointWriter::begin(&root, 2).unwrap();
        w.write_field("data.dat", b"incomplete").unwrap();
        let dir = w.dir().to_path_buf();
        drop(w); // no commit — no manifest
        assert!(Checkpoint::open(&dir).is_err(), "partial gen must not open");
        let ckpt = Checkpoint::load_latest(&root).unwrap().unwrap();
        assert_eq!(ckpt.generation, 1, "fallback to last complete generation");
        assert_eq!(ckpt.read_field("data.dat").unwrap(), b"complete");
        // And the crashed directory's number is never reused.
        assert_eq!(Checkpoint::next_generation(&root).unwrap(), 3);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_field_file_is_rejected_and_skipped() {
        let root = tmp_root("truncated");
        write_gen(&root, 1, b"complete");
        let sealed = write_gen(&root, 2, b"will-be-truncated");
        let path = sealed.field_path("data.dat").unwrap();
        std::fs::write(&path, b"short").unwrap();
        let err = Checkpoint::open(sealed.dir()).unwrap_err();
        assert!(matches!(err, ColError::Truncated { .. }), "got {err}");
        let ckpt = Checkpoint::load_latest(&root).unwrap().unwrap();
        assert_eq!(ckpt.generation, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A byte changed in place keeps every size the manifest records, so
    /// the generation opens; reading the field fails on its digest.
    #[test]
    fn a_changed_byte_fails_the_digest_on_read() {
        let root = tmp_root("digest");
        let sealed = write_gen(&root, 1, b"the bytes as written");
        let path = sealed.field_path("data.dat").unwrap();
        std::fs::write(&path, b"the bytes as wrItten").unwrap();
        let ckpt = Checkpoint::load_latest(&root).unwrap().unwrap();
        let err = ckpt.read_field("data.dat").unwrap_err();
        assert!(
            matches!(&err, ColError::Corrupt(msg) if msg.contains("SHA-256")),
            "got {err}"
        );
        // Read in sections, the mismatch shows once the rest is read.
        let mut field = ckpt.open_field("data.dat").unwrap();
        assert_eq!(field.section(9).unwrap(), b"the bytes");
        assert!(field.section(100).is_err(), "a section past the end");
        assert!(ckpt.open_field("data.dat").unwrap().finish().is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A manifest of the first schema records bare sizes: it opens, and
    /// its fields read without a digest to check.
    #[test]
    fn a_v1_manifest_opens_without_digests() {
        let root = tmp_root("v1");
        let dir = root.join(gen_dir_name(1));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("data.dat"), b"old bytes").unwrap();
        std::fs::write(
            dir.join(CHECKPOINT_MANIFEST_FILE),
            "{\"schema\": \"certchain-checkpoint/v1\", \"generation\": 1, \
             \"files\": {\"data.dat\": 9}, \"meta\": {}}\n",
        )
        .unwrap();
        let ckpt = Checkpoint::load_latest(&root).unwrap().expect("a v1 gen");
        assert_eq!(ckpt.files["data.dat"].sha256, None);
        let mut field = ckpt.open_field("data.dat").unwrap();
        assert_eq!(field.section(9).unwrap(), b"old bytes");
        assert_eq!(field.finish().unwrap(), Sha256::digest(b"old bytes"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn carry_links_previous_fields_without_rewriting() {
        let root = tmp_root("carry");
        let first = write_gen(&root, 1, b"carried bytes");
        let mut w = CheckpointWriter::begin(&root, 2).unwrap();
        w.carry_field(
            "data.dat",
            &first.field_path("data.dat").unwrap(),
            first.files["data.dat"],
        )
        .unwrap();
        w.write_field("extra.dat", b"new").unwrap();
        w.commit().unwrap();
        let ckpt = Checkpoint::load_latest(&root).unwrap().unwrap();
        assert_eq!(ckpt.generation, 2);
        assert_eq!(ckpt.read_field("data.dat").unwrap(), b"carried bytes");
        assert_eq!(ckpt.read_field("extra.dat").unwrap(), b"new");
        assert_eq!(ckpt.files["data.dat"], first.files["data.dat"]);
        // Carrying with a wrong expected size is truncation, not silence.
        let mut w = CheckpointWriter::begin(&root, 3).unwrap();
        let wrong = FieldFile {
            bytes: 999,
            ..ckpt.files["data.dat"]
        };
        let err = w
            .carry_field("data.dat", &ckpt.field_path("data.dat").unwrap(), wrong)
            .unwrap_err();
        assert!(matches!(err, ColError::Truncated { .. }));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn prune_keeps_only_the_named_generations() {
        let root = tmp_root("prune");
        for gen in 1..=4 {
            write_gen(&root, gen, format!("gen {gen}").as_bytes());
        }
        // A crashed writer's directory, with no manifest, goes too.
        CheckpointWriter::begin(&root, 5).unwrap();
        let removed = Checkpoint::prune(&root, &[2, 4]).unwrap();
        assert_eq!(removed, 3);
        assert_eq!(list_generations(&root).unwrap(), vec![2, 4]);
        assert_eq!(Checkpoint::prune(&root, &[2, 4]).unwrap(), 0);
        assert_eq!(Checkpoint::prune(&root, &[4]).unwrap(), 1);
        assert_eq!(list_generations(&root).unwrap(), vec![4]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn trace_span_records_field_and_manifest_events() {
        use certchain_obs::{TraceJournal, TraceKind};
        use std::sync::Arc;
        let root = tmp_root("traced");
        let journal = Arc::new(TraceJournal::new(64));
        let first = write_gen(&root, 1, b"carried");
        let mut w = CheckpointWriter::begin(&root, 2).unwrap();
        w.attach_trace(journal.span("checkpoint.commit"));
        w.write_field("fresh.dat", b"abc").unwrap();
        w.carry_field(
            "data.dat",
            &first.field_path("data.dat").unwrap(),
            first.files["data.dat"],
        )
        .unwrap();
        w.commit().unwrap();
        let events = journal.snapshot();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"checkpoint.field"));
        assert!(names.contains(&"checkpoint.carry"));
        assert!(names.contains(&"checkpoint.manifest"));
        // The manifest event lands before the span closes (commit order).
        let manifest = events
            .iter()
            .find(|e| e.name == "checkpoint.manifest")
            .unwrap();
        let end = events
            .iter()
            .find(|e| e.kind == TraceKind::SpanEnd)
            .unwrap();
        assert!(manifest.seq < end.seq, "span must end after the manifest");
        // The span counts the bytes written fresh: the field and the
        // manifest, not the carried file.
        let manifest_bytes: u64 = manifest
            .attrs
            .iter()
            .find(|(k, _)| k == "bytes")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap();
        let written = end
            .attrs
            .iter()
            .find(|(k, _)| k == "written_bytes")
            .map(|(_, v)| v.clone());
        assert_eq!(written, Some((3 + manifest_bytes).to_string()));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_commit_traces_all_its_carries_as_one_event() {
        use certchain_obs::TraceJournal;
        use std::sync::Arc;
        let root = tmp_root("carry-event");
        let journal = Arc::new(TraceJournal::new(64));
        let mut first = CheckpointWriter::begin(&root, 1).unwrap();
        for (name, bytes) in [("a.dat", &b"aa"[..]), ("b.dat", b"bbb"), ("c.dat", b"c")] {
            first.write_field(name, bytes).unwrap();
        }
        let first = first.commit().unwrap();
        let mut w = CheckpointWriter::begin(&root, 2).unwrap();
        w.attach_trace(journal.span("checkpoint.commit"));
        for (name, &recorded) in &first.files {
            w.carry_field(name, &first.field_path(name).unwrap(), recorded)
                .unwrap();
        }
        w.write_field("fresh.dat", b"new").unwrap();
        w.commit().unwrap();
        let carries: Vec<_> = journal
            .snapshot()
            .into_iter()
            .filter(|e| e.name == "checkpoint.carry")
            .collect();
        assert_eq!(carries.len(), 1, "one carry event per commit");
        let attr = |key: &str| {
            carries[0]
                .attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(attr("files").as_deref(), Some("3"));
        assert_eq!(attr("bytes").as_deref(), Some("6"));
        let linked: u64 = attr("hardlinked").unwrap().parse().unwrap();
        let copied: u64 = attr("copied").unwrap().parse().unwrap();
        assert_eq!(linked + copied, 3);
        // A commit that carries nothing traces no carry event.
        let journal = Arc::new(TraceJournal::new(64));
        let mut w = CheckpointWriter::begin(&root, 3).unwrap();
        w.attach_trace(journal.span("checkpoint.commit"));
        w.write_field("only.dat", b"x").unwrap();
        w.commit().unwrap();
        assert!(journal
            .snapshot()
            .iter()
            .all(|e| e.name != "checkpoint.carry"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_root_loads_none() {
        let root = tmp_root("empty");
        assert!(Checkpoint::load_latest(&root).unwrap().is_none());
        assert_eq!(Checkpoint::next_generation(&root).unwrap(), 1);
    }

    #[test]
    fn field_names_are_validated() {
        let root = tmp_root("names");
        let mut w = CheckpointWriter::begin(&root, 1).unwrap();
        for bad in ["", "../evil", "a/b", ".hidden", CHECKPOINT_MANIFEST_FILE] {
            assert!(
                w.write_field(bad, b"x").is_err(),
                "{bad:?} must be rejected"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
