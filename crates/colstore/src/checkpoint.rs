//! Generation-based checkpoint directories: crash-safe persistence for
//! resumable accumulator state.
//!
//! A checkpoint root holds numbered generation directories:
//!
//! ```text
//! checkpoint/
//!   gen-000001/
//!     checkpoint.json    manifest: schema, generation, file sizes, meta
//!     <field files>      one file per serialized state field
//!   gen-000002/
//!     ...
//! ```
//!
//! The container applies the same discipline as the columnar store's
//! [`crate::DatasetWriter`]: every data file is written (or carried over
//! from the previous generation) *before* the manifest, and the manifest
//! records each file's exact byte length. A writer that dies mid-way
//! leaves a directory without a valid manifest — never a manifest
//! pointing at incomplete data — and the loader skips such directories,
//! falling back to the newest generation whose manifest exists and whose
//! files all have exactly the recorded sizes.
//!
//! Growth stays O(new data) for append-only fields: a new generation
//! *carries* unchanged files from its predecessor via hard links (same
//! filesystem by construction; silent copy fallback otherwise), so only
//! genuinely new bytes are written. Mutable aggregate fields are
//! rewritten per generation, which costs O(state), not O(history).
//!
//! The container is generic: it stores named byte blobs plus a caller
//! metadata object. What the fields *mean* is the caller's business
//! (`certchain-chainlab` encodes its `PipelineState` through this).

use crate::{io_ctx, ColError, ColResult};
use certchain_obs::json::{self, JsonValue};
use certchain_obs::trace::Span;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every checkpoint manifest.
pub const CHECKPOINT_SCHEMA: &str = "certchain-checkpoint/v1";

/// Manifest file name inside a generation directory — written last.
pub const CHECKPOINT_MANIFEST_FILE: &str = "checkpoint.json";

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

/// An in-progress checkpoint generation. Field files accumulate first;
/// [`CheckpointWriter::commit`] writes the manifest last, which is the
/// single action that makes the generation loadable.
pub struct CheckpointWriter {
    dir: PathBuf,
    generation: u64,
    files: BTreeMap<String, u64>,
    meta: Vec<(String, JsonValue)>,
    trace: Option<Span>,
    carried: Carried,
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
    /// pick a fresh number with [`next_generation`].
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
        })
    }

    /// Attach a trace span: each field write and the manifest commit
    /// then emit a phase event (file name, bytes, fsync) on it, and the
    /// commit one `checkpoint.carry` event for all carried files (count,
    /// bytes, and how many were hard-linked or copied). The span ends
    /// when the writer commits or is dropped, so an aborted generation
    /// still closes its span.
    pub fn attach_trace(&mut self, span: Span) {
        self.trace = Some(span);
    }

    /// Write one field file.
    pub fn write_field(&mut self, name: &str, bytes: &[u8]) -> ColResult<()> {
        check_field_name(name)?;
        let path = self.dir.join(name);
        let mut file =
            std::fs::File::create(&path).map_err(io_ctx(format!("creating {}", path.display())))?;
        file.write_all(bytes)
            .map_err(io_ctx(format!("writing {}", path.display())))?;
        file.sync_all()
            .map_err(io_ctx(format!("syncing {}", path.display())))?;
        if let Some(t) = &self.trace {
            t.event(
                "checkpoint.field",
                &[
                    ("file", name.to_string()),
                    ("bytes", bytes.len().to_string()),
                    ("phase", "fsync".to_string()),
                ],
            );
        }
        self.files.insert(name.to_string(), bytes.len() as u64);
        Ok(())
    }

    /// Carry an unchanged field file over from a previous generation
    /// without rewriting its bytes: hard-link when the filesystem allows
    /// it, copy otherwise. The source must be exactly `expected` bytes —
    /// a mismatch means the previous generation is not what the caller
    /// thinks it is, and is reported as truncation rather than silently
    /// propagated.
    pub fn carry_field(&mut self, name: &str, from: &Path, expected: u64) -> ColResult<()> {
        check_field_name(name)?;
        let found = std::fs::metadata(from)
            .map_err(io_ctx(format!("stat {}", from.display())))?
            .len();
        if found != expected {
            return Err(ColError::Truncated {
                file: from.display().to_string(),
                expected,
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
        self.carried.bytes += expected;
        self.carried.copied += u64::from(!linked);
        self.files.insert(name.to_string(), expected);
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
            .map(|(name, bytes)| (name.clone(), JsonValue::Num(*bytes as f64)))
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

/// A validated, loadable checkpoint generation.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    /// The generation number.
    pub generation: u64,
    /// Byte length of every field file, keyed by field name.
    pub files: BTreeMap<String, u64>,
    /// The caller metadata object stored at commit time.
    pub meta: JsonValue,
}

impl Checkpoint {
    /// Open and validate one generation directory: the manifest must
    /// parse, carry the expected schema, and every listed field file
    /// must exist with exactly the recorded byte length. Any violation
    /// is an error — [`Checkpoint::load_latest`] turns it into fallback.
    pub fn open(dir: &Path) -> ColResult<Checkpoint> {
        let manifest_path = dir.join(CHECKPOINT_MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(io_ctx(format!("reading {}", manifest_path.display())))?;
        let doc = json::parse(&text).map_err(|e| {
            ColError::Format(format!("{}: invalid JSON: {e}", manifest_path.display()))
        })?;
        let schema = doc.get("schema").and_then(JsonValue::as_str);
        if schema != Some(CHECKPOINT_SCHEMA) {
            return Err(ColError::Format(format!(
                "checkpoint schema mismatch: expected {CHECKPOINT_SCHEMA:?}, found {:?}",
                schema.unwrap_or("<missing>")
            )));
        }
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
        for (name, size) in listed {
            let expected = size.as_u64().ok_or_else(|| {
                ColError::Format(format!(
                    "checkpoint file size for {name:?} is not an integer"
                ))
            })?;
            let path = dir.join(name);
            let found = std::fs::metadata(&path)
                .map_err(io_ctx(format!("stat {}", path.display())))?
                .len();
            if found != expected {
                return Err(ColError::Truncated {
                    file: name.clone(),
                    expected,
                    found,
                });
            }
            files.insert(name.clone(), expected);
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

    /// Delete generations older than the `keep` newest *valid* ones
    /// (invalid directories in that older range go too). Returns the
    /// number of directories removed. The newest valid generation is
    /// never removed; with fewer than `keep` valid generations nothing
    /// happens.
    pub fn prune(root: &Path, keep: usize) -> ColResult<usize> {
        if keep == 0 {
            return Err(ColError::Format(
                "checkpoint prune requires keep >= 1".into(),
            ));
        }
        let gens = list_generations(root)?;
        let valid: Vec<u64> = gens
            .iter()
            .copied()
            .filter(|&gen| Checkpoint::open(&root.join(gen_dir_name(gen))).is_ok())
            .collect();
        if valid.len() <= keep {
            return Ok(0);
        }
        let cutoff = valid[valid.len() - keep];
        let mut removed = 0;
        for gen in gens {
            if gen < cutoff {
                let dir = root.join(gen_dir_name(gen));
                std::fs::remove_dir_all(&dir)
                    .map_err(io_ctx(format!("removing {}", dir.display())))?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Read one field file fully into memory.
    pub fn read_field(&self, name: &str) -> ColResult<Vec<u8>> {
        let path = self
            .field_path(name)
            .ok_or_else(|| ColError::Format(format!("checkpoint has no field {name:?}")))?;
        std::fs::read(&path).map_err(io_ctx(format!("reading {}", path.display())))
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
        // Carrying with a wrong expected size is truncation, not silence.
        let mut w = CheckpointWriter::begin(&root, 3).unwrap();
        let err = w
            .carry_field("data.dat", &ckpt.field_path("data.dat").unwrap(), 999)
            .unwrap_err();
        assert!(matches!(err, ColError::Truncated { .. }));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn prune_keeps_newest_valid_generations() {
        let root = tmp_root("prune");
        for gen in 1..=4 {
            write_gen(&root, gen, format!("gen {gen}").as_bytes());
        }
        let removed = Checkpoint::prune(&root, 2).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(list_generations(&root).unwrap(), vec![3, 4]);
        // Fewer valid generations than `keep` is a no-op.
        assert_eq!(Checkpoint::prune(&root, 2).unwrap(), 0);
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
        let manifest_seq = events
            .iter()
            .find(|e| e.name == "checkpoint.manifest")
            .map(|e| e.seq)
            .unwrap();
        let end_seq = events
            .iter()
            .find(|e| e.kind == TraceKind::SpanEnd)
            .map(|e| e.seq)
            .unwrap();
        assert!(manifest_seq < end_seq, "span must end after the manifest");
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
        for (name, &bytes) in &first.files {
            w.carry_field(name, &first.field_path(name).unwrap(), bytes)
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
