//! The `certchain` command-line tool.
//!
//! ```text
//! certchain generate --out <dir> [--profile quick|default] [--seed N] [--threads N]
//!                    [--format tsv|columnar] [--progress] [--metrics-json <path>]
//! certchain convert  --dir <dir> [--force] [--segment-rows N] [--metrics-json <path>]
//! certchain compact  --dir <dir> [--segment-rows N] [--metrics-json <path>]
//! certchain analyze  --dir <dir> [--threads N] [--json] [--format tsv|columnar]
//!                    [--filter-port N] [--filter-sni <name>]
//!                    [--filter-category <list>]
//!                    [--progress] [--metrics-json <path>] [-v]
//! certchain validate <chain.pem> [--dir <dataset dir with trust/>]
//! ```

use certchain_cli::dataset::DatasetFormat;
use certchain_cli::{analyze, compact, convert, generate, serve, validate, CliResult};
use certchain_workload::CampusProfile;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
certchain — certificate-chain structure and usage analysis

USAGE:
  certchain generate --out <dir> [--profile quick|default] [--seed N] [--threads N]
                     [--format tsv|columnar] [--progress] [--metrics-json <path>]
      Generate a synthetic campus dataset (logs + trust PEMs + CT corpus,
      and <dir>/ct.idx, the CT index every later load reads instead).
      --format columnar writes the mmap-backed columnar store instead of
      Zeek TSV logs (the store `convert` writes from those logs, category
      digests included); analyzing either yields byte-identical reports.
  certchain convert --dir <dir> [--force] [--segment-rows N]
                    [--metrics-json <path>]
      Re-encode <dir>/ssl.log + <dir>/x509.log as <dir>/colstore/, the
      segmented (v2) columnar store `analyze` then reads without a parse
      stage. Refuses to overwrite an existing store unless --force is
      given; like compact, it replaces the store only after the new one
      is complete. --segment-rows tunes the row-band size. Also compiles
      <dir>/ct.idx from <dir>/ct when it is missing or stale.
  certchain compact --dir <dir> [--segment-rows N] [--metrics-json <path>]
      Rewrite <dir>/colstore/ in the current segmented (v2) format —
      the migration path for read-only v1 stores written by older
      builds, and for v2 stores a recompaction that re-encodes every
      column with the newest codecs and recomputes the per-segment
      category digests. The original store is replaced only after the
      new one is complete.
  certchain analyze --dir <dir> [--json] [--threads N] [--format tsv|columnar]
                    [--filter-port N] [--filter-sni <name>]
                    [--filter-category <list>]
                    [--progress] [--metrics-json <path>] [-v|--verbose]
      Analyze the dataset logs against <dir>/trust and <dir>/ct; --json
      emits the machine-readable summary. The columnar store is preferred
      automatically when <dir>/colstore/dataset.json exists; --format
      forces one representation.
      --threads sets the worker-thread count (default: all cores); the
      output is identical for every value.
      --filter-port / --filter-sni / --filter-category restrict the
      analysis to matching connections (filtered rows are invisible); on
      a columnar store the filters skip whole row bands via zone maps
      and per-segment category digests. --filter-category takes a comma-
      separated list of structural chain categories out of none /
      incomplete / self_signed / public_only / non_public_only / hybrid.

  Observability (both commands; never changes the output bytes):
      --metrics-json <path>  write a certchain-metrics/v1 snapshot
      --progress             live records/sec + queue depth on stderr
      -v, --verbose          stage timings and counters on stderr (analyze)
  certchain serve --dir <dir> --spool <dir> --checkpoint <dir>
                  [--listen <addr>] [--listen-addr-file <path>]
                  [--threads N] [--drain] [--interval-ms N]
                  [--watchdog-cycles N] [--trace-capacity N]
      Watch a spool of rotated Zeek logs (ssl.<ts>.log / x509.<ts>.log),
      fold each new file into a checkpointed pipeline state, and expose
      /report, /report.json, /metrics (JSON or Prometheus via
      ?format=), /trace.json, /status, and /healthz over HTTP when
      --listen is given. A kill at any point is safe: the next run
      resumes from the last complete checkpoint and re-folds only what
      that checkpoint had not covered. --drain scans once, prints the
      report tables, and exits — over the same records those tables are
      byte-identical to `analyze` (minus its loss-accounting line).
      Watch mode rescans as soon as the spool directory changes;
      --interval-ms (default 1000, at least 50) is the longest a change
      its timestamp does not show waits, and how often an idle cycle
      completes. Rotated files must appear complete, by rename: a file
      written in place under a recognized name can be folded half-done.
      --watchdog-cycles sets how many missed intervals flip /healthz to
      503 (default 5); --trace-capacity sizes the /trace.json ring
      journal (default 1024 records, oldest evicted).
  certchain spool-split --dir <dir> --out <spool> [--parts N]
      Split <dir>/ssl.log + <dir>/x509.log into N rotated spool files
      each (default 4) for feeding `serve`.
  certchain validate <chain.pem> [--dir <dataset dir>]
      Run the issuer-subject and key-signature validators over a PEM chain;
      with --dir, also compare browser vs strict validation policies.
  certchain lint <chain.pem> [--at YYYY-MM-DD]
      Lint a PEM chain against the paper's compliance observations
      (missing basicConstraints, expired leaves, unnecessary certificates,
      staging artifacts, included roots). Defaults to linting as of now.
  certchain help
      Show this message.

  Every command rejects a flag it does not list above.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("certchain: {e}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> CliResult<String> {
    use certchain_cli::CliError;
    let Some(command) = args.first() else {
        return Err(CliError::Invalid("missing command".into()));
    };
    match command.as_str() {
        "generate" => {
            check_args(
                args,
                false,
                &[
                    "--out",
                    "--profile",
                    "--seed",
                    "--threads",
                    "--format",
                    "--metrics-json",
                ],
                &["--progress"],
            )?;
            let out = flag_value(args, "--out")?
                .ok_or_else(|| CliError::Invalid("generate requires --out <dir>".into()))?;
            let mut profile = match flag_value(args, "--profile")?.as_deref() {
                Some("quick") => CampusProfile::quick(),
                Some("default") | None => CampusProfile::default(),
                Some(other) => return Err(CliError::Invalid(format!("unknown profile {other:?}"))),
            };
            if let Some(seed) = flag_value(args, "--seed")? {
                profile.seed = seed
                    .parse()
                    .map_err(|_| CliError::Invalid(format!("bad seed {seed:?}")))?;
            }
            let opts = generate::GenerateOptions {
                threads: parse_threads(args)?,
                progress: has_flag(args, "--progress"),
                metrics_json: flag_value(args, "--metrics-json")?.map(PathBuf::from),
                format: match flag_value(args, "--format")? {
                    Some(f) => DatasetFormat::parse(&f)?,
                    None => DatasetFormat::Tsv,
                },
            };
            let summary = generate::generate_opts(&PathBuf::from(out), profile, &opts)?;
            Ok(format!("{summary}\n"))
        }
        "convert" => {
            check_args(
                args,
                false,
                &["--dir", "--segment-rows", "--metrics-json"],
                &["--force"],
            )?;
            let dir = flag_value(args, "--dir")?
                .ok_or_else(|| CliError::Invalid("convert requires --dir <dir>".into()))?;
            let opts = convert::ConvertOptions {
                metrics_json: flag_value(args, "--metrics-json")?.map(PathBuf::from),
                force: has_flag(args, "--force"),
                segment_rows: parse_u64_flag(args, "--segment-rows")?,
            };
            convert::convert_opts(&PathBuf::from(dir), &opts)
        }
        "compact" => {
            check_args(
                args,
                false,
                &["--dir", "--segment-rows", "--metrics-json"],
                &[],
            )?;
            let dir = flag_value(args, "--dir")?
                .ok_or_else(|| CliError::Invalid("compact requires --dir <dir>".into()))?;
            let opts = compact::CompactOptions {
                metrics_json: flag_value(args, "--metrics-json")?.map(PathBuf::from),
                segment_rows: parse_u64_flag(args, "--segment-rows")?,
            };
            compact::compact_opts(&PathBuf::from(dir), &opts)
        }
        "analyze" => {
            check_args(
                args,
                false,
                &[
                    "--dir",
                    "--threads",
                    "--metrics-json",
                    "--format",
                    "--filter-port",
                    "--filter-sni",
                    "--filter-category",
                ],
                &["--json", "--progress", "-v", "--verbose"],
            )?;
            let dir = flag_value(args, "--dir")?
                .ok_or_else(|| CliError::Invalid("analyze requires --dir <dir>".into()))?;
            let opts = analyze::AnalyzeOptions {
                threads: parse_threads(args)?,
                json: has_flag(args, "--json"),
                metrics_json: flag_value(args, "--metrics-json")?.map(PathBuf::from),
                progress: has_flag(args, "--progress"),
                verbose: has_flag(args, "-v") || has_flag(args, "--verbose"),
                format: match flag_value(args, "--format")? {
                    Some(f) => Some(DatasetFormat::parse(&f)?),
                    None => None,
                },
                filter_port: match flag_value(args, "--filter-port")? {
                    Some(v) => Some(v.parse().map_err(|_| {
                        CliError::Invalid(format!("bad port {v:?} for --filter-port"))
                    })?),
                    None => None,
                },
                filter_sni: flag_value(args, "--filter-sni")?,
                filter_category: match flag_value(args, "--filter-category")? {
                    Some(list) => Some(
                        certchain_colstore::CategorySet::parse_list(&list)
                            .map_err(|e| CliError::Invalid(format!("--filter-category: {e}")))?,
                    ),
                    None => None,
                },
            };
            analyze::analyze_opts(&PathBuf::from(dir), &opts)
        }
        "serve" => {
            check_args(
                args,
                false,
                &[
                    "--dir",
                    "--spool",
                    "--checkpoint",
                    "--threads",
                    "--listen",
                    "--interval-ms",
                    "--listen-addr-file",
                    "--watchdog-cycles",
                    "--trace-capacity",
                ],
                &["--drain"],
            )?;
            let need = |flag: &str| {
                flag_value(args, flag)?
                    .ok_or_else(|| CliError::Invalid(format!("serve requires {flag} <dir>")))
            };
            let dir = need("--dir")?;
            let spool = need("--spool")?;
            let checkpoint = need("--checkpoint")?;
            let opts = serve::ServeOptions {
                threads: parse_threads(args)?,
                listen: flag_value(args, "--listen")?,
                drain_once: has_flag(args, "--drain"),
                interval_ms: parse_u64_flag(args, "--interval-ms")?
                    .unwrap_or(serve::ServeOptions::default().interval_ms),
                listen_addr_file: flag_value(args, "--listen-addr-file")?.map(PathBuf::from),
                watchdog_cycles: parse_u64_flag(args, "--watchdog-cycles")?
                    .unwrap_or(serve::ServeOptions::default().watchdog_cycles),
                trace_capacity: parse_u64_flag(args, "--trace-capacity")?
                    .map(|n| n as usize)
                    .unwrap_or(serve::ServeOptions::default().trace_capacity),
            };
            serve::serve(
                &PathBuf::from(dir),
                &PathBuf::from(spool),
                &PathBuf::from(checkpoint),
                &opts,
            )
        }
        "spool-split" => {
            check_args(args, false, &["--dir", "--out", "--parts"], &[])?;
            let dir = flag_value(args, "--dir")?
                .ok_or_else(|| CliError::Invalid("spool-split requires --dir <dir>".into()))?;
            let out = flag_value(args, "--out")?
                .ok_or_else(|| CliError::Invalid("spool-split requires --out <spool>".into()))?;
            let parts = parse_u64_flag(args, "--parts")?.unwrap_or(4);
            serve::spool_split(&PathBuf::from(dir), &PathBuf::from(out), parts)
        }
        "validate" => {
            check_args(args, true, &["--dir"], &[])?;
            let chain = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| CliError::Invalid("validate requires a chain file".into()))?;
            let trust = match flag_value(args, "--dir")? {
                Some(dir) => Some(certchain_cli::dataset::load_trust(&PathBuf::from(dir))?),
                None => None,
            };
            validate::validate(&PathBuf::from(chain), trust.as_ref(), None)
        }
        "lint" => {
            check_args(args, true, &["--at"], &[])?;
            let chain = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| CliError::Invalid("lint requires a chain file".into()))?;
            let at = match flag_value(args, "--at")? {
                Some(date) => Some(parse_date(&date)?),
                None => None,
            };
            validate::lint(&PathBuf::from(chain), at)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Invalid(format!("unknown command {other:?}"))),
    }
}

/// Parse a `YYYY-MM-DD` date into midnight UTC.
fn parse_date(s: &str) -> CliResult<certchain_asn1::Asn1Time> {
    use certchain_cli::CliError;
    let bad = || CliError::Invalid(format!("bad date {s:?} (expected YYYY-MM-DD)"));
    let parts: Vec<&str> = s.split('-').collect();
    if parts.len() != 3 {
        return Err(bad());
    }
    let nums: Vec<u64> = parts
        .iter()
        .map(|p| p.parse().map_err(|_| bad()))
        .collect::<CliResult<_>>()?;
    certchain_asn1::Asn1Time::from_ymd_hms(nums[0], nums[1], nums[2], 0, 0, 0).map_err(|_| bad())
}

/// Optional numeric flag extraction.
fn parse_u64_flag(args: &[String], flag: &str) -> CliResult<Option<u64>> {
    use certchain_cli::CliError;
    match flag_value(args, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::Invalid(format!("bad value {v:?} for {flag}"))),
    }
}

/// `--threads N` extraction: absent → 0 (all cores).
fn parse_threads(args: &[String]) -> CliResult<usize> {
    use certchain_cli::CliError;
    match flag_value(args, "--threads")? {
        None => Ok(0),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Invalid(format!("bad thread count {v:?}"))),
    }
}

/// Reject any argument the `args[0]` command does not read, so a
/// mistyped flag fails instead of silently running with defaults.
/// `valued` flags consume the next argument, `switches` stand alone, and
/// `operand` admits one bare argument right after the command (the chain
/// file of `validate` and `lint`).
fn check_args(args: &[String], operand: bool, valued: &[&str], switches: &[&str]) -> CliResult<()> {
    use certchain_cli::CliError;
    let command = &args[0];
    let mut i = 1;
    while let Some(arg) = args.get(i) {
        let arg = arg.as_str();
        i += if valued.contains(&arg) {
            2
        } else if switches.contains(&arg) || (operand && i == 1 && !arg.starts_with('-')) {
            1
        } else if arg.starts_with('-') {
            return Err(CliError::Invalid(format!(
                "unknown flag {arg} for {command}"
            )));
        } else {
            return Err(CliError::Invalid(format!(
                "unexpected argument {arg:?} for {command}"
            )));
        };
    }
    Ok(())
}

/// Boolean flag presence.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// `--flag value` extraction.
fn flag_value(args: &[String], flag: &str) -> CliResult<Option<String>> {
    use certchain_cli::CliError;
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            return args
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| CliError::Invalid(format!("{flag} requires a value")));
        }
    }
    Ok(None)
}
