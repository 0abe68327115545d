#![forbid(unsafe_code)]
//! Library backing the `certchain` command-line tool.
//!
//! The CLI is the downstream-user surface of the reproduction: it exports
//! a synthetic campus dataset to disk (Zeek TSV logs + PEM trust material)
//! and analyzes such a dataset — or real Zeek logs with the same field
//! subset — end to end.
//!
//! ```sh
//! certchain generate --out /tmp/campus --profile quick
//! certchain convert  --dir /tmp/campus        # TSV -> columnar store
//! certchain compact  --dir /tmp/campus        # migrate store to current format
//! certchain analyze  --dir /tmp/campus        # auto-detects the store
//! certchain serve    --dir /tmp/campus --spool /tmp/spool --checkpoint /tmp/ckpt
//! certchain validate /tmp/campus/sample-chain.pem
//! ```

pub mod analyze;
pub mod compact;
pub mod convert;
pub mod dataset;
pub mod generate;
pub mod serve;
pub mod validate;

use std::fmt;

/// CLI-level errors, rendered to stderr by the binary.
#[derive(Debug)]
pub enum CliError {
    /// I/O failure with context.
    Io(String, std::io::Error),
    /// Malformed input (logs, PEM, arguments).
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(what, e) => write!(f, "{what}: {e}"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Shorthand result.
pub type CliResult<T> = Result<T, CliError>;

/// Wrap an I/O error with context.
pub fn io_ctx(what: impl Into<String>) -> impl FnOnce(std::io::Error) -> CliError {
    move |e| CliError::Io(what.into(), e)
}
