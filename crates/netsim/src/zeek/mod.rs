//! Zeek-style log records and their TSV serialization.
//!
//! Zeek writes tab-separated logs with `#`-prefixed metadata headers; the
//! paper's pipeline consumes `ssl.log` and `x509.log` streamed off the
//! border gateway. This module reproduces the format closely enough that
//! the analysis code reads our synthetic logs exactly as it would read real
//! ones.

pub mod block;
pub mod reader;
pub mod record;
pub mod rotated;
pub mod stream;
pub mod tsv;
