//! Zeek TSV log writing.
//!
//! Reproduces the on-disk shape of Zeek logs: `#separator`, `#fields`,
//! `#types` headers, tab-separated rows, `-` for unset fields, `(empty)`
//! for empty vectors, `T`/`F` booleans and epoch-seconds timestamps.

use crate::handshake::TlsVersion;
use crate::zeek::record::{SslRecord, X509Record};
use certchain_asn1::Asn1Time;
use certchain_cryptosim::sha256::hex_into;
use certchain_x509::Fingerprint;
use std::io::{self, Write};
use std::net::Ipv4Addr;

/// Field list for ssl.log (subset of Zeek's, sufficient for the paper),
/// in the order the reader checks them.
pub const SSL_FIELDS: &[&str; 10] = &[
    "ts",
    "uid",
    "id.orig_h",
    "id.orig_p",
    "id.resp_h",
    "id.resp_p",
    "version",
    "server_name",
    "established",
    "cert_chain_fps",
];

/// Field list for x509.log, in the order the reader checks them.
pub const X509_FIELDS: &[&str; 11] = &[
    "ts",
    "fingerprint",
    "certificate.version",
    "certificate.serial",
    "certificate.subject",
    "certificate.issuer",
    "certificate.not_valid_before",
    "certificate.not_valid_after",
    "basic_constraints.ca",
    "basic_constraints.path_len",
    "san.dns",
];

fn write_header(
    out: &mut impl Write,
    path: &str,
    fields: &[&str],
    open: Asn1Time,
) -> io::Result<()> {
    writeln!(out, "#separator \\x09")?;
    writeln!(out, "#set_separator\t,")?;
    writeln!(out, "#empty_field\t(empty)")?;
    writeln!(out, "#unset_field\t-")?;
    writeln!(out, "#path\t{path}")?;
    writeln!(out, "#open\t{open}")?;
    writeln!(out, "#fields\t{}", fields.join("\t"))?;
    Ok(())
}

/// Escape a string field the way Zeek's ASCII writer does: separators and
/// other ambiguous bytes become `\xNN` hex escapes, and a field that would
/// collide with the unset (`-`) or empty (`(empty)`) tokens gets its first
/// byte escaped.
pub fn zeek_escape(field: &str) -> std::borrow::Cow<'_, str> {
    escape_impl(field, false)
}

/// Escape one entry of a vector field: like [`zeek_escape`] but the set
/// separator (`,`) must also be escaped.
pub fn zeek_escape_vec_entry(field: &str) -> std::borrow::Cow<'_, str> {
    escape_impl(field, true)
}

/// Byte-level escaping: escapes are pure ASCII and non-ASCII UTF-8 bytes
/// pass through untouched, so multi-byte characters survive intact.
/// Returns a borrow when nothing needed escaping (the overwhelmingly
/// common case on the log-writing hot path).
fn escape_impl(field: &str, in_vector: bool) -> std::borrow::Cow<'_, str> {
    let needs_token_escape = field == "-" || field == "(empty)";
    let needs_escape = |i: usize, b: u8| {
        matches!(b, b'\t' | b'\n' | b'\r' | b'\\')
            || (in_vector && b == b',')
            || (i == 0 && needs_token_escape)
    };
    if !field.bytes().enumerate().any(|(i, b)| needs_escape(i, b)) {
        return std::borrow::Cow::Borrowed(field);
    }
    let mut out: Vec<u8> = Vec::with_capacity(field.len() + 8);
    for (i, b) in field.bytes().enumerate() {
        if needs_escape(i, b) {
            out.extend_from_slice(b"\\x");
            hex_into(&[b], &mut out);
        } else {
            out.push(b);
        }
    }
    std::borrow::Cow::Owned(
        String::from_utf8(out)
            .expect("escaping only inserts ASCII and copies the original UTF-8 bytes"),
    )
}

/// Undo [`zeek_escape`]. Operates on bytes so multi-byte UTF-8 characters
/// pass through unchanged; an escape sequence decoding to a byte that does
/// not form valid UTF-8 is replaced (lossy), matching how a consumer would
/// treat a hostile log. Borrows when the field holds no `\\`.
pub fn zeek_unescape(field: &str) -> std::borrow::Cow<'_, str> {
    if !field.contains('\\') {
        return std::borrow::Cow::Borrowed(field);
    }
    let bytes = field.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match unescape_at(bytes, i) {
            Some(b) => {
                out.push(b);
                i += 4;
            }
            None => {
                out.push(bytes[i]);
                i += 1;
            }
        }
    }
    std::borrow::Cow::Owned(String::from_utf8_lossy(&out).into_owned())
}

/// The byte a `\\xHH` escape starting at `bytes[i]` stands for, if one
/// starts there.
pub(crate) fn unescape_at(bytes: &[u8], i: usize) -> Option<u8> {
    match bytes.get(i..)? {
        [b'\\', b'x', hi, lo, ..] => {
            let hi = (*hi as char).to_digit(16)?;
            let lo = (*lo as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        }
        _ => None,
    }
}

/// One data row assembled in a reused byte buffer. Each method appends
/// one field and its tab straight into the buffer: numbers, addresses and
/// timestamps as ASCII digits, fingerprints through the hex kernel, and
/// strings through Zeek's escaping, which borrows when a field needs none.
/// [`Row::write_to`] turns the last tab into the newline and hands the
/// line to the writer with one `write_all`, so once the buffer has grown
/// to the longest row, a row with nothing to escape allocates nothing.
#[derive(Default)]
struct Row(Vec<u8>);

impl Row {
    fn end_field(&mut self) -> &mut Row {
        self.0.push(b'\t');
        self
    }

    /// `n` in decimal, without a separator.
    fn push_u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.0.extend_from_slice(&digits[at..]);
    }

    /// A field written as it is: a version name, `T`/`F`, `-`, `(empty)`.
    fn token(&mut self, token: &str) -> &mut Row {
        self.0.extend_from_slice(token.as_bytes());
        self.end_field()
    }

    fn uint(&mut self, n: u64) -> &mut Row {
        self.push_u64(n);
        self.end_field()
    }

    fn opt_uint(&mut self, n: Option<u64>) -> &mut Row {
        match n {
            Some(n) => self.uint(n),
            None => self.token("-"),
        }
    }

    /// Epoch seconds with Zeek's microsecond digits, always `.000000`.
    fn ts(&mut self, t: Asn1Time) -> &mut Row {
        self.push_u64(t.unix_secs());
        self.token(".000000")
    }

    fn ipv4(&mut self, addr: Ipv4Addr) -> &mut Row {
        for (i, octet) in addr.octets().into_iter().enumerate() {
            if i > 0 {
                self.0.push(b'.');
            }
            self.push_u64(u64::from(octet));
        }
        self.end_field()
    }

    fn flag(&mut self, b: bool) -> &mut Row {
        self.token(if b { "T" } else { "F" })
    }

    fn opt_flag(&mut self, b: Option<bool>) -> &mut Row {
        match b {
            Some(b) => self.flag(b),
            None => self.token("-"),
        }
    }

    fn string(&mut self, s: &str) -> &mut Row {
        self.token(&zeek_escape(s))
    }

    fn opt_string(&mut self, s: Option<&str>) -> &mut Row {
        match s {
            Some(s) => self.string(s),
            None => self.token("-"),
        }
    }

    fn fingerprint(&mut self, fp: &Fingerprint) -> &mut Row {
        hex_into(&fp.0, &mut self.0);
        self.end_field()
    }

    /// A vector field: `(empty)`, or the entries joined by the set
    /// separator, each written by `put`.
    fn list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) -> &mut Row {
        if items.is_empty() {
            return self.token("(empty)");
        }
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.0.push(b',');
            }
            put(&mut self.0, item);
        }
        self.end_field()
    }

    fn strings(&mut self, items: &[String]) -> &mut Row {
        self.list(items, |buf, s| {
            buf.extend_from_slice(zeek_escape_vec_entry(s).as_bytes())
        })
    }

    fn fingerprints(&mut self, fps: &[Fingerprint]) -> &mut Row {
        self.list(fps, |buf, fp| hex_into(&fp.0, buf))
    }

    /// End the row and write it whole; the buffer is left empty for the
    /// next row even when the write fails.
    fn write_to(&mut self, out: &mut impl Write) -> io::Result<()> {
        if let Some(last) = self.0.last_mut() {
            *last = b'\n';
        }
        let written = out.write_all(&self.0);
        self.0.clear();
        written
    }
}

/// Incremental ssl.log writer: header on construction, one record at a
/// time, `#close` on [`SslLogWriter::finish`]. This is the sink side of
/// the streaming ingestion core — `certchain generate` writes records to
/// disk as they are emitted instead of materializing the full trace.
pub struct SslLogWriter<W: Write> {
    out: W,
    open: Asn1Time,
    row: Row,
}

impl<W: Write> SslLogWriter<W> {
    /// Write the Zeek header and return the writer.
    pub fn new(mut out: W, open: Asn1Time) -> io::Result<SslLogWriter<W>> {
        write_header(&mut out, "ssl", SSL_FIELDS, open)?;
        Ok(SslLogWriter {
            out,
            open,
            row: Row::default(),
        })
    }

    /// Append one data row.
    pub fn record(&mut self, r: &SslRecord) -> io::Result<()> {
        self.row
            .ts(r.ts)
            .string(&r.uid)
            .ipv4(r.orig_h)
            .uint(u64::from(r.orig_p))
            .ipv4(r.resp_h)
            .uint(u64::from(r.resp_p))
            .token(r.version.as_str())
            .opt_string(r.server_name.as_deref())
            .flag(r.established)
            .fingerprints(&r.cert_chain_fps)
            .write_to(&mut self.out)
    }

    /// Write the `#close` footer and hand the inner writer back.
    pub fn finish(mut self) -> io::Result<W> {
        writeln!(self.out, "#close\t{}", self.open)?;
        Ok(self.out)
    }
}

/// Incremental x509.log writer; see [`SslLogWriter`].
pub struct X509LogWriter<W: Write> {
    out: W,
    open: Asn1Time,
    row: Row,
}

impl<W: Write> X509LogWriter<W> {
    /// Write the Zeek header and return the writer.
    pub fn new(mut out: W, open: Asn1Time) -> io::Result<X509LogWriter<W>> {
        write_header(&mut out, "x509", X509_FIELDS, open)?;
        Ok(X509LogWriter {
            out,
            open,
            row: Row::default(),
        })
    }

    /// Append one data row.
    pub fn record(&mut self, r: &X509Record) -> io::Result<()> {
        self.row
            .ts(r.ts)
            .fingerprint(&r.fingerprint)
            .uint(r.cert_version)
            .string(&r.serial)
            .string(&r.subject)
            .string(&r.issuer)
            .ts(r.not_before)
            .ts(r.not_after)
            .opt_flag(r.basic_constraints_ca)
            .opt_uint(r.path_len)
            .strings(&r.san_dns)
            .write_to(&mut self.out)
    }

    /// Write the `#close` footer and hand the inner writer back.
    pub fn finish(mut self) -> io::Result<W> {
        writeln!(self.out, "#close\t{}", self.open)?;
        Ok(self.out)
    }
}

/// Write a complete ssl.log (batch adapter over [`SslLogWriter`]).
pub fn write_ssl_log(
    out: &mut impl Write,
    records: &[SslRecord],
    open: Asn1Time,
) -> io::Result<()> {
    let mut w = SslLogWriter::new(out, open)?;
    for r in records {
        w.record(r)?;
    }
    w.finish()?;
    Ok(())
}

/// Write a complete x509.log (batch adapter over [`X509LogWriter`]).
pub fn write_x509_log(
    out: &mut impl Write,
    records: &[X509Record],
    open: Asn1Time,
) -> io::Result<()> {
    let mut w = X509LogWriter::new(out, open)?;
    for r in records {
        w.record(r)?;
    }
    w.finish()?;
    Ok(())
}

/// Parse helpers shared with the reader.
pub(crate) mod parse {
    use certchain_asn1::Asn1Time;

    /// Parse Zeek's epoch-seconds timestamp: `digits[.digits]`, nothing
    /// else (no sign, exponent, `inf` or `NaN`), truncated to the whole
    /// second.
    pub fn ts(s: &str) -> Option<Asn1Time> {
        let (int, frac) = s.split_once('.').unwrap_or((s, "0"));
        let digits = |p: &str| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit());
        if !digits(int) || !digits(frac) {
            return None;
        }
        let secs: f64 = s.parse().ok()?;
        Some(Asn1Time::from_unix(secs as u64))
    }

    /// Parse T/F.
    pub fn boolean(s: &str) -> Option<bool> {
        match s {
            "T" => Some(true),
            "F" => Some(false),
            _ => None,
        }
    }

    /// Parse an optional field ("-" = unset), undoing Zeek escapes.
    pub fn optional(s: &str) -> Option<String> {
        if s == "-" {
            None
        } else {
            Some(super::zeek_unescape(s).into_owned())
        }
    }

    /// The entries of a vector field ("(empty)" or "-" = none), as
    /// written: Zeek escapes intact.
    pub fn entries(s: &str) -> impl Iterator<Item = &str> {
        let none = s == "(empty)" || s == "-";
        s.split(',').filter(move |_| !none)
    }

    /// Parse a vector field ("(empty)" = empty), undoing Zeek escapes.
    pub fn vector(s: &str) -> Vec<String> {
        entries(s)
            .map(|e| super::zeek_unescape(e).into_owned())
            .collect()
    }
}

/// Version string back to the enum.
pub fn parse_version(s: &str) -> Option<TlsVersion> {
    match s {
        "TLSv12" => Some(TlsVersion::Tls12),
        "TLSv13" => Some(TlsVersion::Tls13),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Asn1Time {
        Asn1Time::from_ymd_hms(2020, 9, 1, 0, 0, 0).unwrap()
    }

    fn ssl_record(established: bool) -> SslRecord {
        SslRecord {
            ts: t(),
            uid: "C0000000000000001".into(),
            orig_h: Ipv4Addr::new(128, 143, 1, 2),
            orig_p: 49152,
            resp_h: Ipv4Addr::new(203, 0, 113, 5),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: Some("example.org".into()),
            established,
            cert_chain_fps: vec![Fingerprint([0xab; 32])],
        }
    }

    #[test]
    fn ssl_log_format() {
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &[ssl_record(true)], t()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("#separator \\x09\n"));
        assert!(text.contains("#path\tssl\n"));
        assert!(text.contains("#fields\tts\tuid"));
        let row = text
            .lines()
            .find(|l| !l.starts_with('#'))
            .expect("one data row");
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols.len(), SSL_FIELDS.len());
        assert_eq!(cols[0], "1598918400.000000");
        assert_eq!(cols[6], "TLSv12");
        assert_eq!(cols[8], "T");
        assert_eq!(cols[9], Fingerprint([0xab; 32]).to_hex());
        assert!(text.trim_end().ends_with(&format!("#close\t{}", t())));
    }

    #[test]
    fn unset_and_empty_tokens() {
        let mut rec = ssl_record(false);
        rec.server_name = None;
        rec.cert_chain_fps.clear();
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &[rec], t()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let row = text.lines().find(|l| !l.starts_with('#')).unwrap();
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols[7], "-");
        assert_eq!(cols[8], "F");
        assert_eq!(cols[9], "(empty)");
    }

    #[test]
    fn x509_log_format() {
        let rec = X509Record {
            ts: t(),
            fingerprint: Fingerprint([1; 32]),
            cert_version: 3,
            serial: "0A".into(),
            subject: "CN=a, O=b".into(),
            issuer: "CN=ca".into(),
            not_before: t(),
            not_after: t().plus_days(90),
            basic_constraints_ca: None,
            path_len: None,
            san_dns: vec!["a.org".into(), "b.org".into()],
        };
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &[rec], t()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let row = text.lines().find(|l| !l.starts_with('#')).unwrap();
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols.len(), X509_FIELDS.len());
        assert_eq!(cols[4], "CN=a, O=b");
        assert_eq!(cols[8], "-"); // absent basicConstraints
        assert_eq!(cols[10], "a.org,b.org");
    }

    #[test]
    fn zeek_escaping_round_trips() {
        for field in [
            "a\tb\nc",
            "-",
            "(empty)",
            "with, comma",
            "back\\slash",
            "plain",
        ] {
            let escaped = zeek_escape(field);
            assert!(!escaped.contains('\t') && !escaped.contains('\n'));
            assert_ne!(escaped, "-");
            assert_ne!(escaped, "(empty)");
            assert_eq!(zeek_unescape(&escaped), field, "field {field:?}");
            // Vector entries additionally protect the set separator.
            let vec_escaped = zeek_escape_vec_entry(field);
            assert!(!vec_escaped.contains(','));
            assert_eq!(zeek_unescape(&vec_escaped), field, "vec field {field:?}");
        }
        // Scalar fields keep commas readable (tab-separated anyway).
        assert_eq!(zeek_escape("CN=a, O=b"), "CN=a, O=b");
        // Non-ASCII UTF-8 must survive both directions untouched.
        for field in [
            "CN=Gr\u{fc}\u{df}e GmbH",
            "CN=\u{65e5}\u{672c}",
            "caf\u{e9}-\t-tab",
        ] {
            assert_eq!(zeek_unescape(&zeek_escape(field)), field, "{field:?}");
        }
        // Unescaped clean fields borrow (no allocation on the hot path).
        assert!(matches!(
            zeek_escape("plain"),
            std::borrow::Cow::Borrowed(_)
        ));
    }

    #[test]
    fn ts_accepts_only_decimal_seconds() {
        for bad in [
            "NaN", "nan", "inf", "-inf", "1e300", "1E9", "-0", "-1", "+1", "1.", ".5", "", "1.2.3",
            " 1", "0x10",
        ] {
            assert!(parse::ts(bad).is_none(), "{bad:?} must be rejected");
        }
        assert_eq!(parse::ts("0").unwrap().unix_secs(), 0);
        assert_eq!(parse::ts("42.5").unwrap().unix_secs(), 42);
    }

    #[test]
    fn ts_gives_the_whole_second_of_the_float_parse() {
        for s in [
            "9999999999.999999",
            "8589934591.999999",
            "1598918400.000000",
            "0001598918400.5",
            "99999999999999999999999",
        ] {
            let float_secs = s.parse::<f64>().unwrap() as u64;
            assert_eq!(parse::ts(s).unwrap().unix_secs(), float_secs, "{s}");
        }
    }

    #[test]
    fn parse_helpers() {
        assert_eq!(
            parse::ts("1598918400.000000").unwrap().unix_secs(),
            1_598_918_400
        );
        assert!(parse::ts("nonsense").is_none());
        assert_eq!(parse::boolean("T"), Some(true));
        assert_eq!(parse::boolean("x"), None);
        assert_eq!(parse::optional("-"), None);
        assert_eq!(parse::optional("v").as_deref(), Some("v"));
        assert!(parse::vector("(empty)").is_empty());
        assert_eq!(parse::vector("a,b"), vec!["a", "b"]);
        assert_eq!(parse_version("TLSv12"), Some(TlsVersion::Tls12));
        assert_eq!(parse_version("SSLv3"), None);
    }
}
