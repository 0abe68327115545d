//! The CT corpus load parses its PEM files on the command's worker
//! threads. The index it builds, and the error it reports for a corrupt
//! corpus, must not depend on how many there are.

use certchain_asn1::Asn1Time;
use certchain_cli::dataset::load_ct_index_with;
use certchain_cryptosim::KeyPair;
use certchain_ctlog::DomainIndex;
use certchain_x509::{pem, Certificate, CertificateBuilder, DistinguishedName, Validity};
use std::path::{Path, PathBuf};

const THREADS: [usize; 3] = [1, 2, 8];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("certchain-ct-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("ct")).unwrap();
    dir
}

/// A leaf for `domain` from issuer `ca`, valid for 90 days from
/// `start_day` days after 2020-01-01.
fn leaf(ca: &str, domain: &str, start_day: u64) -> Certificate {
    let start = Asn1Time::from_ymd_hms(2020, 1, 1, 0, 0, 0)
        .unwrap()
        .plus_days(start_day);
    CertificateBuilder::new()
        .issuer(DistinguishedName::cn_o(ca, ca))
        .subject(DistinguishedName::cn(domain))
        .validity(Validity::days_from(start, 90))
        .leaf_for(domain)
        .sign(&KeyPair::derive(5, ca))
}

fn write_pem(dir: &Path, name: &str, certs: &[&Certificate]) {
    let text: String = certs
        .iter()
        .map(|c| pem::encode("CERTIFICATE", c.der()))
        .collect();
    std::fs::write(dir.join("ct").join(name), text).unwrap();
}

/// A corpus of fourteen PEM files, more than any tested thread count
/// splits: one holding two certificates, one certificate stored in two
/// files, and beside them a file that is not `.pem`. Each domain has
/// certificates from two issuers with overlapping validity, so the order
/// in which they are indexed shows in the query answers.
fn corpus(dir: &Path) -> Vec<Certificate> {
    let domains = ["a.example", "b.example", "c.example", "d.example"];
    let certs: Vec<Certificate> = (0..14u64)
        .map(|i| {
            let ca = if i / 4 % 2 == 0 {
                "First CA"
            } else {
                "Second CA"
            };
            leaf(ca, domains[i as usize % domains.len()], i * 10)
        })
        .collect();
    write_pem(dir, "00-pair.pem", &[&certs[0], &certs[1]]);
    for (i, cert) in certs.iter().enumerate().skip(2) {
        write_pem(dir, &format!("{i:02}-leaf.pem"), &[cert]);
    }
    write_pem(dir, "99-copy.pem", &[&certs[5]]);
    std::fs::write(dir.join("ct/notes.txt"), "not a certificate").unwrap();
    certs
}

/// Every answer the pipeline reads from the index, for each certificate.
fn answers(index: &DomainIndex, certs: &[Certificate]) -> Vec<String> {
    let mut out = vec![format!("len {}", index.len())];
    for cert in certs {
        let domain = cert.subject.common_name().unwrap();
        out.push(format!(
            "{domain}: known {} issuers {:?} logged {}",
            index.knows_domain(domain),
            index.recorded_issuers_overlapping(domain, cert.validity),
            index.contains_fingerprint(&cert.fingerprint()),
        ));
    }
    out
}

#[test]
fn ct_index_is_the_same_at_every_thread_count() {
    let dir = fresh_dir("threads");
    let certs = corpus(&dir);
    let indexes: Vec<DomainIndex> = THREADS
        .iter()
        .map(|&t| load_ct_index_with(&dir, t).unwrap())
        .collect();
    let first = answers(&indexes[0], &certs);
    assert_eq!(
        first[0], "len 14",
        "the copy indexes once, notes.txt not at all"
    );
    assert!(first[1..].iter().all(|a| a.contains("known true")));
    assert!(first[1..].iter().all(|a| a.ends_with("logged true")));
    assert!(first[1..]
        .iter()
        .any(|a| a.contains("First CA") && a.contains("Second CA")));
    for (index, threads) in indexes.iter().zip(THREADS).skip(1) {
        assert_eq!(answers(index, &certs), first, "threads {threads}");
    }
}

#[test]
fn ct_load_names_the_first_corrupt_file_at_every_thread_count() {
    let dir = fresh_dir("corrupt");
    corpus(&dir);
    // Two bad files, in different runs at threads 2 and 8: a non-base64
    // byte in one, DER that does not parse in the other.
    std::fs::write(
        dir.join("ct/07-bad.pem"),
        "-----BEGIN CERTIFICATE-----\nZm9v!mFy\n-----END CERTIFICATE-----\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("ct/12-bad.pem"),
        pem::encode("CERTIFICATE", b"not der"),
    )
    .unwrap();
    let errors: Vec<String> = THREADS
        .iter()
        .map(|&t| load_ct_index_with(&dir, t).unwrap_err().to_string())
        .collect();
    assert!(errors[0].contains("07-bad.pem"), "{}", errors[0]);
    assert!(errors[0].contains("invalid base64"), "{}", errors[0]);
    for (error, threads) in errors.iter().zip(THREADS).skip(1) {
        assert_eq!(error, &errors[0], "threads {threads}");
    }
}
