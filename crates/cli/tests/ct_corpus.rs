//! The CT corpus loads two ways: by parsing its PEM files on the
//! command's worker threads, or from the table (`ct.idx`) compiled from
//! them, while that is fresh. The index, and the error reported for a
//! corrupt corpus, must depend neither on the way nor on the thread
//! count; a stale table must give the PEM files' index plus one notice.

use certchain_asn1::Asn1Time;
use certchain_cli::dataset::{compile_ct_table, load_ct, load_ct_index_with, CT_TABLE};
use certchain_cli::{convert, generate};
use certchain_cryptosim::{KeyPair, Sha256};
use certchain_ctlog::DomainIndex;
use certchain_workload::CampusProfile;
use certchain_x509::{pem, Certificate, CertificateBuilder, DistinguishedName, Validity};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

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

/// The index a load with no table gives: the PEM path's.
fn pem_index(dir: &Path, threads: usize) -> DomainIndex {
    let table = dir.join(CT_TABLE);
    let aside = dir.join("ct.idx.aside");
    let had_table = table.exists();
    if had_table {
        std::fs::rename(&table, &aside).unwrap();
    }
    let load = load_ct(dir, threads);
    if had_table {
        std::fs::rename(&aside, &table).unwrap();
    }
    assert!(!load.from_table);
    assert_eq!(load.notice, None, "no table, no notice");
    load.index.unwrap()
}

/// Compile the table at `threads` and return its bytes.
fn compile(dir: &Path, threads: usize) -> Vec<u8> {
    let out = compile_ct_table(dir, threads).unwrap();
    assert!(out.starts_with("compiled "), "{out}");
    std::fs::read(dir.join(CT_TABLE)).unwrap()
}

/// A load that must come from the table.
fn table_index(dir: &Path, threads: usize) -> DomainIndex {
    let load = load_ct(dir, threads);
    assert!(load.from_table, "threads {threads}: {:?}", load.notice);
    assert_eq!(load.notice, None);
    load.index.unwrap()
}

#[test]
fn ct_index_is_the_same_at_every_thread_count() {
    let dir = fresh_dir("threads");
    let certs = corpus(&dir);
    let mut indexes: Vec<(String, DomainIndex)> = THREADS
        .iter()
        .map(|&t| (format!("pem threads {t}"), pem_index(&dir, t)))
        .collect();
    let tables: Vec<Vec<u8>> = THREADS
        .iter()
        .map(|&t| {
            std::fs::remove_file(dir.join(CT_TABLE)).ok();
            compile(&dir, t)
        })
        .collect();
    assert!(tables.iter().all(|t| *t == tables[0]), "compiled bytes");
    for &t in &THREADS {
        indexes.push((format!("table threads {t}"), table_index(&dir, t)));
    }
    let first = answers(&indexes[0].1, &certs);
    assert_eq!(
        first[0], "len 14",
        "the copy indexes once, notes.txt not at all"
    );
    assert!(first[1..].iter().all(|a| a.contains("known true")));
    assert!(first[1..].iter().all(|a| a.ends_with("logged true")));
    assert!(first[1..]
        .iter()
        .any(|a| a.contains("First CA") && a.contains("Second CA")));
    for (label, index) in &indexes[1..] {
        assert_eq!(answers(index, &certs), first, "{label}");
    }
    // A fresh table is checked, not recompiled.
    assert_eq!(compile_ct_table(&dir, 2).unwrap(), "");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ct_load_names_the_first_corrupt_file_at_every_thread_count() {
    let dir = fresh_dir("corrupt");
    corpus(&dir);
    // Once without a table, once with one compiled before the corruption.
    for compiled in [false, true] {
        if compiled {
            compile(&dir, 2);
        }
        // Two bad files, in different runs at threads 2 and 8: a
        // non-base64 byte in one, DER that does not parse in the other.
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
            .map(|&t| {
                let load = load_ct(&dir, t);
                assert_eq!(load.notice.is_some(), compiled, "threads {t}");
                load.index.unwrap_err().to_string()
            })
            .collect();
        assert!(errors[0].contains("07-bad.pem"), "{}", errors[0]);
        assert!(errors[0].contains("invalid base64"), "{}", errors[0]);
        for (error, threads) in errors.iter().zip(THREADS).skip(1) {
            assert_eq!(error, &errors[0], "threads {threads}");
        }
        assert_eq!(
            load_ct_index_with(&dir, 2).unwrap_err().to_string(),
            errors[0]
        );
        // A corpus that does not parse compiles no table.
        let out = compile_ct_table(&dir, 2).unwrap();
        assert!(out.contains("07-bad.pem"), "{out}");
        assert!(out.ends_with("ct.idx not compiled\n"), "{out}");
        for bad in ["07-bad.pem", "12-bad.pem"] {
            std::fs::remove_file(dir.join("ct").join(bad)).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corpus with a table compiled from it: the directory, the
/// certificates, and the table's modification time.
fn compiled_corpus(tag: &str) -> (PathBuf, Vec<Certificate>, SystemTime) {
    let dir = fresh_dir(tag);
    let certs = corpus(&dir);
    compile(&dir, 2);
    table_index(&dir, 2);
    let compiled = mtime(&dir.join(CT_TABLE));
    (dir, certs, compiled)
}

fn mtime(path: &Path) -> SystemTime {
    std::fs::metadata(path).unwrap().modified().unwrap()
}

fn set_mtime(path: &Path, at: SystemTime) {
    std::fs::File::options()
        .write(true)
        .open(path)
        .unwrap()
        .set_modified(at)
        .unwrap();
}

/// The load after `change` must parse the PEM files, giving their index,
/// and print one notice, the same at every thread count, whose reason
/// `reason` names.
fn assert_stale(tag: &str, reason: &str, change: impl FnOnce(&Path, SystemTime)) {
    let (dir, certs, compiled) = compiled_corpus(tag);
    change(&dir, compiled);
    let want = answers(&pem_index(&dir, 2), &certs);
    let mut notices = Vec::new();
    for &t in &THREADS {
        let load = load_ct(&dir, t);
        assert!(!load.from_table, "{tag}: threads {t} read a stale table");
        let notice = load.notice.expect("a stale table prints a notice");
        assert!(notice.starts_with("notice: "), "{tag}: {notice}");
        assert!(notice.contains(reason), "{tag}: {notice}");
        assert!(!notice.contains('\n'), "{tag}: one line: {notice}");
        assert_eq!(answers(&load.index.unwrap(), &certs), want, "{tag}");
        notices.push(notice);
    }
    assert!(
        notices.iter().all(|n| *n == notices[0]),
        "{tag}: {notices:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

const LISTING: &str = "ct/ holds other *.pem files than it was compiled from";
const MODIFIED: &str = "a file in ct/ was modified after it was compiled";

#[test]
fn a_pem_added_removed_or_renamed_makes_the_table_stale() {
    assert_stale("added", LISTING, |dir, compiled| {
        let path = dir.join("ct/50-new.pem");
        write_pem(dir, "50-new.pem", &[&leaf("Third CA", "e.example", 5)]);
        // Even one that looks older than the table.
        set_mtime(&path, compiled - Duration::from_secs(60));
    });
    assert_stale("removed", LISTING, |dir, _| {
        std::fs::remove_file(dir.join("ct/03-leaf.pem")).unwrap();
    });
    assert_stale("renamed", LISTING, |dir, _| {
        let ct = dir.join("ct");
        std::fs::rename(ct.join("03-leaf.pem"), ct.join("03-leaf-moved.pem")).unwrap();
    });
}

#[test]
fn a_pem_rewritten_at_the_same_size_or_touched_makes_the_table_stale() {
    assert_stale("rewritten", MODIFIED, |dir, _| {
        // Two certificates from one issuer whose PEM files are the same
        // size: swap their contents.
        let ct = dir.join("ct");
        let (a, b) = (ct.join("04-leaf.pem"), ct.join("05-leaf.pem"));
        let (text_a, text_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert_eq!(text_a.len(), text_b.len());
        assert_ne!(text_a, text_b);
        std::fs::write(&a, text_b).unwrap();
        std::fs::write(&b, text_a).unwrap();
    });
    assert_stale("touched", MODIFIED, |dir, compiled| {
        set_mtime(
            &dir.join("ct/06-leaf.pem"),
            compiled + Duration::from_secs(1),
        );
    });
    // Modified within the table's own timestamp tick: not strictly older.
    assert_stale("same-tick", MODIFIED, |dir, compiled| {
        set_mtime(&dir.join("ct/06-leaf.pem"), compiled);
    });
}

#[test]
fn a_damaged_table_falls_back_with_a_notice() {
    assert_stale("flipped", "corrupt", |dir, _| {
        let path = dir.join(CT_TABLE);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
    });
    assert_stale("truncated", "corrupt", |dir, _| {
        let path = dir.join(CT_TABLE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    });
    assert_stale("version", "unknown table version 2", |dir, _| {
        // Version 2 of the layout, sealed with a correct digest.
        let path = dir.join(CT_TABLE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16..20].copy_from_slice(&2u32.to_le_bytes());
        let body = bytes.len() - 32;
        let digest = Sha256::digest(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest);
        std::fs::write(&path, bytes).unwrap();
    });
}

/// A fresh table is what loads: a PEM file overwritten with garbage of
/// the same size, its mtime set back before the table's, is not read.
/// This is the freshness rule's known limit: the edit is not seen.
#[test]
fn a_fresh_table_is_read_instead_of_the_pem_files() {
    let (dir, certs, compiled) = compiled_corpus("proof");
    let want = answers(&table_index(&dir, 2), &certs);
    let path = dir.join("ct/09-leaf.pem");
    let size = std::fs::metadata(&path).unwrap().len() as usize;
    let (begin, end) = (
        "-----BEGIN CERTIFICATE-----\n",
        "\n-----END CERTIFICATE-----\n",
    );
    let garbage = begin.to_string() + &"!".repeat(size - begin.len() - end.len()) + end;
    assert_eq!(garbage.len(), size);
    std::fs::write(&path, garbage).unwrap();
    set_mtime(&path, compiled - Duration::from_secs(1));
    for &t in &THREADS {
        assert_eq!(answers(&table_index(&dir, t), &certs), want, "threads {t}");
    }
    std::fs::remove_file(dir.join(CT_TABLE)).unwrap();
    let err = load_ct(&dir, 2).index.unwrap_err().to_string();
    assert!(err.contains("09-leaf.pem"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every single-byte flip and every truncation of a small table falls
/// back to the PEM files' index, and none panics a load.
#[test]
fn every_flip_and_truncation_of_a_table_falls_back() {
    let dir = fresh_dir("sweep");
    let certs: Vec<Certificate> = (0..3)
        .map(|i| leaf("Sweep CA", &format!("s{i}.example"), i * 10))
        .collect();
    for (i, cert) in certs.iter().enumerate() {
        write_pem(&dir, &format!("{i}.pem"), &[cert]);
    }
    let good = compile(&dir, 1);
    let compiled = mtime(&dir.join(CT_TABLE));
    let want = answers(&pem_index(&dir, 1), &certs);
    let path = dir.join(CT_TABLE);
    let damaged = (0..good.len())
        .map(|at| {
            let mut bytes = good.clone();
            bytes[at] ^= 0xFF;
            (format!("flip {at}"), bytes)
        })
        .chain((0..good.len()).map(|len| (format!("truncate {len}"), good[..len].to_vec())));
    let mut failures = Vec::new();
    for (what, bytes) in damaged {
        std::fs::write(&path, &bytes).unwrap();
        // Keep the table newer than the PEM files, so only its bytes
        // make it stale.
        set_mtime(&path, compiled);
        let load = std::panic::catch_unwind(|| load_ct(&dir, 1));
        match load {
            Err(_) => failures.push(format!("{what}: panicked")),
            Ok(load) if load.from_table || load.notice.is_none() => {
                failures.push(format!("{what}: read as fresh"))
            }
            Ok(load) => {
                if answers(&load.index.unwrap(), &certs) != want {
                    failures.push(format!("{what}: another index"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tiny generated dataset: these tests are about the table, not volume.
fn tiny_profile() -> CampusProfile {
    CampusProfile {
        seed: 99,
        chain_scale: 0.0005,
        conn_scale: 0.00005,
        public_chains: 120,
        public_conns_per_chain: 2,
    }
}

/// `generate` into a directory whose `ct/` still holds PEM files of an
/// earlier, larger run succeeds, and its table indexes what the PEM path
/// indexes: the leftovers included.
#[test]
fn generate_over_a_larger_leftover_ct_dir_compiles_what_is_there() {
    let dir = fresh_dir("leftover");
    let leftover = leaf("Leftover CA", "leftover.example", 0);
    write_pem(&dir, "logged-99999.pem", &[&leftover]);
    generate::generate_with(&dir, tiny_profile(), 2).expect("generate over a leftover ct/");
    let table = table_index(&dir, 2);
    assert!(table.contains_fingerprint(&leftover.fingerprint()));
    let certs = [leftover];
    assert_eq!(
        answers(&table, &certs),
        answers(&pem_index(&dir, 2), &certs)
    );
    assert_eq!(table.len(), pem_index(&dir, 2).len());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A PEM file dated an hour ahead, as after a copy from a host whose
/// clock is ahead, keeps any table from being fresh. `convert` still
/// writes its store and succeeds, removes the table it could not keep
/// fresh and says so; loads then parse the PEM files with no notice.
#[test]
fn convert_removes_a_table_it_cannot_keep_fresh() {
    let dir = fresh_dir("future");
    generate::generate_with(&dir, tiny_profile(), 2).expect("generate");
    let ahead = SystemTime::now() + Duration::from_secs(3600);
    set_mtime(&dir.join("ct/logged-00003.pem"), ahead);
    std::fs::remove_file(dir.join(CT_TABLE)).unwrap();
    let summary = convert::convert(&dir).expect("convert succeeds");
    assert!(summary.contains("ssl rows"), "{summary}");
    let notice = format!("{MODIFIED}, right after it was written; removed it");
    assert!(summary.contains(&notice), "{summary}");
    assert!(!dir.join(CT_TABLE).exists(), "the table stayed");
    assert!(!dir.join("ct.idx.tmp").exists());
    let load = load_ct(&dir, 2);
    assert!(!load.from_table);
    assert_eq!(load.notice, None);
    assert!(!load.index.unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}
