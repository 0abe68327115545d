//! The `certchain` binary rejects a flag its command does not read: a
//! typo must fail loudly instead of running the command with defaults.

use std::process::{Command, Output};

fn certchain(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_certchain"))
        .args(args)
        .output()
        .expect("run certchain")
}

/// A directory that never exists: flag checking happens before any
/// file is touched, so the commands below fail on arguments alone.
const NO_DIR: &str = "/nonexistent/certchain-flags";

#[test]
fn unknown_flags_fail_and_are_named() {
    for (args, want) in [
        (
            ["analyze", "--dir", NO_DIR, "--filter-prot", "443"],
            "unknown flag --filter-prot for analyze",
        ),
        (
            ["convert", "--dir", NO_DIR, "--store-version", "1"],
            "unknown flag --store-version for convert",
        ),
    ] {
        let out = certchain(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}

#[test]
fn listed_flags_are_accepted() {
    // Every flag the CI smoke steps and the benchmark pass, one command
    // line per command. Each line carries one bad value, so the command
    // stops at that value (naming it) before touching the file system —
    // which proves every flag ahead of it was accepted.
    let lines: &[(&[&str], &str)] = &[
        (
            &[
                "generate",
                "--out",
                NO_DIR,
                "--seed",
                "7",
                "--profile",
                "bogus",
            ],
            "unknown profile",
        ),
        (
            &["convert", "--dir", NO_DIR, "--force", "--segment-rows", "x"],
            "for --segment-rows",
        ),
        (
            &["compact", "--dir", NO_DIR, "--segment-rows", "x"],
            "for --segment-rows",
        ),
        (
            &[
                "analyze",
                "--dir",
                NO_DIR,
                "--json",
                "--format",
                "columnar",
                "--filter-category",
                "non_public_only",
                "--metrics-json",
                "m.json",
                "-v",
                "--threads",
                "x",
            ],
            "bad thread count",
        ),
        (
            &[
                "spool-split",
                "--dir",
                NO_DIR,
                "--out",
                NO_DIR,
                "--parts",
                "x",
            ],
            "for --parts",
        ),
        (
            &[
                "serve",
                "--dir",
                NO_DIR,
                "--spool",
                NO_DIR,
                "--checkpoint",
                NO_DIR,
                "--drain",
                "--listen",
                "127.0.0.1:0",
                "--listen-addr-file",
                "addr.txt",
                "--interval-ms",
                "50",
                "--threads",
                "x",
            ],
            "bad thread count",
        ),
    ];
    for (args, want) in lines {
        let out = certchain(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail on its bad value");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}
