//! `era-lint` as a process: `check [PATH]` is its whole `check`
//! surface — 0 on a clean file, 1 on a finding, 2 on anything it was
//! not asked to understand (a second PATH, a flag, a subcommand).

use std::path::PathBuf;
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_era-lint"))
        .args(args)
        .output()
        .expect("era-lint runs")
}

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn clean_file_exits_zero() {
    let out = lint(&["check", &fixture("clean.rs")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout, "era-lint: 0 finding(s) across 1 file(s) scanned\n");
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn finding_exits_one_and_names_its_rule() {
    let out = lint(&["check", &fixture("missing_safety.rs")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("R1-safety-comment — "), "{stdout}");
    assert!(stdout.ends_with("era-lint: 1 finding(s) across 1 file(s) scanned\n"));
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn second_path_is_a_usage_error() {
    let out = lint(&["check", &fixture("missing_safety.rs"), &fixture("clean.rs")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing was checked: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("one PATH"));
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn removed_flag_is_unknown() {
    let out = lint(&["check", "--sarif-out", "x"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --sarif-out"));
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn unknown_subcommand_exits_two() {
    let out = lint(&["lint", "."]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}
