//! `era-net serve` as a process: every reclaiming scheme serves and
//! leaves its flight dump, and a bad flag value exits 2 instead of
//! falling back to a default.

use std::path::PathBuf;
use std::process::{Command, Output};

use era_smr::SchemeKind;

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_era-net"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .output()
        .expect("era-net runs")
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("era_net_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn every_reclaiming_scheme_serves_and_leaves_a_dump() {
    let dir = scratch_dir();
    for kind in SchemeKind::RECLAIMING {
        let name = kind.id().name();
        let dump = dir.join(format!("{name}.eraflt"));
        let out = serve(&[
            "--scheme",
            name,
            "--duration",
            "0.2",
            "--flight-dump",
            dump.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        assert!(dump.exists(), "{name}: no flight dump");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn bad_values_exit_2_naming_the_flag() {
    let cases: [(&[&str], &str); 4] = [
        (&["--shards", "x", "--duration", "0.2"], "--shards"),
        (&["--scheme", "vbr", "--duration", "0.2"], "--scheme"),
        (&["--duration", "x", "--workers", "1"], "--duration"),
        (
            &["--soft", "2048", "--hard", "512", "--duration", "0.5"],
            "--hard",
        ),
    ];
    for (args, flag) in cases {
        let out = serve(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}
