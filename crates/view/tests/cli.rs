//! `era-view` as a process: what `--chain auto --limit` reports, and
//! the exit codes for a dump it cannot read (1) and a flag it does not
//! know (2).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use era_obs::dump::{FlightDump, SourceDump};
use era_obs::{Event, Hook, SchemeId};

fn view(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_era-view"))
        .args(args)
        .output()
        .expect("era-view runs")
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("era_view_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Thread 0 retires three nodes and dies pinned; thread 1 adopts them
/// and reclaims each: three complete orphan chains.
fn three_orphan_chains(path: &Path) {
    let ev = |ts: u64, thread: u16, hook: Hook, a: u64, b: u64| {
        let mut e = Event::new(thread, SchemeId::EBR, hook, a, b);
        e.ts = ts;
        e
    };
    let nodes = [0xa000, 0xb000, 0xc000];
    let mut src = SourceDump::new("ebr");
    for (k, &node) in nodes.iter().enumerate() {
        src.events
            .push(ev(k as u64, 0, Hook::Retire, node, k as u64 + 1));
    }
    src.events.push(ev(3, 0, Hook::Fault, 0, 1));
    src.events.push(ev(4, 1, Hook::Adopt, 3, 3));
    for (k, &node) in nodes.iter().enumerate() {
        src.events.push(ev(5 + k as u64, 1, Hook::Reclaim, node, 5));
    }
    let dump = FlightDump {
        wall_unix_ms: 0,
        sources: vec![src],
    };
    std::fs::write(path, dump.encode()).unwrap();
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn chain_limit_reports_the_chains_it_did_not_show() {
    let dir = scratch_dir();
    let dump = dir.join("three.eraflt");
    three_orphan_chains(&dump);
    for (limit, shown, more) in [("0", 1, "… 2 more chain(s)"), ("2", 2, "… 1 more chain(s)")] {
        let out = view(&[dump.to_str().unwrap(), "--chain", "auto", "--limit", limit]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            stdout.matches("=> full orphan chain").count(),
            shown,
            "{stdout}"
        );
        assert!(stdout.contains(more), "--limit {limit}: {stdout}");
    }
    let out = view(&[dump.to_str().unwrap(), "--chain", "auto", "--limit", "3"]);
    assert!(!String::from_utf8_lossy(&out.stdout).contains("more chain"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn a_version_1_dump_exits_1_naming_its_version() {
    let v1 = Path::new(env!("CARGO_MANIFEST_DIR")).join("../obs/tests/fixtures/golden_v1.eraflt");
    let out = view(&[v1.to_str().unwrap(), "--summary"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unsupported dump version 1"), "{stderr}");
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn an_unknown_flag_exits_2() {
    let out = view(&["some.eraflt", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--frobnicate`"), "{stderr}");
}
