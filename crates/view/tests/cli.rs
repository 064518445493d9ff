//! `era-view` as a process: what `--chain auto --limit` reports, the
//! exit codes for a dump it cannot read (1) and a flag it does not
//! know (2), and a reader that closes the pipe early (0).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use era_obs::dump::{FlightDump, SourceDump};
use era_obs::{Event, Hook, SchemeId};

fn view(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_era-view"))
        .args(args)
        .output()
        .expect("era-view runs")
}

/// A directory of `test`'s own: the tests run at once, and each
/// removes its directory when done.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("era_view_cli_{}_{test}", std::process::id()));
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
    let dir = scratch_dir("chain");
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

/// `era-view dump --timeline | head -1`: the reader takes one line and
/// closes the pipe while the timeline — far more than a pipe buffer —
/// is still being written. The viewer stops writing and exits 0, with
/// nothing on stderr.
#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn a_reader_that_closes_the_pipe_early_ends_the_output_not_the_process() {
    let dir = scratch_dir("pipe");
    let path = dir.join("long.eraflt");
    let mut src = SourceDump::new("ebr");
    src.events = (0..50_000u64)
        .map(|k| {
            let mut e = Event::new(0, SchemeId::EBR, Hook::Retire, 0xa000 + 64 * k, k);
            e.ts = k;
            e
        })
        .collect();
    let dump = FlightDump {
        wall_unix_ms: 0,
        sources: vec![src],
    };
    std::fs::write(&path, dump.encode()).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_era-view"))
        .args([path.to_str().unwrap(), "--timeline", "--limit", "50000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("era-view runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert_eq!(first, "== source `ebr` ==\n");
    // The reader, and with it the pipe's only read end, is gone here.
    let out = child.wait_with_output().expect("era-view exits");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
