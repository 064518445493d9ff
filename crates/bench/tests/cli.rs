//! The experiment binaries as processes: a malformed number, a value
//! out of range or an unknown argument exits 2 naming its flag or
//! position instead of running with a default,
//! `figure1` labels each trajectory row with the round it shows, and
//! the checked-in artifacts are gates: `chaos_bench` at its defaults
//! reproduces `BENCH_chaos_baseline.json` (E10), and `figure1 50` and
//! `figure2` print their golden stdout (F1, F2). `era_matrix 64` (T1)
//! has a golden file too, diffed by CI in release: unoptimized it
//! takes half a minute.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn malformed_numbers_exit_2_naming_the_flag_or_position() {
    for (bin, args, what) in [
        (
            env!("CARGO_BIN_EXE_chaos_bench"),
            &["--ops", "x"][..],
            "--ops",
        ),
        (env!("CARGO_BIN_EXE_figure1"), &["x"], "rounds"),
        (
            env!("CARGO_BIN_EXE_net_bench"),
            &["--addr", "127.0.0.1:1", "--pipeline", "x"],
            "--pipeline",
        ),
        // A flag throughput does not know, and a third positional, are
        // refused, not dropped.
        (
            env!("CARGO_BIN_EXE_throughput"),
            &["10", "8", "--report", "x"],
            "--report",
        ),
        (
            env!("CARGO_BIN_EXE_throughput"),
            &["10", "8", "9"],
            "argument 9",
        ),
        // Values out of range are refused before any connection.
        (
            env!("CARGO_BIN_EXE_net_bench"),
            &["--addr", "127.0.0.1:1", "--duration", "inf"],
            "--duration",
        ),
        (
            env!("CARGO_BIN_EXE_net_bench"),
            &["--addr", "127.0.0.1:1", "--dist", "zipf", "--theta", "1.5"],
            "--theta",
        ),
        (
            env!("CARGO_BIN_EXE_net_bench"),
            &["--addr", "127.0.0.1:1", "--keys", "-4"],
            "--keys",
        ),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(what), "{bin} {args:?}: {stderr}");
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn figure1_rows_are_the_distinct_checkpoint_rounds() {
    for (rounds, labels) in [
        ("12", &[1, 2, 3, 4, 6, 7, 8, 9, 10, 12][..]),
        ("5", &[1, 2, 3, 4, 5]),
    ] {
        let out = run(env!("CARGO_BIN_EXE_figure1"), &[rounds]);
        assert_eq!(out.status.code(), Some(0), "figure1 {rounds}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        // The trajectory table: its rule line, then one row per round.
        let rows: Vec<Vec<&str>> = stdout
            .lines()
            .skip_while(|l| !l.starts_with("---"))
            .skip(1)
            .take_while(|l| !l.trim().is_empty())
            .map(|l| l.split_whitespace().collect())
            .collect();
        let got: Vec<usize> = rows.iter().map(|r| r[0].parse().unwrap()).collect();
        assert_eq!(got, labels, "figure1 {rounds}");
        assert!(
            rows.iter().all(|r| r.len() == 8),
            "a count for each of the 7 schemes: {rows:?}"
        );
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn chaos_bench_reproduces_its_baseline() {
    let dir = std::env::temp_dir().join(format!("era-chaos-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("chaos.jsonl");
    let out = run(
        env!("CARGO_BIN_EXE_chaos_bench"),
        &["--report", report.to_str().unwrap()],
    );
    let got = std::fs::read_to_string(&report);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let (got, want) = (
        got.unwrap(),
        include_str!("../../../BENCH_chaos_baseline.json"),
    );
    assert_same_lines(&got, want, "chaos_bench --report");
}

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn figures_print_their_golden_output() {
    for (bin, args, golden) in [
        (
            env!("CARGO_BIN_EXE_figure1"),
            &["50"][..],
            include_str!("golden/figure1_50.txt"),
        ),
        (
            env!("CARGO_BIN_EXE_figure2"),
            &[],
            include_str!("golden/figure2.txt"),
        ),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(0), "{bin}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_same_lines(&stdout, golden, bin);
    }
}

/// `got` is the checked-in `want`, reported at its first differing line.
fn assert_same_lines(got: &str, want: &str, what: &str) {
    for (i, (got, want)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "{what}, line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{what}");
}
