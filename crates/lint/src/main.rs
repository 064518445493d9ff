//! era-lint CLI: `check`, `fixtures`, `rules`.

use std::path::PathBuf;
use std::process::ExitCode;

use era_lint::{check_tree, render_table, run_fixtures, Rule};

fn usage() -> ExitCode {
    eprintln!(
        "era-lint — workspace SMR-protocol static analyzer\n\
         \n\
         USAGE:\n\
         \x20 era-lint check [PATH]\n\
         \x20 era-lint fixtures [DIR]\n\
         \x20 era-lint rules\n\
         \n\
         A site is accepted only by a `// LINT: <op-scoped|quiescent|exclusive> — <reason>`\n\
         comment in the code.\n\
         Exit codes: 0 clean, 1 findings/expectation failures, 2 usage or IO error."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("fixtures") => cmd_fixtures(&args[1..]),
        Some("rules") => {
            for r in Rule::ALL {
                println!("{:28} {}", r.id(), r.describe());
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("era-lint: unknown flag {flag}");
        return ExitCode::from(2);
    }
    let root = match args {
        [] => PathBuf::from("."),
        [path] => PathBuf::from(path),
        _ => {
            eprintln!(
                "era-lint: check takes one PATH, got {}: {args:?}",
                args.len()
            );
            return ExitCode::from(2);
        }
    };
    let report = match check_tree(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("era-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    print!("{}", render_table(&report.findings, report.files_scanned));
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_fixtures(args: &[String]) -> ExitCode {
    let dir = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("crates/lint/fixtures"));
    let results = match run_fixtures(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("era-lint: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    if results.is_empty() {
        eprintln!("era-lint: no fixtures found under {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failed = 0usize;
    for r in &results {
        match &r.error {
            None => println!("ok   {}", r.name),
            Some(why) => {
                failed += 1;
                println!("FAIL {} — {}", r.name, why);
            }
        }
    }
    println!(
        "era-lint fixtures: {}/{} behaved as declared",
        results.len() - failed,
        results.len()
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
