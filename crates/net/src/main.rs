//! `era-net serve` — run the TCP front-end over a fresh sharded store.
//!
//! Usage:
//!   era-net serve [--addr 127.0.0.1:0] [--scheme ebr|hp|he|ibr|nbr]
//!                 [--shards N] [--workers N] [--soft N] [--hard N]
//!                 [--duration SECS] [--addr-file PATH]
//!                 [--flight-dump out.eraflt]
//!
//! Defaults: ephemeral port on localhost, EBR, 4 shards, 4 workers,
//! soft budget 512, hard budget 2048, serve until SIGKILL (or for
//! `--duration` seconds). The bound address is printed to stdout (and
//! written to `--addr-file` when given) so scripts driving an
//! ephemeral port can discover it. The flight recorder is always
//! armed: a panic writes a crash `.eraflt`, and a clean `--duration`
//! exit writes the same dump. A flag with a missing or unparsable value
//! exits 2 naming the flag, and so does a `--hard` below `--soft`.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use era_kv::{KvConfig, KvStore};
use era_net::{NetConfig, NetServer};
use era_smr::{with_scheme, SchemeKind, Smr};

struct Options {
    addr: String,
    scheme: SchemeKind,
    shards: usize,
    workers: usize,
    soft: usize,
    hard: usize,
    duration: Option<Duration>,
    addr_file: Option<PathBuf>,
    flight_dump: PathBuf,
}

fn parse_options() -> Options {
    let mut opts = Options {
        addr: "127.0.0.1:0".to_string(),
        scheme: SchemeKind::Ebr,
        shards: 4,
        workers: 4,
        soft: 512,
        hard: 2_048,
        duration: None,
        addr_file: None,
        flight_dump: PathBuf::from("era-net.eraflt"),
    };
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => {}
        Some(other) => bad_args(&format!("unknown subcommand {other} (only `serve` exists)")),
        None => bad_args(&format!(
            "usage: era-net serve [--addr HOST:PORT] [--scheme {}] ...",
            SchemeKind::cli_names()
        )),
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = value(&mut args, "--addr"),
            "--scheme" => {
                let s: String = value(&mut args, "--scheme");
                opts.scheme = SchemeKind::parse(&s).unwrap_or_else(|| {
                    bad_args(&format!(
                        "unknown --scheme {s} (use {})",
                        SchemeKind::cli_names()
                    ))
                });
            }
            "--shards" => opts.shards = value::<usize>(&mut args, "--shards").max(1),
            "--workers" => opts.workers = value::<usize>(&mut args, "--workers").max(1),
            "--soft" => opts.soft = value(&mut args, "--soft"),
            "--hard" => opts.hard = value(&mut args, "--hard"),
            "--duration" => {
                let secs: f64 = value(&mut args, "--duration");
                let d = Duration::try_from_secs_f64(secs)
                    .unwrap_or_else(|_| bad_args(&format!("--duration {secs} is out of range")));
                opts.duration = Some(d);
            }
            "--addr-file" => opts.addr_file = Some(value(&mut args, "--addr-file")),
            "--flight-dump" => opts.flight_dump = value(&mut args, "--flight-dump"),
            other => bad_args(&format!("unknown argument {other}")),
        }
    }
    if opts.hard < opts.soft {
        bad_args(&format!(
            "--hard {} is below --soft {}: the budgets must be ordered",
            opts.hard, opts.soft
        ));
    }
    opts
}

/// Prints `msg` and exits 2, the status for a bad command line.
fn bad_args(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value after `flag`, parsed as `T`.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let v = args
        .next()
        .unwrap_or_else(|| bad_args(&format!("{flag} requires a value")));
    v.parse()
        .unwrap_or_else(|_| bad_args(&format!("{flag} {v} is not a valid value")))
}

fn serve_with<S: Smr>(schemes: &[S], opts: &Options) {
    let cfg = KvConfig {
        retired_soft: opts.soft,
        retired_hard: opts.hard,
        max_threads: opts.workers + 8,
        ..KvConfig::default()
    };
    let store = KvStore::new(schemes, cfg);
    let net_cfg = NetConfig {
        workers: opts.workers,
        ..NetConfig::default()
    };
    let server = match NetServer::bind(&store, net_cfg, opts.addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    server.flight().install_panic_hook(opts.flight_dump.clone());
    let addr = server.local_addr();
    println!(
        "era-net listening on {addr} ({} shards, {} workers, scheme {})",
        opts.shards,
        opts.workers,
        opts.scheme.id().name()
    );
    if let Some(path) = &opts.addr_file {
        // Scripts poll for this file to learn the ephemeral port; the
        // rename makes its appearance atomic.
        let tmp = path.with_extension("tmp");
        if let Err(e) =
            std::fs::write(&tmp, addr.to_string()).and_then(|()| std::fs::rename(&tmp, path))
        {
            eprintln!("failed to write addr file {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let handle = server.handle();
    let timer = opts.duration.map(|d| {
        std::thread::spawn(move || {
            std::thread::sleep(d);
            handle.shutdown();
        })
    });
    match server.run() {
        Ok(stats) => println!("era-net stopped: {stats}"),
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    }
    if let Some(t) = timer {
        let _ = t.join();
    }
    match server.write_flight(&opts.flight_dump) {
        Ok(()) => println!(
            "wrote flight dump to {} (replay with `era-view {0}`)",
            opts.flight_dump.display()
        ),
        Err(e) => eprintln!(
            "failed to write flight dump {}: {e}",
            opts.flight_dump.display()
        ),
    }
}

fn main() {
    let opts = parse_options();
    let capacity = opts.workers + 8;
    with_scheme!(opts.scheme, make => {
        let schemes: Vec<_> = (0..opts.shards).map(|_| make(capacity, 3)).collect();
        serve_with(&schemes, &opts)
    });
}
