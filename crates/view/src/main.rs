//! `era-view`: inspect `.eraflt` flight-recorder dumps.
//!
//! ```text
//! era-view <dump.eraflt> [MODE] [FILTERS]
//!
//! Modes (default: --summary):
//!   --summary           per-source overview: counts, scheme counters,
//!                       blame, orphan chains, violations
//!   --timeline          merged per-source event timeline
//!   --chain <ADDR|auto> life-cycle chain for one node address (hex ok),
//!                       or every full retire→orphaned→adopt→reclaim
//!                       chain with `auto`
//!   --blame             per-thread blocked-reclamation attribution
//!   --verdicts          gate on a `scenarios --report` JSONL file
//!                       instead of a dump: print the verdict table,
//!                       exit non-zero when any run failed
//!
//! Filters / options:
//!   --source LABEL      only the source with this label
//!   --thread N          only events from thread slot N
//!   --hook NAME         only events from this hook (e.g. retire)
//!   --addr HEX          only events whose a/b payload equals this addr
//!   --limit N           cap timeline output at N events (default 200)
//!   --bound N           retired-footprint bound robust schemes are
//!                       held to (enables Def-4.2 footprint checks)
//! ```

use std::error::Error;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use era_obs::dump::FlightDump;
use era_view::{find_violations, orphan_chain_addrs, render_event, Filter, NodeChain};

enum Mode {
    Summary,
    Timeline,
    Chain(ChainTarget),
    Blame,
    Verdicts,
}

enum ChainTarget {
    Addr(u64),
    Auto,
}

struct Options {
    path: String,
    mode: Mode,
    filter: Filter,
    source: Option<String>,
    limit: usize,
    bound: Option<u64>,
}

fn usage() -> &'static str {
    "usage: era-view <dump.eraflt|report.jsonl> \
     [--summary|--timeline|--chain <addr|auto>|--blame|--verdicts] \
     [--source LABEL] [--thread N] [--hook NAME] [--addr HEX] [--limit N] [--bound N]"
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("not a number: `{s}`"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut path = None;
    let mut mode = None;
    let mut filter = Filter::default();
    let mut source = None;
    let mut limit = 200usize;
    let mut bound = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--summary" => mode = Some(Mode::Summary),
            "--timeline" => mode = Some(Mode::Timeline),
            "--blame" => mode = Some(Mode::Blame),
            "--verdicts" => mode = Some(Mode::Verdicts),
            "--chain" => {
                let target = value("--chain")?;
                mode = Some(Mode::Chain(if target == "auto" {
                    ChainTarget::Auto
                } else {
                    ChainTarget::Addr(parse_u64(&target)?)
                }));
            }
            "--source" => source = Some(value("--source")?),
            "--thread" => {
                filter.thread = Some(
                    parse_u64(&value("--thread")?)?
                        .try_into()
                        .map_err(|_| "--thread out of u16 range".to_string())?,
                )
            }
            "--hook" => filter.hook = Some(value("--hook")?),
            "--addr" => filter.addr = Some(parse_u64(&value("--addr")?)?),
            "--limit" => limit = parse_u64(&value("--limit")?)? as usize,
            "--bound" => bound = Some(parse_u64(&value("--bound")?)?),
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err(format!("more than one dump path\n{}", usage()));
                }
            }
        }
    }
    Ok(Options {
        path: path.ok_or_else(|| usage().to_string())?,
        mode: mode.unwrap_or(Mode::Summary),
        filter,
        source,
        limit,
        bound,
    })
}

/// Stdout that takes a closed pipe (`era-view … | head`) as the end of
/// the output: every later write is dropped, and the exit code still
/// reports the dump's or the report's verdict.
struct Out<W> {
    inner: W,
    closed: bool,
}

impl<W: Write> Write for Out<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.closed {
            match self.inner.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                written => return written,
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.closed {
            match self.inner.flush() {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                flushed => return flushed,
            }
        }
        Ok(())
    }
}

fn run(opts: &Options, out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    // Verdict gating reads a scenarios report (JSON lines), not a
    // flight dump — branch before any .eraflt decoding.
    if let Mode::Verdicts = opts.mode {
        let text = std::fs::read_to_string(&opts.path)
            .map_err(|e| format!("cannot read `{}`: {e}", opts.path))?;
        let rows =
            era_view::scenario_verdicts(&text).map_err(|e| format!("`{}`: {e}", opts.path))?;
        write!(out, "{}", era_view::render_verdicts(&rows))?;
        if rows.iter().any(|r| !r.pass) {
            return Err("scenario report records failing verdicts (see table above)".into());
        }
        return Ok(());
    }

    let bytes =
        std::fs::read(&opts.path).map_err(|e| format!("cannot read `{}`: {e}", opts.path))?;
    let dump = FlightDump::decode(&bytes)
        .map_err(|e| format!("`{}` is not a readable .eraflt dump: {e}", opts.path))?;

    let sources: Vec<_> = dump
        .sources
        .iter()
        .filter(|s| opts.source.as_ref().is_none_or(|want| &s.label == want))
        .collect();
    if sources.is_empty() {
        return Err(match &opts.source {
            Some(label) => format!(
                "no source labelled `{label}` (have: {})",
                dump.sources
                    .iter()
                    .map(|s| s.label.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            None => "dump contains no sources".to_string(),
        }
        .into());
    }

    match &opts.mode {
        Mode::Summary => {
            if opts.source.is_some() {
                let scoped = FlightDump {
                    wall_unix_ms: dump.wall_unix_ms,
                    sources: sources.into_iter().cloned().collect(),
                };
                write!(out, "{}", era_view::summarize(&scoped, opts.bound))?;
            } else {
                write!(out, "{}", era_view::summarize(&dump, opts.bound))?;
            }
        }
        Mode::Timeline => {
            for source in sources {
                writeln!(out, "== source `{}` ==", source.label)?;
                let mut shown = 0usize;
                let mut matched = 0usize;
                for e in opts.filter.apply(source) {
                    matched += 1;
                    if shown < opts.limit {
                        writeln!(out, "{}", render_event(e))?;
                        shown += 1;
                    }
                }
                if matched > shown {
                    writeln!(out, "… {} more event(s) (raise --limit)", matched - shown)?;
                }
                if matched == 0 {
                    writeln!(out, "(no events match the filter)")?;
                }
                let health = era_view::render_health_timeline(source);
                if !health.is_empty() {
                    writeln!(out, "-- shard health --")?;
                    write!(out, "{health}")?;
                }
            }
        }
        Mode::Chain(target) => {
            for source in sources {
                writeln!(out, "== source `{}` ==", source.label)?;
                let addrs = match target {
                    ChainTarget::Addr(a) => vec![*a],
                    ChainTarget::Auto => {
                        let found = orphan_chain_addrs(source);
                        if found.is_empty() {
                            writeln!(out, "(no complete retire→orphaned→adopt→reclaim chains)")?;
                        }
                        found
                    }
                };
                let shown = opts.limit.max(1);
                for addr in addrs.iter().take(shown) {
                    write!(out, "{}", NodeChain::for_addr(source, *addr).render())?;
                }
                if addrs.len() > shown {
                    writeln!(
                        out,
                        "… {} more chain(s) (raise --limit)",
                        addrs.len() - shown
                    )?;
                }
            }
        }
        Mode::Verdicts => unreachable!("handled before dump decoding"),
        Mode::Blame => {
            for source in sources {
                writeln!(out, "== source `{}` ==", source.label)?;
                match &source.metrics {
                    Some(metrics) => {
                        let mut rows: Vec<(usize, u64)> = metrics
                            .blame
                            .iter()
                            .enumerate()
                            .filter(|(_, &c)| c > 0)
                            .map(|(t, &c)| (t, c))
                            .collect();
                        if rows.is_empty() {
                            writeln!(out, "no blocked reclamation recorded")?;
                            continue;
                        }
                        rows.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
                        let total: u64 = rows.iter().map(|&(_, c)| c).sum();
                        for (t, c) in rows {
                            writeln!(
                                out,
                                "thread {t:>3}: blamed for {c} blocked reclamation attempt(s) ({:.1}%)",
                                100.0 * c as f64 / total as f64
                            )?;
                        }
                    }
                    None => writeln!(out, "dump carries no metrics for this source")?,
                }
            }
        }
    }

    // Exit non-zero when the dump records genuine safety problems, so
    // CI can gate on `era-view`'s verdict (truncation alone does not
    // fail the run — lossy rings are expected under load).
    let hard_violation = sources_have_hard_violations(&dump, opts);
    if hard_violation {
        return Err("dump records Def-4.2 violations (see report above)".into());
    }
    Ok(())
}

fn sources_have_hard_violations(dump: &FlightDump, opts: &Options) -> bool {
    dump.sources
        .iter()
        .filter(|s| opts.source.as_ref().is_none_or(|want| &s.label == want))
        .flat_map(|s| find_violations(s, opts.bound))
        .any(|v| {
            matches!(
                v,
                era_view::Violation::OracleUnsafeAccess { .. }
                    | era_view::Violation::FootprintBoundExceeded { .. }
            )
        })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut out = BufWriter::new(Out {
        inner: io::stdout().lock(),
        closed: false,
    });
    let ran = run(&opts, &mut out);
    // The report reaches stdout before the verdict reaches stderr.
    let flushed = out.flush();
    match ran.and_then(|()| Ok(flushed?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("era-view: {msg}");
            ExitCode::FAILURE
        }
    }
}
