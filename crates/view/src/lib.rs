//! # era-view: post-mortem analysis of `.eraflt` flight dumps
//!
//! The library behind the `era-view` CLI. Given a decoded
//! [`FlightDump`] (written by `era_obs::flight::FlightRecorder` on a
//! panic, an injected fault, or an explicit snapshot), it reconstructs
//! what a debugger of a reclamation bug actually needs:
//!
//! - the **merged cross-thread timeline** of each source, filterable
//!   by thread, hook, and payload address;
//! - the **per-node life-cycle chain** — retire→reclaim, or
//!   retire→*orphaned*→adopt→reclaim when the retiring context died
//!   mid-pin (the pointer-life-cycle view of Meyer & Wolff applied to
//!   trace data);
//! - a **summary** with honest truncation accounting (ring drops +
//!   retention-cap trims), per-hook counts, scheme counters, and blame
//!   attribution;
//! - **Definition-4.2-style violation flags**: oracle-recorded unsafe
//!   accesses, plus retired-footprint excursions beyond a per-scheme
//!   robustness bound for schemes the ERA matrix classifies as robust.
//!
//! Timestamps are logical and per-source (each recorder owns its own
//! clock), so all reconstruction is done within a source; sources are
//! presented side by side, never interleaved.

use era_obs::dump::{FlightDump, SourceDump, DUMP_VERSION};
use era_obs::{Event, Hook, Json, SchemeId};
use era_smr::SchemeKind;

/// Renders one event as a human-readable timeline line (tolerating
/// hook/scheme bytes outside this build's vocabulary — dumps are
/// self-describing, old readers must not crash on new writers).
pub fn render_event(e: &Event) -> String {
    let hook = hook_label(e.hook);
    let scheme = SchemeId(e.scheme);
    match Hook::from_u8(e.hook) {
        Some(Hook::Retire) => format!(
            "[{:>8}] t{:<3} {:<5} retire   node={:#x} retired_now={}",
            e.ts,
            e.thread,
            scheme.name(),
            e.a,
            e.b
        ),
        Some(Hook::Reclaim) => format!(
            "[{:>8}] t{:<3} {:<5} reclaim  node={:#x} latency={} protocol ticks",
            e.ts,
            e.thread,
            scheme.name(),
            e.a,
            e.b
        ),
        Some(Hook::Adopt) => format!(
            "[{:>8}] t{:<3} {:<5} adopt    orphans={} retired_now={}",
            e.ts,
            e.thread,
            scheme.name(),
            e.a,
            e.b
        ),
        Some(Hook::Fault) => format!(
            "[{:>8}] t{:<3} {:<5} fault    kind={} at_op={}",
            e.ts,
            e.thread,
            scheme.name(),
            fault_kind_name(e.a),
            e.b
        ),
        Some(Hook::Navigate) => format!(
            "[{:>8}] t{:<3} {:<5} navigate shard={} {}→{}",
            e.ts,
            e.thread,
            scheme.name(),
            e.a,
            health_state_name(e.b >> 8),
            health_state_name(e.b & 0xff)
        ),
        Some(Hook::Shed) if e.a == u64::MAX => format!(
            "[{:>8}] t{:<3} {:<5} shed     conn={} (accept queue full, connection dropped)",
            e.ts,
            e.thread,
            scheme.name(),
            e.b
        ),
        Some(Hook::Shed) => format!(
            "[{:>8}] t{:<3} {:<5} shed     shard={} sheds_so_far={}",
            e.ts,
            e.thread,
            scheme.name(),
            e.a,
            e.b
        ),
        Some(Hook::Accept) => format!(
            "[{:>8}] t{:<3} {:<5} accept   conn={} queue={}",
            e.ts,
            e.thread,
            scheme.name(),
            e.a,
            e.b
        ),
        _ => format!(
            "[{:>8}] t{:<3} {:<5} {:<8} a={:#x} b={}",
            e.ts,
            e.thread,
            scheme.name(),
            hook,
            e.a,
            e.b
        ),
    }
}

fn hook_label(raw: u8) -> String {
    match Hook::from_u8(raw) {
        Some(h) => h.name().to_string(),
        None => format!("hook#{raw}"),
    }
}

/// Names the chaos fault-kind discriminant carried by `Hook::Fault`
/// events (mirrors `era_chaos::FaultAction::kind`, re-declared because
/// era-view depends only on era-obs).
pub fn fault_kind_name(kind: u64) -> &'static str {
    match kind {
        0 => "die-pinned",
        1 => "stall",
        2 => "delay-flush",
        3 => "fail-register",
        4 => "exhaust-slots",
        5 => "restart-storm",
        _ => "unknown",
    }
}

/// Names a `ShardHealth` discriminant carried by `Hook::Navigate`
/// payloads (re-declared because era-view depends only on era-obs).
pub fn health_state_name(raw: u64) -> &'static str {
    match raw {
        0 => "Robust",
        1 => "Degrading",
        2 => "Violating",
        3 => "Quarantined",
        _ => "?",
    }
}

/// A contiguous interval one shard spent in one health class,
/// reconstructed from the source's `Hook::Navigate` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSpan {
    /// Shard index (`Navigate`'s `a` payload).
    pub shard: u64,
    /// Health-class discriminant (see [`health_state_name`]).
    pub state: u64,
    /// Logical timestamp the shard entered this class. The first span
    /// of a shard starts at 0: navigator ticks only emit `Navigate` on
    /// a *transition*, so the pre-transition class ran from the start
    /// of the trace.
    pub from_ts: u64,
    /// Timestamp of the transition out, or `None` while still open at
    /// the end of the dump.
    pub to_ts: Option<u64>,
}

impl HealthSpan {
    /// Renders the span for the health timeline, e.g.
    /// `Violating [120..180)`.
    pub fn render(&self) -> String {
        match self.to_ts {
            Some(to) => format!(
                "{} [{}..{})",
                health_state_name(self.state),
                self.from_ts,
                to
            ),
            None => format!("{} [{}..end]", health_state_name(self.state), self.from_ts),
        }
    }
}

/// Reconstructs per-shard health history from `Hook::Navigate` events
/// (`a` = shard, `b` = `old << 8 | new`). Spans are returned grouped
/// by shard, each shard's spans in ascending time; the first span of a
/// shard is synthesized from the first transition's `old` state, and
/// the last span of each shard is open (`to_ts == None`).
pub fn health_spans(source: &SourceDump) -> Vec<HealthSpan> {
    // shard → index of its currently-open span in `spans`.
    let mut open: Vec<(u64, usize)> = Vec::new();
    let mut spans: Vec<HealthSpan> = Vec::new();
    for e in &source.events {
        if Hook::from_u8(e.hook) != Some(Hook::Navigate) {
            continue;
        }
        let (shard, old, new) = (e.a, e.b >> 8, e.b & 0xff);
        match open.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, idx)) => {
                spans[*idx].to_ts = Some(e.ts);
                spans.push(HealthSpan {
                    shard,
                    state: new,
                    from_ts: e.ts,
                    to_ts: None,
                });
                *idx = spans.len() - 1;
            }
            None => {
                // First transition seen for this shard: the `old`
                // class was in force since the start of the trace.
                spans.push(HealthSpan {
                    shard,
                    state: old,
                    from_ts: 0,
                    to_ts: Some(e.ts),
                });
                spans.push(HealthSpan {
                    shard,
                    state: new,
                    from_ts: e.ts,
                    to_ts: None,
                });
                open.push((shard, spans.len() - 1));
            }
        }
    }
    spans.sort_by_key(|s| (s.shard, s.from_ts));
    spans
}

/// Renders the per-shard health timeline of a source — one line per
/// shard that ever transitioned, e.g.
/// `shard 0: Robust [0..40) → Violating [40..210) → Robust [210..end]`.
/// Returns an empty string when the source has no `Navigate` events.
pub fn render_health_timeline(source: &SourceDump) -> String {
    let spans = health_spans(source);
    let mut out = String::new();
    let mut shard = None;
    for span in &spans {
        if shard != Some(span.shard) {
            if shard.is_some() {
                out.push('\n');
            }
            out.push_str(&format!("shard {}: {}", span.shard, span.render()));
            shard = Some(span.shard);
        } else {
            out.push_str(&format!(" → {}", span.render()));
        }
    }
    if !spans.is_empty() {
        out.push('\n');
    }
    out
}

/// Timeline filter: all fields are conjunctive; `None` matches all.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    /// Keep only this producing thread slot.
    pub thread: Option<u16>,
    /// Keep only this hook (by stable name).
    pub hook: Option<String>,
    /// Keep only events whose `a` or `b` payload equals this address.
    pub addr: Option<u64>,
}

impl Filter {
    /// Whether `e` passes the filter.
    pub fn matches(&self, e: &Event) -> bool {
        if let Some(t) = self.thread {
            if e.thread != t {
                return false;
            }
        }
        if let Some(hook) = &self.hook {
            if hook_label(e.hook) != *hook {
                return false;
            }
        }
        if let Some(addr) = self.addr {
            if e.a != addr && e.b != addr {
                return false;
            }
        }
        true
    }

    /// Applies the filter to a source's events.
    pub fn apply<'a>(&'a self, source: &'a SourceDump) -> impl Iterator<Item = &'a Event> {
        source.events.iter().filter(move |e| self.matches(e))
    }
}

/// One link in a node's life-cycle chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainLink {
    /// The node entered the heap (simulator traces only).
    Allocated {
        /// Logical timestamp.
        ts: u64,
    },
    /// The node was unlinked and handed to the scheme.
    Retired {
        /// Logical timestamp.
        ts: u64,
        /// Retiring thread slot.
        thread: u16,
        /// Retired population right after the call.
        retired_now: u64,
    },
    /// A die-pinned fault killed a context while the node was
    /// retired-but-unreclaimed: the node's custody was orphaned.
    Orphaned {
        /// Logical timestamp of the fault.
        ts: u64,
        /// Thread slot the fault event was attributed to.
        thread: u16,
    },
    /// A survivor adopted orphaned garbage (the node may be among the
    /// `orphans` adopted in this batch).
    Adopted {
        /// Logical timestamp.
        ts: u64,
        /// Adopting thread slot.
        thread: u16,
        /// Orphans absorbed in this adoption.
        orphans: u64,
    },
    /// The node was actually freed.
    Reclaimed {
        /// Logical timestamp.
        ts: u64,
        /// Reclaiming thread slot.
        thread: u16,
        /// Retire→reclaim latency in trace ticks — ticking protocol
        /// events (reclaims, epoch advances, …) on the source's
        /// recorder in between; operations and retires do not advance
        /// the clock.
        latency: u64,
    },
}

impl ChainLink {
    /// The link's logical timestamp.
    pub fn ts(&self) -> u64 {
        match *self {
            ChainLink::Allocated { ts }
            | ChainLink::Retired { ts, .. }
            | ChainLink::Orphaned { ts, .. }
            | ChainLink::Adopted { ts, .. }
            | ChainLink::Reclaimed { ts, .. } => ts,
        }
    }

    /// Renders the link for the chain report.
    pub fn render(&self) -> String {
        match *self {
            ChainLink::Allocated { ts } => format!("[{ts:>8}] allocated"),
            ChainLink::Retired {
                ts,
                thread,
                retired_now,
            } => format!("[{ts:>8}] retired by t{thread} (retired_now={retired_now})"),
            ChainLink::Orphaned { ts, thread } => format!(
                "[{ts:>8}] ORPHANED: die-pinned fault killed a context (t{thread}) while the node was unreclaimed"
            ),
            ChainLink::Adopted {
                ts,
                thread,
                orphans,
            } => format!("[{ts:>8}] adopted by t{thread} (batch of {orphans} orphans)"),
            ChainLink::Reclaimed {
                ts,
                thread,
                latency,
            } => format!("[{ts:>8}] reclaimed by t{thread} (retire→reclaim latency {latency} protocol ticks)"),
        }
    }
}

/// The reconstructed life cycle of one node address within a source.
#[derive(Debug, Clone)]
pub struct NodeChain {
    /// The node address the chain is about.
    pub addr: u64,
    /// Links in merge order ([`Event::merge_key`]): ascending
    /// timestamp, a reading event before the ticker it ties with.
    pub links: Vec<ChainLink>,
}

impl NodeChain {
    /// Reconstructs the chain for `addr` from a source's events.
    ///
    /// Retire and Reclaim carry the address directly (`a` payload); a
    /// protected load is counted, not recorded, so it is no link (a
    /// `Load` in a dump written before that rule is skipped).
    /// Orphaning is inferred: a `Fault` event
    /// of the die-pinned kind, or an `Adopt` event, landing *between*
    /// the node's retire and its reclaim (or dump end) means the
    /// node's custody was in flight while a context died — exactly the
    /// retire→orphaned→adopt chain the adoption protocol (DESIGN
    /// §3.9) promises to close.
    pub fn for_addr(source: &SourceDump, addr: u64) -> NodeChain {
        let mut links = Vec::new();
        let mut retire_ts = None;
        let mut reclaim_ts = None;
        for e in &source.events {
            match Hook::from_u8(e.hook) {
                Some(Hook::Alloc) if e.a == addr => links.push(ChainLink::Allocated { ts: e.ts }),
                Some(Hook::Retire) if e.a == addr => {
                    retire_ts.get_or_insert(e.ts);
                    links.push(ChainLink::Retired {
                        ts: e.ts,
                        thread: e.thread,
                        retired_now: e.b,
                    });
                }
                Some(Hook::Reclaim) if e.a == addr => {
                    reclaim_ts.get_or_insert(e.ts);
                    links.push(ChainLink::Reclaimed {
                        ts: e.ts,
                        thread: e.thread,
                        latency: e.b,
                    });
                }
                _ => {}
            }
        }
        if let Some(rt) = retire_ts {
            // The window follows merge order, not timestamps: a `Retire`
            // reads the clock, so a ticker tied with its stamp sorts
            // after it and is inside; one tied with the `Reclaim`'s
            // unique tick is that `Reclaim`.
            let window_end = reclaim_ts.unwrap_or(u64::MAX);
            for e in &source.events {
                if e.ts < rt || e.ts >= window_end {
                    continue;
                }
                match Hook::from_u8(e.hook) {
                    Some(Hook::Fault) if e.a == 0 => links.push(ChainLink::Orphaned {
                        ts: e.ts,
                        thread: e.thread,
                    }),
                    Some(Hook::Adopt) => links.push(ChainLink::Adopted {
                        ts: e.ts,
                        thread: e.thread,
                        orphans: e.a,
                    }),
                    _ => {}
                }
            }
        }
        links.sort_by_key(|l| l.ts());
        NodeChain { addr, links }
    }

    /// Whether the chain shows the full orphan story:
    /// retire → die-pinned fault → adopt → reclaim.
    pub fn is_orphan_chain(&self) -> bool {
        let mut saw = (false, false, false, false);
        for link in &self.links {
            match link {
                ChainLink::Retired { .. } => saw.0 = true,
                ChainLink::Orphaned { .. } if saw.0 => saw.1 = true,
                ChainLink::Adopted { .. } if saw.1 => saw.2 = true,
                ChainLink::Reclaimed { .. } if saw.2 => saw.3 = true,
                _ => {}
            }
        }
        saw.3
    }

    /// Whether the node was retired but never reclaimed in the dump —
    /// either still pending at snapshot time or leaked.
    pub fn is_outstanding(&self) -> bool {
        let retired = self
            .links
            .iter()
            .any(|l| matches!(l, ChainLink::Retired { .. }));
        let reclaimed = self
            .links
            .iter()
            .any(|l| matches!(l, ChainLink::Reclaimed { .. }));
        retired && !reclaimed
    }

    /// Renders the chain as one line per link (plus a verdict).
    pub fn render(&self) -> String {
        let mut out = format!("node {:#x}:\n", self.addr);
        if self.links.is_empty() {
            out.push_str("  (no events mention this address)\n");
            return out;
        }
        for link in &self.links {
            out.push_str("  ");
            out.push_str(&link.render());
            out.push('\n');
        }
        if self.is_orphan_chain() {
            out.push_str(
                "  => full orphan chain: retired, orphaned by a context death, \
                 adopted by a survivor, reclaimed.\n",
            );
        } else if self.is_outstanding() {
            out.push_str("  => outstanding: retired but not reclaimed within the dump.\n");
        }
        out
    }
}

/// Addresses in `source` whose chains show the complete
/// retire→orphaned→adopt→reclaim story (candidates for `--chain auto`).
pub fn orphan_chain_addrs(source: &SourceDump) -> Vec<u64> {
    let mut addrs: Vec<u64> = source
        .events
        .iter()
        .filter(|e| Hook::from_u8(e.hook) == Some(Hook::Retire))
        .map(|e| e.a)
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs
        .into_iter()
        .filter(|&a| NodeChain::for_addr(source, a).is_orphan_chain())
        .collect()
}

/// A flagged problem found in a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The simulator oracle recorded a Definition-4.2 unsafe access.
    OracleUnsafeAccess {
        /// Logical timestamp.
        ts: u64,
        /// Accessed address.
        addr: u64,
    },
    /// A scheme the ERA matrix classifies as robust exceeded the given
    /// retired-footprint bound.
    FootprintBoundExceeded {
        /// The scheme.
        scheme: SchemeId,
        /// Observed retired-population high-water mark.
        observed: u64,
        /// The bound it was checked against.
        bound: u64,
    },
    /// Trace truncation: the dump is known incomplete (ring overwrite),
    /// so absence of evidence in it is not evidence of absence.
    TruncatedTrace {
        /// Events lost to ring overwrite.
        dropped: u64,
    },
}

impl Violation {
    /// Renders the violation for the summary report.
    pub fn render(&self) -> String {
        match self {
            Violation::OracleUnsafeAccess { ts, addr } => {
                format!("[{ts:>8}] Def-4.2 violation: unsafe access to {addr:#x} (oracle)")
            }
            Violation::FootprintBoundExceeded {
                scheme,
                observed,
                bound,
            } => format!(
                "footprint: {} is classified robust but retired_peak {observed} exceeds bound {bound}",
                scheme.name()
            ),
            Violation::TruncatedTrace { dropped } => format!(
                "truncated trace: {dropped} events lost to ring overwrite — this dump is incomplete"
            ),
        }
    }
}

/// Scans one source for violations.
///
/// `bound` is the retired-footprint budget robust schemes are held to
/// (`--bound` on the CLI), where robust means weakly robust or better
/// in the registry ([`SchemeKind::class`]); `None` skips the footprint check — the
/// bound depends on scheme parameters (slots × threads) the dump does
/// not carry, so it must come from the operator.
pub fn find_violations(source: &SourceDump, bound: Option<u64>) -> Vec<Violation> {
    let mut out = Vec::new();
    for e in &source.events {
        if Hook::from_u8(e.hook) == Some(Hook::OracleViolation) {
            out.push(Violation::OracleUnsafeAccess {
                ts: e.ts,
                addr: e.a,
            });
        }
    }
    if let Some(bound) = bound {
        // Observed peak: the scheme-reported high-water mark when the
        // dump carries stats, else the max retired-population payload
        // any Retire/Sample event recorded.
        let mut per_scheme_peak: Vec<(SchemeId, u64)> = Vec::new();
        for e in &source.events {
            let pop = match Hook::from_u8(e.hook) {
                Some(Hook::Retire) => e.b,
                Some(Hook::Sample) => e.a,
                _ => continue,
            };
            let scheme = SchemeId(e.scheme);
            match per_scheme_peak.iter_mut().find(|(s, _)| *s == scheme) {
                Some((_, peak)) => *peak = (*peak).max(pop),
                None => per_scheme_peak.push((scheme, pop)),
            }
        }
        if let Some(stats) = &source.stats {
            if let Some(scheme) = dominant_scheme(source) {
                match per_scheme_peak.iter_mut().find(|(s, _)| *s == scheme) {
                    Some((_, peak)) => *peak = (*peak).max(stats.retired_peak),
                    None => per_scheme_peak.push((scheme, stats.retired_peak)),
                }
            }
        }
        for (scheme, observed) in per_scheme_peak {
            let robust = SchemeKind::from_id(scheme).is_some_and(|k| k.class().is_weakly_robust());
            if robust && observed > bound {
                out.push(Violation::FootprintBoundExceeded {
                    scheme,
                    observed,
                    bound,
                });
            }
        }
    }
    if source.dropped > 0 {
        out.push(Violation::TruncatedTrace {
            dropped: source.dropped,
        });
    }
    out
}

/// The scheme that produced the most events in `source` (sources are
/// usually single-scheme; this resolves the label for stats checks).
pub fn dominant_scheme(source: &SourceDump) -> Option<SchemeId> {
    let mut counts: Vec<(u8, usize)> = Vec::new();
    for e in &source.events {
        match counts.iter_mut().find(|(s, _)| *s == e.scheme) {
            Some((_, n)) => *n += 1,
            None => counts.push((e.scheme, 1)),
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .map(|(s, _)| SchemeId(s))
}

/// Builds the plain-text summary of a whole dump.
pub fn summarize(dump: &FlightDump, bound: Option<u64>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "era-flight dump v{DUMP_VERSION} — {} source(s), {} event(s)\n",
        dump.sources.len(),
        dump.event_count(),
    ));
    if dump.wall_unix_ms > 0 {
        out.push_str(&format!(
            "captured at unix epoch +{}.{:03}s\n",
            dump.wall_unix_ms / 1000,
            dump.wall_unix_ms % 1000
        ));
    }
    let dropped = dump.total_dropped();
    let trimmed = dump.total_trimmed();
    if dropped > 0 || trimmed > 0 {
        out.push_str(&format!(
            "INCOMPLETE: {dropped} event(s) lost to ring overwrite, {trimmed} trimmed by the retention cap\n"
        ));
    } else {
        out.push_str("complete: no ring drops, no cap trims\n");
    }
    for source in &dump.sources {
        out.push('\n');
        out.push_str(&summarize_source(source, bound));
    }
    out
}

fn summarize_source(source: &SourceDump, bound: Option<u64>) -> String {
    let mut out = format!(
        "source `{}`: {} event(s), {} dropped, {} trimmed\n",
        source.label,
        source.events.len(),
        source.dropped,
        source.trimmed
    );
    if let Some(stats) = &source.stats {
        out.push_str(&format!(
            "  scheme counters: retired_now={} retired_peak={} total_retired={} total_reclaimed={} era={}\n",
            stats.retired_now, stats.retired_peak, stats.total_retired, stats.total_reclaimed, stats.era
        ));
    }
    if let Some(metrics) = &source.metrics {
        let fired: Vec<String> = Hook::ALL
            .iter()
            .filter(|&&h| metrics.hook_count(h) > 0)
            .map(|&h| format!("{}={}", h.name(), metrics.hook_count(h)))
            .collect();
        if !fired.is_empty() {
            out.push_str(&format!("  hook counts: {}\n", fired.join(" ")));
        }
        let blamed: Vec<String> = metrics
            .blame
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(t, &c)| format!("t{t}×{c}"))
            .collect();
        if !blamed.is_empty() {
            out.push_str(&format!(
                "  blame (blocked reclamation): {}\n",
                blamed.join(" ")
            ));
        }
        if metrics.latency.total() > 0 {
            out.push_str(&format!(
                "  retire→reclaim latency (protocol ticks): p50≤{} p99≤{} max≤{} ({} samples)\n",
                metrics.latency.quantile_upper_bound(0.5),
                metrics.latency.quantile_upper_bound(0.99),
                metrics.latency.quantile_upper_bound(1.0),
                metrics.latency.total()
            ));
        }
    }
    let orphans = orphan_chain_addrs(source);
    if !orphans.is_empty() {
        let shown: Vec<String> = orphans.iter().take(4).map(|a| format!("{a:#x}")).collect();
        out.push_str(&format!(
            "  orphan chains (retire→orphaned→adopt→reclaim): {} node(s), e.g. {}\n",
            orphans.len(),
            shown.join(" ")
        ));
    }
    let violations = find_violations(source, bound);
    if violations.is_empty() {
        out.push_str("  violations: none\n");
    } else {
        out.push_str(&format!("  violations ({}):\n", violations.len()));
        for v in violations.iter().take(8) {
            out.push_str(&format!("    {}\n", v.render()));
        }
        if violations.len() > 8 {
            out.push_str(&format!("    … and {} more\n", violations.len() - 8));
        }
    }
    out
}

/// One `(scenario, scheme)` row read out of an era-scenarios
/// campaign report (`scenarios --report out.jsonl`).
///
/// The report is JSON-lines with a top-level `"verdict":"pass"|"fail"`
/// per run; this is the record `era-view --verdicts` gates CI on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioVerdict {
    /// The scenario's name.
    pub scenario: String,
    /// Display name of the scheme under test (e.g. `EBR`).
    pub scheme: String,
    /// Whether the run's verdict was `pass`.
    pub pass: bool,
    /// Names of the invariants that failed (empty on pass).
    pub failed: Vec<String>,
}

/// Parses a campaign report into verdict rows, skipping blank lines
/// and records of other kinds.
///
/// Every field is read from the parsed top-level object (and
/// `invariants[].{name,ok}` from its array), so a line torn anywhere —
/// a killed run, a full disk — is an error, not a pass, and the
/// embedded `spec`'s own `name` keys are out of reach.
///
/// # Errors
///
/// When a non-blank line is not valid JSON (naming the line), when a
/// scenario record is missing its verdict fields, or when no scenario
/// record is found at all (the file is probably not a
/// `scenarios --report` output).
pub fn scenario_verdicts(text: &str) -> Result<Vec<ScenarioVerdict>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.get("record").and_then(Json::as_str) != Some("scenario") {
            continue;
        }
        let lacks = |key: &str| format!("line {}: scenario record lacks \"{key}\"", i + 1);
        let field = |key: &str| {
            let value = rec.get(key).and_then(Json::as_str);
            value.ok_or_else(|| lacks(key))
        };
        let scenario = field("scenario")?.to_string();
        let scheme = field("scheme")?.to_string();
        let pass = match field("verdict")? {
            "pass" => true,
            "fail" => false,
            other => return Err(format!("line {}: unknown verdict `{other}`", i + 1)),
        };
        let invariants = rec.get("invariants").and_then(Json::as_array);
        let mut failed = Vec::new();
        for inv in invariants.ok_or_else(|| lacks("invariants"))? {
            let ok = inv.get("ok").and_then(Json::as_bool);
            if !ok.ok_or_else(|| lacks("invariants[].ok"))? {
                let name = inv.get("name").and_then(Json::as_str);
                failed.push(name.ok_or_else(|| lacks("invariants[].name"))?.to_string());
            }
        }
        out.push(ScenarioVerdict {
            scenario,
            scheme,
            pass,
            failed,
        });
    }
    if out.is_empty() {
        return Err("no scenario records found (expected `scenarios --report` JSON lines)".into());
    }
    Ok(out)
}

/// Renders verdict rows as the table `era-view --verdicts` prints,
/// ending with a one-line tally.
pub fn render_verdicts(rows: &[ScenarioVerdict]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!(
            "{:4} {:24} {:5}  {}\n",
            if row.pass { "ok" } else { "FAIL" },
            row.scenario,
            row.scheme,
            if row.failed.is_empty() {
                "all invariants held".to_string()
            } else {
                format!("failed: {}", row.failed.join(", "))
            }
        ));
    }
    let failures = rows.iter().filter(|r| !r.pass).count();
    out.push_str(&format!("{} run(s), {} failure(s)\n", rows.len(), failures));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_obs::dump::DumpStats;

    fn ev(thread: u16, ts: u64, hook: Hook, a: u64, b: u64) -> Event {
        let mut e = Event::new(thread, SchemeId::EBR, hook, a, b);
        e.ts = ts;
        e
    }

    fn orphan_source() -> SourceDump {
        let mut src = SourceDump::new("EBR");
        src.events = vec![
            ev(0, 1, Hook::BeginOp, 0, 0),
            ev(0, 2, Hook::Retire, 0x1000, 1),
            ev(1, 3, Hook::Load, 0, 0x1000),
            ev(2, 4, Hook::Fault, 0, 9),
            ev(1, 5, Hook::Adopt, 3, 4),
            ev(1, 6, Hook::Reclaim, 0x1000, 4),
            ev(0, 7, Hook::Retire, 0x2000, 1),
        ];
        src
    }

    #[test]
    fn orphan_chain_is_reconstructed_in_order() {
        let src = orphan_source();
        let chain = NodeChain::for_addr(&src, 0x1000);
        assert!(chain.is_orphan_chain());
        assert!(!chain.is_outstanding());
        let kinds: Vec<&str> = chain
            .links
            .iter()
            .map(|l| match l {
                ChainLink::Allocated { .. } => "alloc",
                ChainLink::Retired { .. } => "retire",
                ChainLink::Orphaned { .. } => "orphan",
                ChainLink::Adopted { .. } => "adopt",
                ChainLink::Reclaimed { .. } => "reclaim",
            })
            .collect();
        // The old dump's `Load` of the node is no link.
        assert_eq!(kinds, vec!["retire", "orphan", "adopt", "reclaim"]);
        assert_eq!(orphan_chain_addrs(&src), vec![0x1000]);
        let rendered = chain.render();
        assert!(rendered.contains("ORPHANED"));
        assert!(rendered.contains("full orphan chain"));
    }

    #[test]
    fn a_ticker_tied_with_the_retire_stamp_is_inside_the_orphan_window() {
        // `Retire` reads the clock, so the die-pinned `Fault` that
        // ticked 4 → 5 sorts after the retire that read 4.
        let mut src = SourceDump::new("HP");
        src.events = vec![
            ev(0, 4, Hook::Retire, 0x1000, 1),
            ev(65532, 4, Hook::Fault, 0, 9),
            ev(1, 5, Hook::Adopt, 1, 1),
            ev(1, 6, Hook::Reclaim, 0x1000, 2),
        ];
        assert!(src
            .events
            .windows(2)
            .all(|w| w[0].merge_key() < w[1].merge_key()));
        let chain = NodeChain::for_addr(&src, 0x1000);
        assert!(chain.is_orphan_chain(), "{}", chain.render());
        assert_eq!(orphan_chain_addrs(&src), vec![0x1000]);
    }

    #[test]
    fn outstanding_node_is_flagged() {
        let src = orphan_source();
        let chain = NodeChain::for_addr(&src, 0x2000);
        assert!(chain.is_outstanding());
        assert!(!chain.is_orphan_chain());
        assert!(chain.render().contains("outstanding"));
    }

    #[test]
    fn filters_compose() {
        let src = orphan_source();
        let f = Filter {
            thread: Some(1),
            ..Filter::default()
        };
        assert_eq!(f.apply(&src).count(), 3);
        let f = Filter {
            addr: Some(0x1000),
            ..Filter::default()
        };
        assert_eq!(f.apply(&src).count(), 3, "retire + load(b) + reclaim");
        let f = Filter {
            hook: Some("adopt".to_string()),
            thread: Some(1),
            ..Filter::default()
        };
        assert_eq!(f.apply(&src).count(), 1);
    }

    #[test]
    fn violations_flag_oracle_footprint_and_truncation() {
        let mut src = SourceDump::new("HP");
        let mk = |ts, hook, a, b| {
            let mut e = Event::new(0, SchemeId::HP, hook, a, b);
            e.ts = ts;
            e
        };
        src.events = vec![
            mk(1, Hook::Retire, 0x10, 500),
            mk(2, Hook::OracleViolation, 0xbad, 1),
        ];
        src.dropped = 3;
        src.stats = Some(DumpStats {
            retired_peak: 900,
            ..DumpStats::default()
        });
        let v = find_violations(&src, Some(256));
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::OracleUnsafeAccess { addr: 0xbad, .. })));
        assert!(v.iter().any(|v| matches!(
            v,
            Violation::FootprintBoundExceeded {
                observed: 900,
                bound: 256,
                ..
            }
        )));
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::TruncatedTrace { dropped: 3 })));

        // EBR (non-robust) exceeding the same bound is NOT a violation:
        // unbounded growth is the trade-off it declared.
        let mut ebr = SourceDump::new("EBR");
        ebr.events = vec![ev(0, 1, Hook::Retire, 0x10, 5000)];
        assert!(find_violations(&ebr, Some(256)).is_empty());
    }

    #[test]
    fn health_spans_reconstruct_per_shard_history() {
        let mut src = SourceDump::new("net");
        // shard 0: Robust→Degrading at 10, Degrading→Violating at 20,
        // Violating→Robust at 50; shard 1: Robust→Degrading at 30.
        src.events = vec![
            ev(9, 10, Hook::Navigate, 0, 1),
            ev(9, 20, Hook::Navigate, 0, (1 << 8) | 2),
            ev(9, 30, Hook::Navigate, 1, 1),
            ev(9, 50, Hook::Navigate, 0, 2 << 8),
        ];
        let spans = health_spans(&src);
        assert_eq!(
            spans,
            vec![
                HealthSpan {
                    shard: 0,
                    state: 0,
                    from_ts: 0,
                    to_ts: Some(10)
                },
                HealthSpan {
                    shard: 0,
                    state: 1,
                    from_ts: 10,
                    to_ts: Some(20)
                },
                HealthSpan {
                    shard: 0,
                    state: 2,
                    from_ts: 20,
                    to_ts: Some(50)
                },
                HealthSpan {
                    shard: 0,
                    state: 0,
                    from_ts: 50,
                    to_ts: None
                },
                HealthSpan {
                    shard: 1,
                    state: 0,
                    from_ts: 0,
                    to_ts: Some(30)
                },
                HealthSpan {
                    shard: 1,
                    state: 1,
                    from_ts: 30,
                    to_ts: None
                },
            ]
        );
        let text = render_health_timeline(&src);
        assert_eq!(
            text,
            "shard 0: Robust [0..10) → Degrading [10..20) → Violating [20..50) → Robust [50..end]\n\
             shard 1: Robust [0..30) → Degrading [30..end]\n"
        );
        // A source without Navigate events renders nothing.
        assert_eq!(render_health_timeline(&orphan_source()), "");
    }

    #[test]
    fn serving_events_render_with_dedicated_arms() {
        let shed = render_event(&ev(3, 7, Hook::Shed, 2, 41));
        assert!(shed.contains("shed"), "{shed}");
        assert!(shed.contains("shard=2"), "{shed}");
        assert!(shed.contains("sheds_so_far=41"), "{shed}");
        let dropped = render_event(&ev(3, 8, Hook::Shed, u64::MAX, 9));
        assert!(dropped.contains("accept queue full"), "{dropped}");
        assert!(dropped.contains("conn=9"), "{dropped}");
        let accept = render_event(&ev(3, 9, Hook::Accept, 12, 1));
        assert!(accept.contains("accept"), "{accept}");
        assert!(accept.contains("conn=12"), "{accept}");
        assert!(accept.contains("queue=1"), "{accept}");
    }

    #[test]
    fn summary_mentions_incompleteness_and_orphans() {
        let mut dump = FlightDump::new();
        dump.sources.push(orphan_source());
        let text = summarize(&dump, None);
        assert!(
            text.contains("\ncomplete: no ring drops, no cap trims\n"),
            "{text}"
        );
        dump.sources[0].dropped = 2;
        dump.sources[0].trimmed = 3;
        let text = summarize(&dump, None);
        assert!(
            text.contains(
                "\nINCOMPLETE: 2 event(s) lost to ring overwrite, 3 trimmed by the retention cap\n"
            ),
            "{text}"
        );
        assert!(text.contains("orphan chains"));
        assert!(text.contains("0x1000"));
        assert!(text.contains("truncated trace"));
    }

    #[test]
    fn scenario_verdicts_scans_pass_and_fail_lines() {
        // Shaped like `scenarios --report` output: top-level verdict
        // plus an invariants array; the embedded spec's own "name"
        // keys must not confuse the failed-invariant scan.
        let report = concat!(
            r#"{"record":"scenario","scenario":"phase-shift","scheme":"EBR","verdict":"pass","#,
            r#""invariants":[{"name":"recovers-after-drain","ok":true,"observed":0,"limit":256}],"#,
            r#""spec":{"name":"phase-shift","seed":1}}"#,
            "\n",
            r#"{"record":"scenario","scenario":"stalled-reader-blowout","scheme":"HP","verdict":"fail","#,
            r#""invariants":[{"name":"bounded-footprint","ok":false,"observed":4096,"limit":2000},"#,
            r#"{"name":"healthy-at-end","ok":false,"observed":2,"limit":0}],"#,
            r#""spec":{"name":"stalled-reader-blowout","seed":2}}"#,
            "\n",
            r#"{"record":"other-kind","x":1}"#,
            "\n",
        );
        let rows = scenario_verdicts(report).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].scenario, "phase-shift");
        assert_eq!(rows[0].scheme, "EBR");
        assert!(rows[0].pass);
        assert!(rows[0].failed.is_empty());
        assert!(!rows[1].pass);
        assert_eq!(rows[1].failed, vec!["bounded-footprint", "healthy-at-end"]);

        let table = render_verdicts(&rows);
        assert!(table.contains("ok   phase-shift"), "{table}");
        assert!(table.contains("FAIL stalled-reader-blowout"), "{table}");
        assert!(table.contains("failed: bounded-footprint, healthy-at-end"));
        assert!(table.contains("2 run(s), 1 failure(s)"));
    }

    #[test]
    fn scenario_verdicts_rejects_a_torn_line() {
        // A killed run or a full disk cuts the report mid-line, after
        // `"verdict":"pass"` has already been written: not a pass.
        let line = concat!(
            r#"{"record":"scenario","scenario":"phase-shift","scheme":"EBR","verdict":"pass","#,
            r#""invariants":[{"name":"recovers-after-drain","ok":true,"observed":0,"limit":256}],"#,
            r#""spec":{"name":"phase-shift","seed":1}}"#,
        );
        assert!(scenario_verdicts(line).is_ok());
        let mid_invariants = line.find("\"ok\":true").unwrap();
        let mid_spec = line.find("\"seed\"").unwrap();
        for cut in [mid_invariants, mid_spec, line.len() - 1] {
            let torn = format!("{line}\n{}", &line[..cut]);
            let err = scenario_verdicts(&torn).unwrap_err();
            assert!(err.starts_with("line 2: JSON syntax error"), "{err}");
        }
        // Whole JSON, but a scenario record short of its invariants.
        let short = r#"{"record":"scenario","scenario":"x","scheme":"EBR","verdict":"fail"}"#;
        assert!(scenario_verdicts(short).unwrap_err().contains("invariants"));
    }

    #[test]
    fn scenario_verdicts_rejects_non_report_input() {
        assert!(scenario_verdicts("").is_err());
        assert!(scenario_verdicts("not json at all\n").is_err());
        // A scenario record with a mangled verdict is an error, not a
        // silent pass.
        let bad = r#"{"record":"scenario","scenario":"x","scheme":"EBR","verdict":"maybe"}"#;
        assert!(scenario_verdicts(bad).unwrap_err().contains("verdict"));
    }
}
