//! Figure 1 (Theorem 6.1), replayed under **every** scheme with the
//! `era-obs` tracer attached: prints the merged, timestamp-ordered
//! event log of each run and a footprint table across schemes, and
//! asserts that each log is complete and agrees with the monitor.
//!
//! Run with: `cargo run --example trace_theorem [rounds]` (default 32).
//!
//! Where the `figure1` binary prints each scheme's trajectory and
//! outcome, this example shows what the *observability layer* sees: the
//! same adversarial schedule produces a different event shape per scheme —
//! EBR's footprint grows with every churn round while T1 is blocked,
//! HP tips the safety oracle into `oracle_violation` events, NBR emits
//! `restart`, VBR emits `rollback` — which is the ERA trade-off of the
//! paper rendered as traces.

use era::obs::{phase_name, Hook, Recorder};
use era::sim::schemes::all_schemes;
use era::sim::theorem::{run_figure1_traced, TheoremOutcome};

/// Events per scheme to print in full; the rest are summarized.
const PRINT_LIMIT: usize = 40;

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);

    println!("== Figure 1 under every scheme, traced ({rounds} churn rounds) ==");
    let mut outcomes: Vec<(TheoremOutcome, usize)> = Vec::new();

    for scheme in all_schemes(2) {
        let name = scheme.name().to_string();
        // A generous cap so the whole construction fits: the acceptance
        // bar below insists on `trimmed == 0`.
        let recorder = Recorder::with_max_retained(4, 1 << 16);
        let outcome = run_figure1_traced(scheme, rounds, &recorder);
        let log = recorder.drain();
        assert!(
            log.is_time_ordered(),
            "{name}: drained trace must be timestamp-ordered"
        );
        assert!(!log.events.is_empty(), "{name}: trace must be non-empty");
        assert_eq!(log.trimmed, 0, "{name}: cap sized to keep every event");

        let checks = log.with_hook(Hook::OracleCheck).count();
        println!(
            "\n--- {name}: {} events ({checks} oracle checks elided below), \
             {} violations, {} rollbacks ---",
            log.events.len(),
            outcome.violations,
            outcome.rollbacks
        );
        let shown: Vec<_> = log
            .events
            .iter()
            .filter(|e| e.hook() != Hook::OracleCheck)
            .collect();
        for event in shown.iter().take(PRINT_LIMIT) {
            let hook = event.hook();
            let detail = match hook {
                Hook::Phase => format!("enter `{}`", phase_name(event.a)),
                Hook::Sample => format!("retired={} max_active={}", event.a, event.b),
                Hook::OracleViolation => format!("subject=0x{:x} nr={}", event.a, event.b),
                _ => format!("a={} b={}", event.a, event.b),
            };
            println!(
                "  [{:>6}] T{:<2} {:<16} {detail}",
                event.ts,
                event.thread,
                hook.name()
            );
        }
        if shown.len() > PRINT_LIMIT {
            println!("  … {} more events", shown.len() - PRINT_LIMIT);
        }

        // Peak retired population as the *trace* saw it (max over the
        // per-round `sample` events) — must corroborate the outcome's
        // own `peak_retired`, measured independently by the monitor.
        let traced_peak = log.with_hook(Hook::Sample).map(|e| e.a).max().unwrap_or(0) as usize;
        assert_eq!(
            traced_peak, outcome.peak_retired,
            "{name}: trace and monitor must agree on the footprint peak"
        );
        outcomes.push((outcome, traced_peak));
    }

    println!("\n== footprint across schemes (the paper's Figure 1 table) ==");
    println!(
        "{:<6} {:>7} {:>13} {:>11} {:>11} {:>11}  sacrificed",
        "scheme", "rounds", "peak_retired", "violations", "rollbacks", "traced_peak"
    );
    for (out, traced_peak) in &outcomes {
        println!(
            "{:<6} {:>7} {:>13} {:>11} {:>11} {:>11}  {}",
            out.scheme,
            out.rounds,
            out.peak_retired,
            out.violations,
            out.rollbacks,
            traced_peak,
            out.sacrificed
        );
    }
}
