//! The fixed-size trace event record and its vocabulary of hooks.
//!
//! Events are plain-old-data so the hot path is a handful of stores
//! into a preallocated ring slot: no allocation, no formatting, no
//! locks. Interpretation (names, JSON, tables) happens at drain time.

use std::fmt;

/// Which instrumented hook produced an event.
///
/// The first block mirrors the [`era-smr` `Smr` trait] surface, the
/// second block is the simulator's safety oracle (Def. 4.2) and the
/// Figure-1 theorem driver, and the tail is shared bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Hook {
    /// `Smr::begin_op` / `SimScheme::begin_op`: an operation opened a
    /// protected region. Counted, never recorded (see
    /// [`Hook::is_recorded`]).
    BeginOp = 0,
    /// `Smr::end_op`: the protected region closed. Counted, never
    /// recorded.
    EndOp = 1,
    /// `Smr::load`: a protected load of a shared pointer (`a` = slot,
    /// `b` = observed pointer/address). Counted, never recorded; dumps
    /// written before that rule may still hold `Load` events.
    Load = 2,
    /// `Smr::retire`: a node was unlinked and handed to the scheme
    /// (`a` = address, `b` = retired-population after the call). It
    /// *reads* the clock (see [`Hook::advances_clock`]): a retire is
    /// on the operation path, so it writes no word a peer's next
    /// operation reads.
    Retire = 3,
    /// A retired node was actually freed (`a` = address, `b` =
    /// retire→reclaim latency in trace ticks — the clock is advanced
    /// by the ticking protocol events only, see
    /// [`Hook::advances_clock`], so this counts the reclaims, epoch
    /// advances, … in between, not operations and not retires).
    Reclaim = 4,
    /// A reservation was published (HP/HE/IBR protect, EBR pin;
    /// `a` = slot, `b` = value/era).
    Reserve = 5,
    /// A restart was requested (NBR neutralization, VBR version check;
    /// `a` = cause discriminant).
    Restart = 6,
    /// The scheme advanced a global epoch/era (`a` = new value).
    Advance = 7,
    /// Reclamation was blocked by a stalled peer (`a` = blamed thread
    /// slot, `b` = nodes still held).
    Blocked = 8,

    /// The oracle validated one memory access (Def. 4.2; `a` =
    /// address, `b` = access discriminant).
    OracleCheck = 9,
    /// The oracle recorded a safety violation (`a` = address, `b` =
    /// total violations so far).
    OracleViolation = 10,
    /// A Figure-1 phase transition in the theorem driver (`a` = phase
    /// index; see [`crate::phase_name`]).
    Phase = 11,
    /// A simulated operation rolled back (optimistic schemes).
    Rollback = 12,
    /// A node entered the simulated heap (`a` = address).
    Alloc = 13,
    /// A footprint sample (`a` = retired population, `b` = bytes or
    /// node count of live space, depending on the producer).
    Sample = 14,

    /// The era-kv navigator changed a shard's health class (`a` =
    /// shard index, `b` = `old_state << 8 | new_state` with states
    /// 0=Robust, 1=Degrading, 2=Violating, 3=Quarantined).
    Navigate = 15,
    /// Admission control rejected a write with `Overloaded` (`a` =
    /// shard index, `b` = sheds so far on that shard).
    Shed = 16,

    /// An injected or observed fault (era-chaos; `a` = fault action
    /// discriminant, `b` = the global op index it fired at).
    Fault = 17,
    /// A scheme adopted a dead context's orphaned garbage (`a` =
    /// nodes adopted, `b` = retired population after adoption).
    Adopt = 18,

    /// A serving front-end accepted a connection (era-net; `a` =
    /// connection id, `b` = connections waiting for a worker after
    /// the accept).
    Accept = 19,
}

impl Hook {
    /// Number of distinct hooks (array-sizing constant).
    pub const COUNT: usize = 20;

    /// Every hook, in discriminant order.
    pub const ALL: [Hook; Hook::COUNT] = [
        Hook::BeginOp,
        Hook::EndOp,
        Hook::Load,
        Hook::Retire,
        Hook::Reclaim,
        Hook::Reserve,
        Hook::Restart,
        Hook::Advance,
        Hook::Blocked,
        Hook::OracleCheck,
        Hook::OracleViolation,
        Hook::Phase,
        Hook::Rollback,
        Hook::Alloc,
        Hook::Sample,
        Hook::Navigate,
        Hook::Shed,
        Hook::Fault,
        Hook::Adopt,
        Hook::Accept,
    ];

    /// Stable lower-case name used in JSON reports and trace dumps.
    pub fn name(self) -> &'static str {
        match self {
            Hook::BeginOp => "begin_op",
            Hook::EndOp => "end_op",
            Hook::Load => "load",
            Hook::Retire => "retire",
            Hook::Reclaim => "reclaim",
            Hook::Reserve => "reserve",
            Hook::Restart => "restart",
            Hook::Advance => "advance",
            Hook::Blocked => "blocked",
            Hook::OracleCheck => "oracle_check",
            Hook::OracleViolation => "oracle_violation",
            Hook::Phase => "phase",
            Hook::Rollback => "rollback",
            Hook::Alloc => "alloc",
            Hook::Sample => "sample",
            Hook::Navigate => "navigate",
            Hook::Shed => "shed",
            Hook::Fault => "fault",
            Hook::Adopt => "adopt",
            Hook::Accept => "accept",
        }
    }

    /// The inverse of the `as u8` cast; `None` for out-of-range bytes.
    pub fn from_u8(raw: u8) -> Option<Hook> {
        Hook::ALL.get(raw as usize).copied()
    }

    /// Whether emitting this hook *advances* the recorder's logical
    /// clock (`true`) or merely *reads* it (`false`).
    ///
    /// `Reserve` and `Retire` — which an operation emits — only read
    /// the clock, so no operation writes a word another thread reads:
    /// the clock is written only on the amortised reclamation path.
    /// `BeginOp`, `EndOp` and `Load` are readers too, though a live
    /// tracer never stamps them ([`Hook::is_recorded`]); the rule
    /// orders the ones an older dump holds. Everything else (reclaim
    /// runs, epoch advances, blame, adoption, faults, the navigator,
    /// the serving front-end, the simulator's oracle and driver)
    /// ticks. A reading event stamped `v` read the clock before the
    /// tick that issued `v`, which is why [`Event::merge_key`] orders
    /// readers before the ticker at equal `ts` — so a node's `Retire`
    /// still sorts before its `Reclaim`, which happens after it and
    /// ticks. A `Retire` tied with another thread's reading event is
    /// concurrent with it.
    pub const fn advances_clock(self) -> bool {
        !matches!(
            self,
            Hook::BeginOp | Hook::EndOp | Hook::Load | Hook::Reserve | Hook::Retire
        )
    }

    /// Whether an emit of this hook is *recorded* — stamped and pushed
    /// into the tracer's ring — or only *counted* in the tracer's own
    /// hook counter (`false`).
    ///
    /// The per-operation hooks `BeginOp`, `EndOp` and `Load` are
    /// counted, never recorded: every operation emits them, and what
    /// their readers need — perf's replay, `era-view --summary`, the
    /// tests — is how many there were, which
    /// [`crate::Metrics::hook_count`] keeps exact. So an operation
    /// that retires nothing and reserves nothing writes no ring slot
    /// and reads no clock. Every other hook is recorded.
    pub const fn is_recorded(self) -> bool {
        !matches!(self, Hook::BeginOp | Hook::EndOp | Hook::Load)
    }
}

impl fmt::Display for Hook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifies which reclamation scheme produced an event, so traces
/// from several schemes can share one recorder and still be told
/// apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemeId(pub u8);

impl SchemeId {
    /// No scheme attributed (simulator infrastructure, bench harness).
    pub const NONE: SchemeId = SchemeId(0);
    /// Epoch-based reclamation.
    pub const EBR: SchemeId = SchemeId(1);
    /// Hazard pointers.
    pub const HP: SchemeId = SchemeId(2);
    /// Hazard eras.
    pub const HE: SchemeId = SchemeId(3);
    /// Interval-based reclamation.
    pub const IBR: SchemeId = SchemeId(4);
    /// Neutralization-based reclamation.
    pub const NBR: SchemeId = SchemeId(5);
    // Byte 6 was QSBR's: old dumps may carry it, so it is never reused.
    /// Version-based reclamation.
    pub const VBR: SchemeId = SchemeId(7);
    /// The no-reclamation (leak) baseline.
    pub const LEAK: SchemeId = SchemeId(8);

    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self.0 {
            1 => "ebr",
            2 => "hp",
            3 => "he",
            4 => "ibr",
            5 => "nbr",
            7 => "vbr",
            8 => "leak",
            _ => "none",
        }
    }

    /// Best-effort mapping from a simulated scheme's display name (as
    /// returned by `SimScheme::name()`) to an id. Real schemes carry
    /// their id in `era_smr::SchemeKind`.
    pub fn from_name(name: &str) -> SchemeId {
        let lower = name.to_ascii_lowercase();
        for id in [
            SchemeId::EBR,
            SchemeId::HE, // check before HP: "he" vs "hp" are distinct prefixes anyway
            SchemeId::HP,
            SchemeId::IBR,
            SchemeId::NBR,
            SchemeId::VBR,
            SchemeId::LEAK,
        ] {
            if lower.contains(id.name()) {
                return id;
            }
        }
        SchemeId::NONE
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One trace record: 32 bytes, `Copy`, no interior pointers.
///
/// `ts` comes from the recorder's global logical clock, so events from
/// different threads (and different schemes sharing a recorder) merge
/// into one timeline ordered by [`Event::merge_key`]. `a`/`b` are
/// hook-specific payloads — see the [`Hook`] variant docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Event {
    /// Logical timestamp: unique among clock-advancing events, shared
    /// by the reading events — reservations and retires — that read
    /// the clock between two ticks (see [`Hook::advances_clock`]).
    pub ts: u64,
    /// First hook-specific payload word.
    pub a: u64,
    /// Second hook-specific payload word.
    pub b: u64,
    /// Producing thread slot.
    pub thread: u16,
    /// Producing scheme ([`SchemeId`] raw value).
    pub scheme: u8,
    /// Producing hook ([`Hook`] discriminant).
    pub hook: u8,
    pub(crate) _pad: u32,
}

impl Event {
    /// A zeroed placeholder (what empty ring slots hold).
    pub const EMPTY: Event = Event {
        ts: 0,
        a: 0,
        b: 0,
        thread: 0,
        scheme: 0,
        hook: 0,
        _pad: 0,
    };

    /// Builds an event; `ts` is filled in by the tracer.
    pub fn new(thread: u16, scheme: SchemeId, hook: Hook, a: u64, b: u64) -> Event {
        Event {
            ts: 0,
            a,
            b,
            thread,
            scheme: scheme.0,
            hook: hook as u8,
            _pad: 0,
        }
    }

    /// The hook, decoded (emitted events always decode successfully).
    pub fn hook(&self) -> Hook {
        Hook::from_u8(self.hook).expect("event holds a valid hook discriminant")
    }

    /// The scheme id, decoded.
    pub fn scheme(&self) -> SchemeId {
        SchemeId(self.scheme)
    }

    /// The key a merged log is sorted by: `(ts, advances_clock,
    /// thread)`, completed by a *stable* sort so that events equal in
    /// all three keep their ring (push) order.
    ///
    /// Readers sort before the ticker they tie with because they read
    /// the clock before that tick; a tie between two reading events of
    /// different threads means "concurrent" and is broken by thread
    /// slot only to make the order deterministic — and reproducible by
    /// the dump decoder, which sorts by this key again. Hook bytes
    /// from a newer vocabulary count as clock-advancing.
    pub fn merge_key(&self) -> (u64, bool, u16) {
        let ticks = Hook::from_u8(self.hook).is_none_or(Hook::advances_clock);
        (self.ts, ticks, self.thread)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>6}] t{:<2} {:<5} {:<16} a={:#x} b={}",
            self.ts,
            self.thread,
            self.scheme().name(),
            self.hook().name(),
            self.a,
            self.b
        )
    }
}

/// Names for the Figure-1 phase indices carried by [`Hook::Phase`]
/// events (`a` payload).
pub fn phase_name(index: u64) -> &'static str {
    match index {
        0 => "setup",
        1 => "t1_blocks_mid_delete",
        2 => "t2_deletes_node1",
        3 => "churn",
        4 => "solo_run",
        5 => "verdict",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_32_bytes_and_copy() {
        assert_eq!(std::mem::size_of::<Event>(), 32);
        let e = Event::new(3, SchemeId::HP, Hook::Retire, 0xdead, 7);
        let f = e; // Copy
        assert_eq!(e, f);
        assert_eq!(f.hook(), Hook::Retire);
        assert_eq!(f.scheme(), SchemeId::HP);
    }

    #[test]
    fn hook_roundtrip_and_names_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, hook) in Hook::ALL.iter().enumerate() {
            assert_eq!(*hook as u8 as usize, i);
            assert_eq!(Hook::from_u8(*hook as u8), Some(*hook));
            assert!(
                names.insert(hook.name()),
                "duplicate hook name {}",
                hook.name()
            );
        }
        assert_eq!(Hook::from_u8(Hook::COUNT as u8), None);
    }

    #[test]
    fn only_the_per_operation_hooks_and_retire_read_the_clock() {
        let readers: Vec<Hook> = Hook::ALL
            .into_iter()
            .filter(|h| !h.advances_clock())
            .collect();
        assert_eq!(
            readers,
            [
                Hook::BeginOp,
                Hook::EndOp,
                Hook::Load,
                Hook::Retire,
                Hook::Reserve
            ]
        );
        // At equal `ts` a reader sorts before the ticker, then by
        // thread; an unknown hook byte is treated as a ticker.
        let at = |hook: Hook, thread: u16| {
            let mut e = Event::new(thread, SchemeId::HP, hook, 0, 0);
            e.ts = 7;
            e
        };
        assert!(at(Hook::Load, 9).merge_key() < at(Hook::Reclaim, 0).merge_key());
        assert!(at(Hook::Retire, 9).merge_key() < at(Hook::Reclaim, 0).merge_key());
        assert!(at(Hook::Load, 0).merge_key() < at(Hook::EndOp, 1).merge_key());
        let mut future = at(Hook::Load, 0);
        future.hook = 200;
        assert_eq!(future.merge_key(), (7, true, 0));
    }

    #[test]
    fn only_the_per_operation_hooks_are_counted_and_not_recorded() {
        let counted: Vec<Hook> = Hook::ALL.into_iter().filter(|h| !h.is_recorded()).collect();
        assert_eq!(counted, [Hook::BeginOp, Hook::EndOp, Hook::Load]);
    }

    #[test]
    fn scheme_id_from_name_matches_display_names() {
        for (display, id) in [
            ("EBR", SchemeId::EBR),
            ("HP", SchemeId::HP),
            ("HE", SchemeId::HE),
            ("IBR(2GEIBR)", SchemeId::IBR),
            ("NBR", SchemeId::NBR),
            ("VBR", SchemeId::VBR),
            ("Leak", SchemeId::LEAK),
            ("mystery", SchemeId::NONE),
        ] {
            assert_eq!(SchemeId::from_name(display), id, "{display}");
        }
    }
}
