//! The scheme registry: one row per scheme carrying its display name,
//! trace [`SchemeId`], robustness class and whether its protection is
//! publish-and-validate, plus
//! [`with_scheme!`](crate::with_scheme!), the one place a scheme is
//! chosen by value and built.
//!
//! Every by-name or by-class decision outside the schemes goes through
//! [`SchemeKind`]: the CLIs parse `--scheme` with [`SchemeKind::parse`],
//! tracers take [`SchemeKind::id`], and the scenario invariants and
//! `era-view` hold a scheme to a footprint bound when its
//! [`SchemeKind::class`] is weakly robust. The class column is the
//! paper's (Defs. 5.1–5.2; `era_core::era::reference_matrix()`), and
//! each scheme file's `// ERA-CLASS:` header restates it for era-lint's
//! R9. The tests below hold the three together.
//!
//! Adding a scheme costs its own file (with its `impl Smr` and header),
//! one variant and one row here, one `SchemeId` constant, and one arm
//! in [`with_scheme!`](crate::with_scheme!). The file holds the
//! scheme's protection protocol only: the custody every scheme shares
//! (the retire record, the orphan pool a dying context hands its
//! garbage to, adoption and the final free) is `common`'s `StatCells`.

use era_core::robustness::RobustnessVerdict::{self, NotRobust, Robust, WeaklyRobust};
use era_obs::SchemeId;

/// A reclamation scheme of this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// [`crate::ebr::Ebr`].
    Ebr,
    /// [`crate::hp::Hp`].
    Hp,
    /// [`crate::he::He`].
    He,
    /// [`crate::ibr::Ibr`].
    Ibr,
    /// [`crate::nbr::Nbr`].
    Nbr,
    /// [`crate::vbr`]: arena-based with no [`Smr`](crate::Smr) impl, so
    /// a kind for its id and class only — [`SchemeKind::parse`] never
    /// returns it and [`with_scheme!`](crate::with_scheme!) cannot build it.
    Vbr,
    /// [`crate::leak::Leak`], the no-reclamation baseline.
    Leak,
}

/// `(kind, display name, trace id, class, requires validation)`, in
/// declaration order.
const TABLE: [(SchemeKind, &str, SchemeId, RobustnessVerdict, bool); 7] = [
    (SchemeKind::Ebr, "EBR", SchemeId::EBR, NotRobust, false),
    (SchemeKind::Hp, "HP", SchemeId::HP, Robust, true),
    (SchemeKind::He, "HE", SchemeId::HE, Robust, true),
    (SchemeKind::Ibr, "IBR", SchemeId::IBR, WeaklyRobust, true),
    (SchemeKind::Nbr, "NBR", SchemeId::NBR, Robust, false),
    (SchemeKind::Vbr, "VBR", SchemeId::VBR, Robust, false),
    (SchemeKind::Leak, "Leak", SchemeId::LEAK, NotRobust, false),
];

impl SchemeKind {
    /// The five reclaiming schemes with an [`Smr`](crate::Smr) impl: what
    /// the scenario campaign runs and `--scheme` accepts.
    pub const RECLAIMING: [SchemeKind; 5] = [Self::Ebr, Self::Hp, Self::He, Self::Ibr, Self::Nbr];

    /// The [`SchemeKind::parse`] names, `|`-separated, for usage and
    /// error text.
    pub fn cli_names() -> String {
        Self::RECLAIMING.map(|kind| kind.id().name()).join("|")
    }

    /// Display name for reports (`"EBR"`, …, `"Leak"`).
    pub fn name(self) -> &'static str {
        TABLE[self as usize].1
    }

    /// Trace id; its lower-case name is the CLI name.
    pub fn id(self) -> SchemeId {
        TABLE[self as usize].2
    }

    /// Robustness class (Defs. 5.1–5.2).
    pub fn class(self) -> RobustnessVerdict {
        TABLE[self as usize].3
    }

    /// Whether the scheme's [`Smr::load`](crate::Smr::load) protects by
    /// *publish-and-validate* (HP/HE/IBR): the caller must re-validate
    /// link words after a protected load before trusting the protection
    /// (Michael's traversal discipline), and `load` may spin.
    ///
    /// Schemes protected by operation brackets alone (EBR/NBR/leak)
    /// say `false`, and structures may elide their per-step
    /// re-validation when traversing under them — a validated link is
    /// only a *protection* requirement, never a linearizability one
    /// (every mutation is a CAS that re-checks its expected word).
    #[inline]
    pub fn requires_validation(self) -> bool {
        TABLE[self as usize].4
    }

    /// The kind whose trace id is `id`, if any.
    pub fn from_id(id: SchemeId) -> Option<SchemeKind> {
        TABLE.iter().find(|row| row.2 == id).map(|row| row.0)
    }

    /// Parses a lower-case CLI name (`"ebr"`, `"hp"`, `"he"`, `"ibr"`,
    /// `"nbr"`); only [`SchemeKind::RECLAIMING`] kinds parse.
    pub fn parse(name: &str) -> Option<SchemeKind> {
        SchemeKind::RECLAIMING
            .into_iter()
            .find(|kind| kind.id().name() == name)
    }
}

/// Binds `$make` to `$kind`'s default constructor — `Fn(threads, slots)
/// -> S` for its concrete scheme `S`, where `slots` is the per-thread
/// hazard/era/reservation count the epoch schemes ignore — and
/// evaluates `$body` with it, so the body is generic over `S`.
///
/// ```
/// use era_smr::{with_scheme, SchemeKind, Smr};
///
/// let kind = SchemeKind::parse("hp").unwrap();
/// let name = with_scheme!(kind, make => make(4, 3).kind().name());
/// assert_eq!(name, "HP");
/// ```
///
/// # Panics
///
/// On [`SchemeKind::Vbr`], which has no [`Smr`](crate::Smr) impl.
#[macro_export]
macro_rules! with_scheme {
    ($kind:expr, $make:ident => $body:expr) => {
        match $kind {
            $crate::SchemeKind::Ebr => {
                let $make = &|threads: usize, _slots: usize| $crate::ebr::Ebr::new(threads);
                $body
            }
            $crate::SchemeKind::Hp => {
                let $make = &|threads: usize, slots: usize| $crate::hp::Hp::new(threads, slots);
                $body
            }
            $crate::SchemeKind::He => {
                let $make = &|threads: usize, slots: usize| $crate::he::He::new(threads, slots);
                $body
            }
            $crate::SchemeKind::Ibr => {
                let $make = &|threads: usize, _slots: usize| $crate::ibr::Ibr::new(threads);
                $body
            }
            $crate::SchemeKind::Nbr => {
                let $make = &|threads: usize, slots: usize| $crate::nbr::Nbr::new(threads, slots);
                $body
            }
            $crate::SchemeKind::Leak => {
                let $make = &|threads: usize, _slots: usize| $crate::leak::Leak::new(threads);
                $body
            }
            $crate::SchemeKind::Vbr => panic!("VBR is arena-based and has no `Smr` impl"),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Smr;
    use era_core::era::reference_matrix;

    fn kinds() -> impl Iterator<Item = SchemeKind> {
        TABLE.iter().map(|row| row.0)
    }

    #[test]
    fn rows_are_in_declaration_order() {
        for (i, row) in TABLE.iter().enumerate() {
            assert_eq!(row.0 as usize, i, "{}", row.1);
        }
    }

    /// The paper's matrix, the scheme files' `ERA-CLASS` headers and
    /// this table state one class per scheme.
    #[test]
    fn class_agrees_with_reference_matrix_and_headers() {
        let matrix = reference_matrix();
        for row in matrix.rows() {
            let kind = kinds().find(|k| k.name() == row.scheme);
            let kind = kind.unwrap_or_else(|| panic!("matrix row {} has no kind", row.scheme));
            assert_eq!(kind.class(), row.robustness, "{}", row.scheme);
        }
        for kind in kinds() {
            let row = matrix.rows().iter().find(|row| row.scheme == kind.name());
            assert!(row.is_some(), "{} has no matrix row", kind.name());
        }

        let headers = [
            (SchemeKind::Ebr, include_str!("ebr.rs")),
            (SchemeKind::Hp, include_str!("hp.rs")),
            (SchemeKind::He, include_str!("he.rs")),
            (SchemeKind::Ibr, include_str!("ibr.rs")),
            (SchemeKind::Nbr, include_str!("nbr.rs")),
            (SchemeKind::Vbr, include_str!("vbr.rs")),
            (SchemeKind::Leak, include_str!("leak.rs")),
        ];
        for (kind, src) in headers {
            let header = src
                .lines()
                .find_map(|l| l.strip_prefix("// ERA-CLASS:"))
                .unwrap_or_else(|| panic!("{} has no ERA-CLASS header", kind.name()));
            let mut words = header.split_whitespace();
            let class = match kind.class() {
                Robust => "robust",
                WeaklyRobust => "weakly-robust",
                _ => "non-robust",
            };
            assert_eq!(words.next(), Some(kind.name()), "{header}");
            assert_eq!(words.next(), Some(class), "{header}");
        }
    }

    #[test]
    fn parse_takes_the_lower_case_id_names_of_reclaiming_kinds() {
        for kind in SchemeKind::RECLAIMING {
            assert_eq!(SchemeKind::parse(kind.id().name()), Some(kind));
        }
        assert_eq!(SchemeKind::parse("vbr"), None);
        assert_eq!(SchemeKind::parse("made-up"), None);
        for kind in kinds() {
            assert_eq!(SchemeKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(SchemeKind::from_id(SchemeId::NONE), None);
    }

    #[test]
    fn with_scheme_builds_each_reclaiming_kind() {
        for kind in SchemeKind::RECLAIMING {
            with_scheme!(kind, make => {
                let smr = make(2, 3);
                assert_eq!(smr.kind(), kind);
                assert!(smr.register().is_ok());
            });
        }
    }
}
