//! Robustness — the memory-footprint property (§5.1, Definitions 5.1/5.2).
//!
//! A reclamation scheme is **robust** when, for every integrated
//! execution `E`, there is a function `f_E = o(max_active_E)` bounding
//! the number of retired nodes in every configuration by `f_E(i) · N`.
//! It is **weakly robust** when `f_E` may be polynomial in
//! `max_active_E`. EBR is neither: one stalled thread makes the retired
//! population grow without bound while the data structure stays tiny
//! (the engine of the Theorem 6.1 construction).
//!
//! Asymptotic statements cannot be decided from one finite run, so this
//! module classifies from a *family* of runs at increasing scales: each
//! [`RobustnessObservation`] records the peak retired population and the
//! peak data-structure size for one run. The classifier estimates
//! log–log growth rates of the retired footprint against the run scale
//! and against `max_active`, and maps them onto the definitions:
//!
//! * retired/N stays bounded as scale grows → **Robust** (the strongest
//!   bound, VBR-style constant `f_E`);
//! * retired/N grows strictly slower than `max_active` → **Robust**
//!   (`f_E = o(max_active)`);
//! * retired/N grows polynomially in `max_active` → **WeaklyRobust**
//!   (IBR-style, linear in the live size);
//! * retired/N grows although `max_active` does not (or grows
//!   super-polynomially) → **NotRobust** (EBR with a stalled thread).
//!
//! The verdict is an *empirical* classification with explicit witnesses,
//! suitable for the experiments in `era-bench`; it is not a proof.

use std::fmt;

/// Footprint counters of one configuration (`C_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FootprintSample {
    /// `active_E(i)` — allocated, not yet retired nodes.
    pub active: usize,
    /// `max_active_E(i)` — running maximum of `active`.
    pub max_active: usize,
    /// Retired, not yet reclaimed nodes.
    pub retired: usize,
}

/// Footprint summary of one run at a given scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessObservation {
    /// The run's scale parameter (e.g. number of operations executed).
    pub scale: u64,
    /// Number of threads `N`.
    pub threads: usize,
    /// Peak retired population over the run.
    pub peak_retired: usize,
    /// Peak `max_active` over the run.
    pub peak_max_active: usize,
}

impl RobustnessObservation {
    /// Builds an observation by scanning a sample series.
    pub fn from_samples(scale: u64, threads: usize, samples: &[FootprintSample]) -> Self {
        RobustnessObservation {
            scale,
            threads,
            peak_retired: samples.iter().map(|s| s.retired).max().unwrap_or(0),
            peak_max_active: samples.iter().map(|s| s.max_active).max().unwrap_or(0),
        }
    }
}

/// Robustness classification per Definitions 5.1/5.2, ordered
/// strongest first: the weaker of two verdicts is their `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RobustnessVerdict {
    /// Definition 5.1 — retired footprint is `o(max_active) · N`.
    Robust,
    /// Definition 5.2 but not 5.1 — polynomial in `max_active`, times `N`.
    WeaklyRobust,
    /// Not even weakly robust — the retired footprint is unbounded in
    /// terms of the data-structure size.
    NotRobust,
    /// Not enough or not well-spread observations to decide.
    Inconclusive,
}

impl RobustnessVerdict {
    /// Whether the verdict satisfies Definition 5.1.
    pub fn is_robust(self) -> bool {
        self == RobustnessVerdict::Robust
    }

    /// Whether the verdict satisfies Definition 5.2 (robust schemes are
    /// weakly robust too).
    pub fn is_weakly_robust(self) -> bool {
        matches!(
            self,
            RobustnessVerdict::Robust | RobustnessVerdict::WeaklyRobust
        )
    }
}

impl fmt::Display for RobustnessVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobustnessVerdict::Robust => write!(f, "robust"),
            RobustnessVerdict::WeaklyRobust => write!(f, "weakly robust"),
            RobustnessVerdict::NotRobust => write!(f, "not robust"),
            RobustnessVerdict::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// Classification with the measured growth exponents as witnesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessReport {
    /// The verdict.
    pub verdict: RobustnessVerdict,
    /// Estimated log–log slope of `peak_retired / N` against `scale`.
    pub retired_growth: f64,
    /// Estimated log–log slope of `peak_max_active` against `scale`.
    pub active_growth: f64,
    /// Largest observed `peak_retired / N` (the concrete bound when the
    /// verdict is `Robust` with constant `f_E`).
    pub max_retired_per_thread: f64,
}

impl fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (retired growth {:.2}, active growth {:.2}, peak retired/thread {:.1})",
            self.verdict, self.retired_growth, self.active_growth, self.max_retired_per_thread
        )
    }
}

/// Threshold below which a log–log slope counts as "no growth".
const EPS: f64 = 0.15;
/// Polynomial-degree cap for weak robustness in the classifier.
///
/// Definition 5.2 allows any polynomial; empirically we accept degree up
/// to this bound (larger estimated degrees on finite data almost always
/// indicate super-polynomial/unbounded behaviour).
const MAX_POLY_DEGREE: f64 = 4.0;

/// Least-squares slope of `ln(ys)` against `ln(xs)`.
///
/// Points with zero coordinates are shifted by +1 so empty footprints do
/// not produce `-inf`.
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let lx: Vec<f64> = points.iter().map(|&(x, _)| (x + 1.0).ln()).collect();
    let ly: Vec<f64> = points.iter().map(|&(_, y)| (y + 1.0).ln()).collect();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..points.len() {
        num += (lx[i] - mx) * (ly[i] - my);
        den += (lx[i] - mx) * (lx[i] - mx);
    }
    if den.abs() < 1e-12 {
        0.0
    } else {
        num / den
    }
}

/// Classifies a family of observations at increasing scales.
///
/// Requirements: at least 3 observations and at least a 4× spread
/// between the smallest and largest scale; otherwise the verdict is
/// [`RobustnessVerdict::Inconclusive`].
///
/// The fit is against `scale` only, so across the sweep the structure
/// must dominate the scheme's additive threshold (a scan or retire
/// batch): otherwise that constant hides the growth, and weak
/// robustness reads as robust.
///
/// # Example
///
/// ```
/// use era_core::robustness::{classify, RobustnessObservation, RobustnessVerdict};
///
/// // EBR with a stalled thread: retired grows with scale, structure tiny.
/// let obs: Vec<_> = [1_000u64, 4_000, 16_000, 64_000]
///     .iter()
///     .map(|&s| RobustnessObservation {
///         scale: s,
///         threads: 2,
///         peak_retired: s as usize, // everything piles up
///         peak_max_active: 4,
///     })
///     .collect();
/// assert_eq!(classify(&obs).verdict, RobustnessVerdict::NotRobust);
/// ```
pub fn classify(observations: &[RobustnessObservation]) -> RobustnessReport {
    let max_rpt = observations
        .iter()
        .map(|o| o.peak_retired as f64 / o.threads.max(1) as f64)
        .fold(0.0f64, f64::max);
    let inconclusive = RobustnessReport {
        verdict: RobustnessVerdict::Inconclusive,
        retired_growth: f64::NAN,
        active_growth: f64::NAN,
        max_retired_per_thread: max_rpt,
    };
    if observations.len() < 3 {
        return inconclusive;
    }
    let min_scale = observations.iter().map(|o| o.scale).min().unwrap_or(0);
    let max_scale = observations.iter().map(|o| o.scale).max().unwrap_or(0);
    if min_scale == 0 || max_scale < 4 * min_scale {
        return inconclusive;
    }

    let retired_pts: Vec<(f64, f64)> = observations
        .iter()
        .map(|o| {
            (
                o.scale as f64,
                o.peak_retired as f64 / o.threads.max(1) as f64,
            )
        })
        .collect();
    let active_pts: Vec<(f64, f64)> = observations
        .iter()
        .map(|o| (o.scale as f64, o.peak_max_active as f64))
        .collect();
    let retired_growth = loglog_slope(&retired_pts);
    let active_growth = loglog_slope(&active_pts);

    let verdict = if retired_growth < EPS {
        // Bounded retired footprint per thread: constant f_E.
        RobustnessVerdict::Robust
    } else if active_growth < EPS {
        // Retired grows although the data structure does not.
        RobustnessVerdict::NotRobust
    } else if retired_growth < active_growth - EPS {
        // Sub-linear in max_active: f_E = o(max_active).
        RobustnessVerdict::Robust
    } else if retired_growth <= MAX_POLY_DEGREE * active_growth + EPS {
        RobustnessVerdict::WeaklyRobust
    } else {
        RobustnessVerdict::NotRobust
    };

    RobustnessReport {
        verdict,
        retired_growth,
        active_growth,
        max_retired_per_thread: max_rpt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(scale: u64, threads: usize, retired: usize, active: usize) -> RobustnessObservation {
        RobustnessObservation {
            scale,
            threads,
            peak_retired: retired,
            peak_max_active: active,
        }
    }

    #[test]
    fn constant_footprint_is_robust() {
        // VBR/HP-like: retired bounded by a per-thread constant.
        let o: Vec<_> = [1_000u64, 4_000, 16_000, 64_000]
            .iter()
            .map(|&s| obs(s, 4, 64 * 4, (s / 10) as usize))
            .collect();
        let r = classify(&o);
        assert_eq!(r.verdict, RobustnessVerdict::Robust);
        assert!(r.verdict.is_weakly_robust());
    }

    #[test]
    fn sublinear_in_active_is_robust() {
        // retired ~ sqrt(max_active), structure grows with scale.
        let o: Vec<_> = [1_000u64, 4_000, 16_000, 64_000, 256_000]
            .iter()
            .map(|&s| {
                let active = s as usize;
                obs(s, 4, (active as f64).sqrt() as usize * 4, active)
            })
            .collect();
        assert_eq!(classify(&o).verdict, RobustnessVerdict::Robust);
    }

    #[test]
    fn linear_in_active_is_weakly_robust() {
        // IBR-like: retired ~ max_active · N.
        let o: Vec<_> = [1_000u64, 4_000, 16_000, 64_000]
            .iter()
            .map(|&s| {
                let active = (s / 2) as usize;
                obs(s, 4, active * 4, active)
            })
            .collect();
        let r = classify(&o);
        assert_eq!(r.verdict, RobustnessVerdict::WeaklyRobust);
        assert!(!r.verdict.is_robust());
        assert!(r.verdict.is_weakly_robust());
    }

    #[test]
    fn unbounded_with_tiny_structure_is_not_robust() {
        // EBR with a stalled thread (the Figure 1 engine): max_active=4.
        let o: Vec<_> = [1_000u64, 4_000, 16_000, 64_000]
            .iter()
            .map(|&s| obs(s, 2, s as usize, 4))
            .collect();
        let r = classify(&o);
        assert_eq!(r.verdict, RobustnessVerdict::NotRobust);
        assert!(!r.verdict.is_weakly_robust());
    }

    #[test]
    fn too_few_observations_is_inconclusive() {
        let o = vec![obs(1_000, 2, 10, 10), obs(2_000, 2, 10, 10)];
        assert_eq!(classify(&o).verdict, RobustnessVerdict::Inconclusive);
    }

    #[test]
    fn narrow_scale_spread_is_inconclusive() {
        let o = vec![
            obs(1_000, 2, 10, 10),
            obs(1_100, 2, 10, 10),
            obs(1_200, 2, 10, 10),
        ];
        assert_eq!(classify(&o).verdict, RobustnessVerdict::Inconclusive);
    }

    #[test]
    fn from_samples_takes_peaks() {
        let samples = [
            FootprintSample {
                active: 1,
                max_active: 1,
                retired: 0,
            },
            FootprintSample {
                active: 5,
                max_active: 5,
                retired: 9,
            },
            FootprintSample {
                active: 2,
                max_active: 5,
                retired: 3,
            },
        ];
        let o = RobustnessObservation::from_samples(100, 2, &samples);
        assert_eq!(o.peak_retired, 9);
        assert_eq!(o.peak_max_active, 5);
    }

    #[test]
    fn loglog_slope_sanity() {
        let pts: Vec<(f64, f64)> = (1..=10)
            .map(|i| (i as f64 * 100.0, (i as f64 * 100.0).powi(2)))
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 2.0).abs() < 0.05, "slope={s}");
        let flat: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64 * 100.0, 42.0)).collect();
        assert!(loglog_slope(&flat).abs() < 0.01);
    }

    #[test]
    fn report_display() {
        let o: Vec<_> = [1_000u64, 4_000, 16_000, 64_000]
            .iter()
            .map(|&s| obs(s, 2, s as usize, 4))
            .collect();
        let r = classify(&o);
        let s = r.to_string();
        assert!(s.contains("not robust"), "{s}");
    }

    #[test]
    fn verdict_display_all_variants() {
        assert_eq!(RobustnessVerdict::Robust.to_string(), "robust");
        assert_eq!(RobustnessVerdict::WeaklyRobust.to_string(), "weakly robust");
        assert_eq!(RobustnessVerdict::NotRobust.to_string(), "not robust");
        assert_eq!(RobustnessVerdict::Inconclusive.to_string(), "inconclusive");
    }
}
