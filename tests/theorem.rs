//! End-to-end integration test: the ERA theorem pipeline.
//!
//! Replays the paper's two constructions (Figure 1 / Theorem 6.1 and
//! Figure 2 / Appendix E) across every simulated scheme and asserts the
//! complete classification the paper derives.

use era::core::era::reference_matrix;
use era::core::robustness::{classify, RobustnessVerdict};
use era::sim::figure2::run_figure2;
use era::sim::schemes::{
    all_schemes, SimEbr, SimHe, SimHp, SimIbr, SimLeak, SimNbr, SimScheme, SimVbr,
};
use era::sim::theorem::{figure1_observations, measured_matrix, run_figure1, Sacrificed};

#[test]
fn every_scheme_sacrifices_exactly_the_expected_property() {
    let expected: &[(&str, Sacrificed)] = &[
        ("EBR", Sacrificed::Robustness),
        ("HP", Sacrificed::Applicability),
        ("HE", Sacrificed::Applicability),
        ("IBR", Sacrificed::Applicability),
        ("VBR", Sacrificed::EasyIntegration),
        ("NBR", Sacrificed::EasyIntegration),
        ("Leak", Sacrificed::Robustness),
    ];
    for (scheme, want) in expected {
        let out = run_figure1(scheme_by_name(scheme), 150);
        assert_eq!(out.sacrificed, *want, "{scheme}: {out}");
        assert_eq!(
            out.peak_max_active, 4,
            "{scheme}: the paper's max_active is 4"
        );
    }
}

fn scheme_by_name(name: &str) -> Box<dyn SimScheme> {
    match name {
        "EBR" => Box::new(SimEbr::new(2)),
        "HP" => Box::new(SimHp::new(2, 3)),
        "HE" => Box::new(SimHe::new(2, 3)),
        "IBR" => Box::new(SimIbr::new(2)),
        "VBR" => Box::new(SimVbr::new()),
        "NBR" => Box::new(SimNbr::new(2, 1)),
        "Leak" => Box::new(SimLeak),
        other => panic!("unknown scheme {other}"),
    }
}

#[test]
fn figure1_retired_growth_is_linear_for_ebr_and_bounded_for_hp() {
    let small = run_figure1(Box::new(SimEbr::new(2)), 50);
    let large = run_figure1(Box::new(SimEbr::new(2)), 400);
    assert!(
        large.peak_retired >= 8 * small.peak_retired - 16,
        "EBR grows linearly: {} vs {}",
        small.peak_retired,
        large.peak_retired
    );

    let small = run_figure1(Box::new(SimHp::new(2, 3)), 50);
    let large = run_figure1(Box::new(SimHp::new(2, 3)), 400);
    assert!(
        large.peak_retired <= small.peak_retired + 4,
        "HP stays bounded: {} vs {}",
        small.peak_retired,
        large.peak_retired
    );
}

#[test]
fn robustness_classification_matches_the_paper() {
    let scales = &[64, 256, 1024];
    let cases: &[(&str, RobustnessVerdict)] = &[
        ("EBR", RobustnessVerdict::NotRobust),
        ("HP", RobustnessVerdict::Robust),
        ("VBR", RobustnessVerdict::Robust),
        ("NBR", RobustnessVerdict::Robust),
        ("Leak", RobustnessVerdict::NotRobust),
    ];
    for (name, want) in cases {
        let obs = figure1_observations(|| scheme_by_name(name), scales);
        let got = classify(&obs).verdict;
        assert_eq!(got, *want, "{name}");
    }
}

#[test]
fn figure2_separates_protect_based_from_the_rest() {
    for scheme in all_schemes(4) {
        let name = scheme.name();
        let out = run_figure2(scheme);
        match name {
            "HP" | "HE" | "IBR" => {
                assert!(!out.safe(), "{name} must violate on Figure 2: {out}");
                assert!(out.node43_reclaimed, "{name}");
            }
            "EBR" | "Leak" => {
                assert!(out.safe(), "{name}: {out}");
                assert_eq!(out.rollbacks, 0, "{name} needs no rollbacks");
                assert!(out.t1_completed, "{name}");
            }
            "VBR" | "NBR" => {
                assert!(out.safe(), "{name}: {out}");
                assert!(out.rollbacks > 0, "{name} survives via rollbacks");
                assert!(out.t1_completed, "{name}");
            }
            other => panic!("unexpected scheme {other}"),
        }
    }
}

#[test]
fn measured_and_reference_matrices_respect_theorem_6_1() {
    reference_matrix().check_theorem().expect("reference");
    let measured = measured_matrix(200);
    measured.check_theorem().expect("measured");
    // Every measured row has at most two of the three properties, and
    // the schemes the paper calls out hit their expected corners.
    for row in measured.rows() {
        assert!(row.property_count() <= 2, "{}", row.scheme);
        match row.scheme.as_str() {
            "EBR" | "Leak" => {
                assert!(row.easy_integration);
                assert!(!row.robustness.is_weakly_robust());
                assert!(row.applicability.is_wide());
            }
            "HP" | "HE" | "IBR" => {
                assert!(row.easy_integration);
                assert!(row.robustness.is_weakly_robust());
                assert!(!row.applicability.is_wide());
            }
            "VBR" | "NBR" => {
                assert!(!row.easy_integration);
                assert!(row.robustness.is_weakly_robust());
                assert!(row.applicability.is_wide());
            }
            other => panic!("unexpected scheme {other}"),
        }
    }
}

#[test]
fn theorem_holds_across_scales() {
    for rounds in [32, 64, 128] {
        let m = measured_matrix(rounds);
        m.check_theorem()
            .unwrap_or_else(|v| panic!("rounds={rounds}: {v}"));
    }
}
