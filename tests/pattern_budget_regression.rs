//! Regression guard for the pattern-budget cliff (ROADMAP, resolved by
//! the column-generation pricing subsystem).
//!
//! Before pricing landed, tight clustered instances (n/m = 3, many
//! near-equal priority bags) exhausted the pattern-enumeration budget on
//! *every* makespan guess: each guess burned the full budget, failed with
//! `PatternBudget`, and the solver silently degraded to the LPT schedule.
//! The pricing loop solves the same configuration LP with orders of
//! magnitude fewer patterns, so these instances now take the paper path.

mod common;

use bagsched::eptas::pattern::enumerate_patterns;
use bagsched::eptas::report::GuessFailure;
use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::{gen, validate_schedule};

/// The per-guess pattern budget eager enumeration ran under before
/// pricing replaced it.
const ENUMERATION_BUDGET: usize = 20_000;

/// The witness family: tight clustered instances (n/m = 3) whose
/// symmetric priority bags blow up eager enumeration.
fn tight_clustered(n: usize) -> bagsched::types::Instance {
    gen::clustered(n, n / 3, n / 3, 5, 2)
}

#[test]
fn tight_clustered_no_longer_falls_back_to_lpt() {
    let inst = tight_clustered(60);
    let cfg = EptasConfig::with_epsilon(0.5);

    // Eager enumeration exceeds its budget at every guess the driver may
    // probe. This pins the *reason* the pricing subsystem exists; if
    // enumeration ever fits the budget here, the witness instance must
    // be re-tightened.
    let grid = common::guess_grid(&inst, cfg.epsilon);
    assert!(!grid.is_empty(), "the witness needs a guess search");
    for &guess in &grid {
        let t = common::transformed_at(&inst, guess, &cfg).expect("no job exceeds a grid guess");
        assert!(
            enumerate_patterns(&t, ENUMERATION_BUDGET).is_err(),
            "guess {guess}: enumeration fits the budget, the witness no longer trips it"
        );
    }

    // The priced path: solves on the paper path, no budget failure, no
    // LPT fallback.
    let cg = Solver::new(cfg).solve_instance(&inst).unwrap();
    validate_schedule(&inst, &cg.schedule).unwrap();
    assert!(!cg.report.fell_back_to_lpt, "pricing path must not fall back to LPT");
    assert!(
        cg.report.failures.iter().all(|(_, f)| *f != GuessFailure::PatternBudget),
        "no guess may fail with PatternBudget under pricing: {:?}",
        cg.report.failures
    );
    assert!(
        cg.makespan <= cg.report.lpt_upper_bound,
        "pricing path lost to the LPT schedule: {} > {}",
        cg.makespan,
        cg.report.lpt_upper_bound
    );
}

#[test]
fn tight_clustered_pattern_work_is_an_order_of_magnitude_below_the_budget() {
    // Acceptance gate: on the tight clustered family the *total* pattern
    // work per guess — seed patterns plus priced columns — must sit at
    // least 10x below the per-guess enumeration budget, which every
    // guess of this instance used to exhaust.
    let inst = tight_clustered(60);
    let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
    let stats = &r.report.stats;
    let per_guess = (stats.patterns_enumerated + stats.columns_generated)
        / (r.report.guesses_tried as u64).max(1);
    assert!(
        per_guess * 10 <= ENUMERATION_BUDGET as u64,
        "pattern work per guess {per_guess} is not 10x below the {ENUMERATION_BUDGET} budget"
    );
    // The pricing loop must actually have run (this is not the gated or
    // fallback regime).
    assert!(stats.pricing_rounds > 0);
    assert!(stats.columns_generated > 0);
}
