//! End-to-end tests of the EPTAS across workload families, epsilons and
//! instance shapes: feasibility is a hard invariant, the approximation
//! bound is checked against the certified lower bound, and the paper
//! path must never need the safety net.

use bagsched::eptas::report::GuessFailure;
use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::lowerbound::lower_bounds;
use bagsched::types::{gen, validate_schedule, Instance};

#[test]
fn all_families_all_epsilons_feasible() {
    for family in gen::Family::ALL {
        for &eps in &[0.75, 0.5] {
            for seed in 0..2 {
                let inst = family.generate(30, 4, seed);
                let r = Solver::with_epsilon(eps)
                    .solve_instance(&inst)
                    .unwrap_or_else(|e| panic!("{} eps={eps} seed={seed}: {e}", family.name()));
                validate_schedule(&inst, &r.schedule)
                    .unwrap_or_else(|e| panic!("{} eps={eps} seed={seed}: {e}", family.name()));
                assert_eq!(
                    r.report.safety_net_moves,
                    0,
                    "{} eps={eps} seed={seed}: safety net engaged",
                    family.name()
                );
                let lb = lower_bounds(&inst).combined();
                assert!(r.makespan >= lb - 1e-9, "{}: makespan below lower bound?!", family.name());
            }
        }
    }
}

#[test]
fn approximation_bound_against_lower_bound() {
    // Against the (weaker) lower bound the measured ratio still has to be
    // modest; tight checks against the true optimum are in
    // cross_validation.rs.
    for family in gen::Family::ALL {
        let inst = family.generate(40, 5, 7);
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        let lb = lower_bounds(&inst).combined();
        let ratio = r.makespan / lb;
        assert!(
            ratio <= 1.0 + 3.0 * 0.5 + 1e-9,
            "{}: ratio {ratio} exceeds 1 + 3*eps",
            family.name()
        );
    }
}

#[test]
fn fig1_gadget_scales() {
    for m in [2, 3, 4, 6] {
        let inst = gen::fig1_gadget(m);
        let r = Solver::with_epsilon(0.4).solve_instance(&inst).unwrap();
        validate_schedule(&inst, &r.schedule).unwrap();
        assert!(
            r.makespan <= 1.0 + 3.0 * 0.4 + 1e-9,
            "m={m}: makespan {} too far above OPT=1",
            r.makespan
        );
    }
}

#[test]
fn forced_swap_path_still_feasible() {
    // A tiny priority cap forces wildcard slots and the Lemma-7 swap
    // machinery; the result must stay feasible (quality may degrade).
    let mut cfg = EptasConfig::with_epsilon(0.5);
    cfg.priority_cap = Some(1);
    for seed in 0..3 {
        let inst = gen::clustered(36, 4, 14, 4, seed);
        let r = Solver::new(cfg.clone()).solve_instance(&inst).unwrap();
        validate_schedule(&inst, &r.schedule).unwrap();
    }
}

#[test]
fn two_stage_path_end_to_end() {
    // The x-model, then the greedy small-job realization over it.
    let inst = gen::uniform(30, 4, 12, 3);
    let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
    validate_schedule(&inst, &r.schedule).unwrap();
}

#[test]
fn degenerate_shapes() {
    // m = 1.
    let inst = Instance::new(&[(1.0, 0), (2.0, 1), (3.0, 2)], 1);
    let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
    assert!((r.makespan - 6.0).abs() < 1e-9);

    // All jobs identical, bags force perfect spread.
    let inst = gen::tight_bags(16, 4, 1);
    let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
    validate_schedule(&inst, &r.schedule).unwrap();

    // Many more machines than jobs.
    let inst = Instance::new(&[(1.0, 0), (1.0, 1)], 64);
    let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
    assert!((r.makespan - 1.0).abs() < 1e-9);

    // Single bag spanning every machine.
    let inst = Instance::new(&[(2.0, 0), (1.5, 0), (1.0, 0)], 3);
    let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
    assert!((r.makespan - 2.0).abs() < 1e-9);
}

#[test]
fn determinism() {
    let inst = gen::uniform(25, 4, 10, 13);
    let a = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
    let b = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.makespan, b.makespan);
}

#[test]
fn smaller_epsilon_never_hurts_much() {
    // Not a theorem (different guesses round differently), but across a
    // few seeds the eps = 0.3 result should never be worse than the
    // eps = 0.9 result by more than a whisker.
    for seed in 0..3 {
        let inst = gen::powerlaw(30, 4, 12, 1.5, seed);
        let coarse = Solver::with_epsilon(0.9).solve_instance(&inst).unwrap().makespan;
        let fine = Solver::with_epsilon(0.3).solve_instance(&inst).unwrap().makespan;
        assert!(fine <= coarse * 1.05 + 1e-9, "seed {seed}: {fine} vs {coarse}");
    }
}

/// A symbol budget of 0 stalls the pricing master of every rung, so
/// every guess fails and the LPT schedule answers.
fn pricing_starved() -> EptasConfig {
    let mut cfg = EptasConfig::with_epsilon(0.5);
    cfg.pricing_symbol_budget = 0;
    cfg
}

#[test]
fn pattern_budget_falls_back_to_lpt() {
    let inst = gen::uniform(20, 3, 8, 1);
    let r = Solver::new(pricing_starved()).solve_instance(&inst).unwrap();
    assert!(r.report.fell_back_to_lpt);
    assert_eq!(r.report.stats.lpt_fallbacks, 1);
    assert!(!r.report.failures.is_empty());
    validate_schedule(&inst, &r.schedule).unwrap();
    // The fallback is exactly the LPT upper bound.
    assert_eq!(r.makespan.to_bits(), r.report.lpt_upper_bound.to_bits());
}

/// A natural fallback at the default knobs: on this tight clustered
/// shape at eps 0.75 both guesses of the grid fail the Lemma-7 swap
/// repair, so the LPT schedule answers. The test pins a known weakness,
/// not a wanted behaviour: a change that lets a guess succeed here
/// should update it.
#[test]
fn swap_repair_failures_fall_back_to_lpt() {
    let inst = gen::clustered(40, 13, 16, 4, 3);
    let r = Solver::with_epsilon(0.75).solve_instance(&inst).unwrap();
    assert_eq!(
        r.report.failures,
        [(1.801923076923077, GuessFailure::SwapRepair), (1.875, GuessFailure::SwapRepair)]
    );
    assert!(r.report.fell_back_to_lpt);
    assert_eq!(r.report.stats.lpt_fallbacks, 1);
    assert_eq!(r.makespan.to_bits(), r.report.lpt_upper_bound.to_bits());
    validate_schedule(&inst, &r.schedule).unwrap();
}

#[test]
fn failures_carry_the_guess_value() {
    let inst = gen::uniform(15, 3, 6, 3);
    let r = Solver::new(pricing_starved()).solve_instance(&inst).unwrap();
    assert!(!r.report.failures.is_empty(), "a starved pricer must fail every guess");
    assert_eq!(r.report.stats.lpt_fallbacks, 1);
    assert_eq!(r.makespan.to_bits(), r.report.lpt_upper_bound.to_bits());
    for (guess, failure) in &r.report.failures {
        assert!(*guess > 0.0);
        assert_eq!(*failure, GuessFailure::PatternBudget);
    }
}

#[test]
fn epsilon_extremes() {
    let inst = gen::uniform(16, 3, 6, 9);
    for eps in [0.05, 0.95] {
        // Tiny eps explodes the paper constants; the budgets must degrade
        // gracefully (fallback allowed, feasibility mandatory).
        let r = Solver::with_epsilon(eps).solve_instance(&inst).unwrap();
        validate_schedule(&inst, &r.schedule).unwrap();
    }
}

#[test]
fn one_job_per_bag_reduces_to_classic_makespan() {
    // Singleton bags = classical makespan minimization; compare against
    // the classical LPT guarantee.
    let jobs: Vec<(f64, u32)> = (0..12).map(|i| (1.0 + (i as f64) * 0.3, i)).collect();
    let inst = Instance::new(&jobs, 3);
    let r = Solver::with_epsilon(0.3).solve_instance(&inst).unwrap();
    let lb = lower_bounds(&inst).combined();
    assert!(r.makespan <= lb * (4.0 / 3.0) + 1e-9);
}
