//! Cross-validation of the whole solver stack: EPTAS vs the exact
//! branch-and-bound optimum, the PTAS baseline, and the heuristics.

mod common;

use bagsched::baselines::{bag_aware_lpt, dw_ptas, exact_makespan, DwPtasConfig};
use bagsched::eptas::milp_model::{solve_with_patterns, PatternSolve};
use bagsched::eptas::pattern::enumerate_patterns;
use bagsched::eptas::report::{GuessFailure, Stats};
use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::{gen, validate_schedule};

/// Enumeration budget of the oracle: the pattern spaces of these shapes
/// fit far inside it.
const ORACLE_BUDGET: usize = 20_000;

/// Column generation vs the eager-enumeration oracle, guess by guess,
/// across every seeded small/medium generator family.
///
/// At every guess of the driver's grid, and at three grid steps below
/// its lower bound where the infeasibility proofs live, the oracle
/// enumerates the whole per-bag pattern space and solves the
/// configuration MILP over it. Every enumeration on the grid must fit the
/// oracle's budget; below the grid a guess whose enumeration does not is
/// skipped. Two rules tie the priced pattern solve to the oracle:
///
/// * when the oracle accepts a guess, the priced solve accepts it too —
///   pricing is never less capable than enumeration;
/// * when the priced solve refutes a guess as infeasible, the oracle
///   refutes it as infeasible too — the refutation is exact.
///
/// Both searches bisect the same grid, so the first rule bounds the
/// guesses too: the smallest guess the priced bisection accepts is at
/// most the smallest the oracle's would accept. The realized schedules
/// may legitimately differ — the configuration MILP returns *any*
/// feasible configuration, and different pattern pools select different
/// ones.
#[test]
fn column_generation_cross_validates_against_enumeration_oracle() {
    let eps = 0.5;
    let step = 1.0 + eps / 2.0;
    let cfg = EptasConfig::with_epsilon(eps);
    let (mut accepted, mut refuted) = (0, 0);
    for family in gen::Family::ALL {
        for &(n, m) in &[(12usize, 3usize), (24, 4)] {
            for seed in 0..3 {
                let inst = family.generate(n, m, seed);
                let grid = common::guess_grid(&inst, eps);
                let below: Vec<f64> = grid
                    .first()
                    .map_or(Vec::new(), |&lb| (1..=3).map(|k| lb / step.powi(k)).collect());
                let guesses = grid.iter().map(|&g| (g, true));
                for (guess, on_grid) in guesses.chain(below.into_iter().map(|g| (g, false))) {
                    let tag = format!("{} n={n} m={m} seed={seed} guess={guess}", family.name());
                    let Some(t) = common::transformed_at(&inst, guess, &cfg) else {
                        continue;
                    };
                    let ps = match enumerate_patterns(&t, ORACLE_BUDGET) {
                        Ok(ps) => ps,
                        Err(_) if !on_grid => continue,
                        Err(_) => panic!("{tag}: oracle over its budget"),
                    };
                    let oracle = solve_with_patterns(&t, &ps, &cfg, &mut Stats::default());
                    let priced = PatternSolve::new(&t, &cfg).run(&mut Stats::default());
                    if oracle.is_ok() {
                        accepted += 1;
                        assert!(
                            priced.is_ok(),
                            "{tag}: the oracle accepts, pricing fails with {:?}",
                            priced.err()
                        );
                    }
                    if let Err(GuessFailure::MilpInfeasible) = priced {
                        refuted += 1;
                        assert_eq!(
                            oracle.as_ref().err(),
                            Some(&GuessFailure::MilpInfeasible),
                            "{tag}: pricing refutes a guess the oracle does not"
                        );
                    }
                }
            }
        }
    }
    // Both rules must have had something to check.
    assert!(accepted > 0 && refuted > 0, "{accepted} accepted, {refuted} refuted");
}

#[test]
fn eptas_within_bound_of_true_optimum() {
    // Exhaustive check against exact optima on small instances. Every
    // guess must settle on the MILP path: the small-job cuts of the
    // x-model plus the greedy realization have to carry these shapes
    // without the LPT fallback.
    for (n, m, eps) in [(11, 3, 0.4), (16, 4, 0.5)] {
        for family in gen::Family::ALL {
            for seed in 0..3 {
                let name = format!("{} n={n} m={m} seed {seed}", family.name());
                let inst = family.generate(n, m, seed);
                let exact = exact_makespan(&inst, 20_000_000).unwrap();
                assert!(exact.proven_optimal, "{name}: exact budget too small");
                let r = Solver::with_epsilon(eps).solve_instance(&inst).unwrap();
                assert!(!r.report.fell_back_to_lpt, "{name}: fell back to LPT");
                let ratio = r.makespan / exact.makespan;
                assert!(
                    ratio <= 1.0 + 3.0 * eps + 1e-9,
                    "{name}: ratio {ratio:.4} > 1 + 3 eps (eptas {}, opt {})",
                    r.makespan,
                    exact.makespan
                );
                assert!(ratio >= 1.0 - 1e-9, "{name}: beat the optimum?!");
            }
        }
    }
}

#[test]
fn eptas_never_loses_to_lpt() {
    // By construction the driver returns min(EPTAS pipeline, LPT).
    for family in gen::Family::ALL {
        for seed in 0..2 {
            let inst = family.generate(28, 4, seed + 20);
            let lpt = bag_aware_lpt(&inst).unwrap().makespan(&inst);
            let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
            assert!(r.makespan <= lpt + 1e-9, "{} seed {seed}", family.name());
        }
    }
}

#[test]
fn eptas_and_ptas_agree_on_small_instances() {
    // Both schemes promise (1 + O(eps)); their outputs should be within a
    // small factor of each other everywhere.
    let eps = 0.4;
    for seed in 0..3 {
        let inst = gen::uniform(14, 3, 6, seed);
        let a = Solver::with_epsilon(eps).solve_instance(&inst).unwrap().makespan;
        let b = dw_ptas(&inst, &DwPtasConfig::with_epsilon(eps)).unwrap().makespan(&inst);
        assert!(
            a <= b * (1.0 + eps) + 1e-9 && b <= a * (1.0 + eps) + 1e-9,
            "seed {seed}: eptas {a} vs ptas {b}"
        );
    }
}

#[test]
fn all_solvers_feasible_on_adversarial_bags() {
    type SolverFn<'a> = Box<dyn Fn() -> bagsched::types::Schedule + 'a>;
    let inst = gen::adversarial_bags(30, 5, 77);
    let solvers: Vec<(&str, SolverFn)> = vec![
        ("bag_aware_lpt", Box::new(|| bag_aware_lpt(&inst).unwrap())),
        ("eptas", Box::new(|| Solver::with_epsilon(0.5).solve_instance(&inst).unwrap().schedule)),
        ("dw_ptas", Box::new(|| dw_ptas(&inst, &DwPtasConfig::with_epsilon(0.5)).unwrap())),
    ];
    for (name, run) in solvers {
        let s = run();
        validate_schedule(&inst, &s).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn exact_optimum_confirms_bag_price() {
    // The same job sizes with and without bag-constraints: the
    // constrained optimum can only be larger, and the EPTAS must track
    // both correctly.
    let sizes = [3.0, 3.0, 2.0, 2.0, 1.0, 1.0];
    let with_bags: Vec<(f64, u32)> = sizes.iter().map(|&s| (s, (s * 2.0) as u32)).collect();
    let without: Vec<(f64, u32)> = sizes.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
    let inst_bags = bagsched::types::Instance::new(&with_bags, 2);
    let inst_free = bagsched::types::Instance::new(&without, 2);
    let opt_bags = exact_makespan(&inst_bags, 10_000_000).unwrap().makespan;
    let opt_free = exact_makespan(&inst_free, 10_000_000).unwrap().makespan;
    assert!(opt_bags >= opt_free - 1e-9);
    let r = Solver::with_epsilon(0.3).solve_instance(&inst_bags).unwrap();
    assert!(r.makespan >= opt_bags - 1e-9);
    assert!(r.makespan <= opt_bags * (1.0 + 3.0 * 0.3) + 1e-9);
}
