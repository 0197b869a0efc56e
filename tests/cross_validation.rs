//! Cross-validation of the whole solver stack: EPTAS vs the exact
//! branch-and-bound optimum, the PTAS baseline, and the heuristics.

use bagsched::baselines::{bag_aware_lpt, dw_ptas, exact_makespan, DwPtasConfig};
use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::{gen, validate_schedule};

/// Column generation vs the eager-enumeration oracle, across every
/// seeded small/medium generator family.
///
/// The quantity pattern enumeration is an oracle *for* is the per-guess
/// feasibility verdict, and hence the guess the binary search accepts:
/// that must agree within 1e-9 whenever both paths conclusively accept
/// one (the priced path may additionally accept guesses the eager path
/// gives up on — it is strictly more capable, never less). The realized
/// schedules may legitimately differ — the configuration MILP returns
/// *any* feasible configuration, and different pattern pools select
/// different ones — so the end-to-end makespan is gated directionally:
/// pricing never loses to enumeration, and both stay feasible and inside
/// the proven `1 + 3*eps` envelope of their accepted guess.
#[test]
fn column_generation_cross_validates_against_enumeration_oracle() {
    let eps = 0.5;
    for family in gen::Family::ALL {
        for &(n, m) in &[(12usize, 3usize), (24, 4)] {
            for seed in 0..3 {
                let inst = family.generate(n, m, seed);
                let cg = Solver::with_epsilon(eps).solve_instance(&inst).unwrap();
                let mut cfg = EptasConfig::with_epsilon(eps);
                cfg.column_generation = false;
                let eager = Solver::new(cfg).solve_instance(&inst).unwrap();

                let tag = format!("{} n={n} m={m} seed={seed}", family.name());
                validate_schedule(&inst, &cg.schedule).unwrap_or_else(|e| panic!("{tag}: {e}"));
                validate_schedule(&inst, &eager.schedule).unwrap_or_else(|e| panic!("{tag}: {e}"));
                if let (Some(gc), Some(ge)) = (cg.report.chosen_guess, eager.report.chosen_guess) {
                    assert!(
                        gc <= ge + 1e-9,
                        "{tag}: priced path accepted a worse guess ({gc} > {ge})"
                    );
                }
                assert!(
                    cg.makespan <= eager.makespan + 1e-9,
                    "{tag}: pricing lost to the enumeration oracle ({} > {})",
                    cg.makespan,
                    eager.makespan
                );
                for (name, r) in [("cg", &cg), ("eager", &eager)] {
                    if let Some(guess) = r.report.chosen_guess {
                        assert!(
                            r.makespan <= guess * (1.0 + 3.0 * eps) + 1e-9,
                            "{tag}: {name} left the approximation envelope"
                        );
                    }
                }
            }
        }
    }
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
