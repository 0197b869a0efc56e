//! Cross-validation of template-quantized coarse bag classes (the PR-9
//! tentpole) against the exact-class and per-bag paths, plus the
//! de-class repair property.
//!
//! Coarsening is the *second-level* scale path: it engages only when the
//! per-bag master is over `pricing_symbol_budget` AND the exact class
//! count could not settle the guess. These tests force that regime on
//! small instances by picking a budget strictly between the coarse and
//! exact class counts — the exact-class attempt is then gated off, the
//! coarse attempt prices, and the default-budget solve of the same
//! instance serves as the verdict oracle.

use bagsched::eptas::classes::BagClasses;
use bagsched::eptas::classify::classify;
use bagsched::eptas::priority::select_priority;
use bagsched::eptas::rounding::scale_and_round;
use bagsched::eptas::transform::transform;
use bagsched::eptas::{EptasConfig, EptasResult, Solver};
use bagsched::types::{validate_schedule, Instance, InstanceBuilder};

/// Clusters of *near*-identical bags: group `g` holds `per_group` bags
/// carrying `3 + (i % 2)` jobs of size `sizes[g]`. Counts 3 and 4 land
/// in distinct exact profiles but share a geometric count bucket at the
/// default tolerance, so exact classes = 2 per group while coarse
/// classes = 1 per group.
fn near_symmetric(groups: usize, per_group: usize, m: usize, seed: u64) -> Instance {
    let sizes = [0.9, 0.8, 0.55, 0.7];
    let mut b = InstanceBuilder::new(m);
    let mut bag = 0u32;
    for g in 0..groups {
        let size = sizes[(g + seed as usize) % sizes.len()];
        for i in 0..per_group {
            for _ in 0..3 + (i % 2) {
                b.push(size, bag);
            }
            bag += 1;
        }
    }
    b.build()
}

/// A configuration whose symbol budget sits between the coarse and the
/// exact class count, forcing the coarse rescue on engaged guesses.
fn coarse_forced(budget: usize, tol: f64) -> EptasConfig {
    let mut cfg = EptasConfig::with_epsilon(0.5);
    cfg.pricing_symbol_budget = budget;
    cfg.coarse_tolerance = tol;
    cfg
}

/// `(exact, coarse)` class counts of the transformed instance at a
/// representative guess — geometric size rounding can merge sizes the
/// raw instance keeps apart, so the forcing budget is derived from the
/// transformed shape rather than hardcoded. `None` when the shape
/// leaves nothing to coarsen (coarse >= exact).
fn class_counts(inst: &Instance, tol: f64) -> Option<(usize, usize)> {
    let cfg = EptasConfig::with_epsilon(0.5);
    let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
    let r = scale_and_round(&sizes, 1.1, cfg.epsilon)?;
    let c = classify(&r, inst.num_machines());
    let p = select_priority(inst, &r, &c, &cfg);
    let trans = transform(inst, &r, &c, &p);
    let exact = BagClasses::compute(&trans).num_classes();
    let coarse = BagClasses::compute_coarse(&trans, tol).num_classes();
    (coarse < exact).then_some((exact, coarse))
}

fn solve(cfg: EptasConfig, inst: &Instance) -> EptasResult {
    Solver::new(cfg).solve_instance(inst).unwrap()
}

/// De-class repair property: whenever the coarse path produces the
/// schedule, that schedule must validate — every job placed exactly
/// once (per-(bag, size) totals are exact by construction) and never
/// two jobs of one bag on one machine — across seeds and coarsening
/// tolerances, and it must stay inside the `1 + 3*eps` envelope of its
/// accepted guess.
#[test]
fn repair_output_always_validates_across_seeds_and_tolerances() {
    let eps = 0.5;
    let mut engaged = 0usize;
    for seed in 0..4u64 {
        for &tol in &[0.5, 1.0, 2.0] {
            let inst = near_symmetric(3, 2, 6, seed);
            // A budget strictly between the coarse and exact class
            // counts gates the exact attempt off and lets the coarse
            // master through.
            let Some((exact, _)) = class_counts(&inst, tol) else {
                continue;
            };
            let r = solve(coarse_forced(exact - 1, tol), &inst);
            let tag = format!("seed={seed} tol={tol}");
            validate_schedule(&inst, &r.schedule).unwrap_or_else(|e| panic!("{tag}: {e}"));
            if r.report.stats.coarse_classes_formed == 0 {
                continue; // LPT shortcut or exact path settled it
            }
            engaged += 1;
            assert_eq!(
                r.report.stats.repair_failures, 0,
                "{tag}: repair failed on a shape built to fit"
            );
            if let Some(guess) = r.report.chosen_guess {
                assert!(
                    r.makespan <= guess * (1.0 + 3.0 * eps) + 1e-9,
                    "{tag}: coarse schedule left the approximation envelope"
                );
            }
        }
    }
    assert!(engaged >= 6, "too few runs engaged the coarse path ({engaged})");
}

/// Coarse-vs-exact oracle sweep: six structured families x three seeds,
/// the coarse-forced solve against the default-budget oracle (same
/// epsilon, coarsening irrelevant below the gate). Both must validate,
/// the coarse path must form coarse classes on enough of the sweep to
/// keep the floor, and both stay within the `1 + 3*eps` envelope of
/// their accepted guess — the paper contract coarsening must not
/// loosen.
#[test]
fn coarse_path_cross_validates_against_exact_oracle() {
    let eps = 0.5;
    let families: [(usize, usize, usize); 6] =
        [(3, 2, 6), (3, 3, 7), (4, 2, 8), (2, 4, 6), (4, 3, 9), (2, 3, 5)];
    let mut engaged = 0usize;
    for (fi, &(groups, per_group, m)) in families.iter().enumerate() {
        for seed in 0..3u64 {
            let inst = near_symmetric(groups, per_group, m, seed);
            let Some((exact, _)) = class_counts(&inst, 0.5) else {
                continue;
            };
            let coarse = solve(coarse_forced(exact - 1, 0.5), &inst);
            let oracle = solve(EptasConfig::with_epsilon(eps), &inst);
            let tag =
                format!("family={fi} groups={groups} per_group={per_group} m={m} seed={seed}");
            validate_schedule(&inst, &coarse.schedule).unwrap_or_else(|e| panic!("{tag}: {e}"));
            validate_schedule(&inst, &oracle.schedule).unwrap_or_else(|e| panic!("{tag}: {e}"));
            if coarse.report.stats.coarse_classes_formed == 0 {
                // LPT shortcut, or the class structure at the *actual*
                // guesses (rounding is guess-dependent) fit the exact
                // path after all; the sweep-level floor below keeps the
                // test honest about how often coarsening really ran.
                continue;
            }
            engaged += 1;
            for (name, r) in [("coarse", &coarse), ("oracle", &oracle)] {
                if let Some(guess) = r.report.chosen_guess {
                    assert!(
                        r.makespan <= guess * (1.0 + 3.0 * eps) + 1e-9,
                        "{tag}: {name} left the approximation envelope"
                    );
                }
            }
            // The coarse master is a relaxation and repair re-places the
            // surplus, so the end-to-end makespan must stay comparable
            // to the oracle's within the same envelope.
            assert!(
                coarse.makespan <= oracle.makespan * (1.0 + 3.0 * eps) + 1e-9,
                "{tag}: coarse makespan {} strays beyond the envelope of the oracle's {}",
                coarse.makespan,
                oracle.makespan
            );
        }
    }
    assert!(engaged >= 8, "too few shapes engaged the pipeline ({engaged})");
}

/// A zero tolerance is the coarsening off switch: with the budget forcing
/// the aggregated path, `coarse_tolerance = 0.0` reproduces the exact
/// partition, so no coarse class forms, while the default tolerance on
/// the same budget does engage the coarse rung.
#[test]
fn zero_tolerance_forms_no_coarse_class() {
    let inst = near_symmetric(3, 2, 6, 0);
    let (exact, _) = class_counts(&inst, 0.5).expect("fixture must coarsen");
    let off = Solver::new(coarse_forced(exact - 1, 0.0)).solve_instance(&inst).unwrap();
    let on = Solver::new(coarse_forced(exact - 1, 0.5)).solve_instance(&inst).unwrap();
    validate_schedule(&inst, &off.schedule).unwrap();
    assert!(off.report.stats.bag_classes > 0, "the budget must force the aggregated path");
    assert_eq!(off.report.stats.coarse_classes_formed, 0, "tolerance 0.0 formed coarse classes");
    assert_eq!(off.report.stats.repair_jobs_moved, 0);
    assert!(on.report.stats.coarse_classes_formed > 0, "the default tolerance must coarsen");
}

/// Replay of a coarse-class seed: a cached `Solver` whose cold solve
/// settles on the coarse rung answers the repeat from the cache — no
/// pricing, no enumeration — with the same schedule.
#[test]
fn coarse_class_seed_replays_through_the_cache() {
    let inst = near_symmetric(3, 2, 6, 0);
    let (exact, _) = class_counts(&inst, 0.5).expect("fixture must coarsen");
    let solver = Solver::with_cache(coarse_forced(exact - 1, 0.5), 4);
    let cold = solver.solve_instance(&inst).unwrap();
    assert!(!cold.report.replayed);
    // Only a coarse rung that settled its guess runs the de-class repair.
    let s = &cold.report.stats;
    assert!(s.coarse_classes_formed > 0, "cold solve must engage the coarse rung");
    assert!(s.repair_jobs_moved > 0, "the coarse rung must settle a guess");
    let hit = solver.solve_instance(&inst).unwrap();
    assert!(hit.report.replayed, "the repeat must replay the coarse seed");
    assert_eq!(hit.report.stats.patterns_enumerated, 0);
    assert_eq!(hit.report.stats.pricing_rounds, 0);
    assert_eq!(hit.report.stats.milp_nodes, 0, "a hit must skip the MILP");
    assert_eq!(hit.schedule.assignment(), cold.schedule.assignment());
    assert_eq!(hit.makespan.to_bits(), cold.makespan.to_bits());
}
