//! Cross-validation of class-level bag aggregation (the PR-4 tentpole)
//! against the per-bag pricing path, plus the de-classing property.
//!
//! Aggregation only engages when the per-bag master is over its class
//! budget (it is the *scale* path), so these tests lower
//! `pricing_symbol_budget` between the class count and the bag count to
//! force the aggregated path on instances small enough that the per-bag
//! path (at the default budget) can serve as the verdict oracle.

use bagsched::eptas::classes::BagClasses;
use bagsched::eptas::classify::classify;
use bagsched::eptas::pattern::SlotBag;
use bagsched::eptas::priority::select_priority;
use bagsched::eptas::report::Stats;
use bagsched::eptas::rounding::scale_and_round;
use bagsched::eptas::transform::transform;
use bagsched::eptas::{EptasConfig, EptasResult, PatternSolve, Solver};
use bagsched::types::{validate_schedule, Instance};

/// Highly symmetric instances: `groups` clusters of identical single-job
/// bags over `sizes`, plus per-cluster small jobs — few classes, many
/// bags.
fn symmetric_instance(groups: usize, per_group: usize, m: usize, seed: u64) -> Instance {
    let sizes = [0.9, 0.55, 0.35, 0.8];
    let mut b = bagsched::types::InstanceBuilder::new(m);
    let mut bag = 0u32;
    for g in 0..groups {
        for _ in 0..per_group {
            b.push(sizes[(g + seed as usize) % sizes.len()], bag);
            bag += 1;
        }
    }
    b.build()
}

fn solve_aggregated(inst: &Instance, budget: usize) -> EptasResult {
    let mut cfg = EptasConfig::with_epsilon(0.5);
    cfg.pricing_symbol_budget = budget;
    Solver::new(cfg).solve_instance(inst).unwrap()
}

/// The per-bag oracle: the default configuration, whose symbol budget
/// these small instances stay below.
fn solve_per_bag(inst: &Instance) -> EptasResult {
    Solver::new(EptasConfig::with_epsilon(0.5)).solve_instance(inst).unwrap()
}

/// The aggregated path must reach the same accepted guess as the per-bag
/// path (running at the default budget, where it handles these instances
/// comfortably), and both schedules must validate.
#[test]
fn aggregated_and_per_bag_paths_choose_the_same_guess() {
    let mut engaged = 0usize;
    for (groups, per_group, m, seed) in
        [(3usize, 4usize, 6usize, 0u64), (2, 6, 6, 1), (4, 3, 7, 2), (3, 5, 8, 3)]
    {
        let inst = symmetric_instance(groups, per_group, m, seed);
        // classes ~ groups, bags = groups * per_group: force the gate
        // open with a budget strictly between the two.
        let budget = groups + 2;
        assert!(budget < groups * per_group, "test setup: budget must be below the bag count");
        let agg = solve_aggregated(&inst, budget);
        let per_bag = solve_per_bag(&inst);
        let tag = format!("groups={groups} per_group={per_group} m={m} seed={seed}");
        validate_schedule(&inst, &agg.schedule).unwrap_or_else(|e| panic!("{tag}: {e}"));
        validate_schedule(&inst, &per_bag.schedule).unwrap_or_else(|e| panic!("{tag}: {e}"));
        if agg.report.guesses_tried == 0 {
            continue; // LPT was already optimal: no pipeline ran
        }
        engaged += 1;
        assert!(
            agg.report.stats.bag_classes > 0,
            "{tag}: the aggregated run must count its classes"
        );
        match (agg.report.chosen_guess, per_bag.report.chosen_guess) {
            (Some(a), Some(b)) => {
                assert!((a - b).abs() < 1e-9, "{tag}: aggregated chose {a}, per-bag chose {b}")
            }
            (a, b) => assert_eq!(
                a.is_some(),
                b.is_some(),
                "{tag}: one path fell back to LPT, the other did not"
            ),
        }
    }
    assert!(engaged >= 2, "too few shapes engaged the pipeline ({engaged})");
}

/// Above the gate, the aggregated run's per-guess master is keyed on
/// classes: its symbol counter stays far below what the per-bag run
/// carries for the same instance.
#[test]
fn aggregation_collapses_symbols_when_engaged() {
    let inst = symmetric_instance(3, 6, 8, 0);
    let agg = solve_aggregated(&inst, 6);
    let per_bag = solve_per_bag(&inst);
    validate_schedule(&inst, &agg.schedule).unwrap();
    let sa = &agg.report.stats;
    let sb = &per_bag.report.stats;
    assert!(sa.bag_classes > 0 && sa.symbols_after_aggregation > 0);
    assert!(
        sa.symbols_after_aggregation < sb.symbols_after_aggregation,
        "aggregation did not shrink the symbol space: {} vs {}",
        sa.symbols_after_aggregation,
        sb.symbols_after_aggregation
    );
}

/// De-classing property: the concrete pattern set returned by the
/// aggregated path never gives one priority bag two slots in a pattern —
/// i.e. never two jobs of one bag on one machine — and covers every
/// per-bag symbol availability exactly. Swept across seeds/shapes so the
/// König coloring sees many multigraphs.
#[test]
fn declassing_never_doubles_a_bag_on_a_machine() {
    for seed in 0..6u64 {
        let groups = 2 + (seed as usize % 3);
        let inst = symmetric_instance(groups, 5, 6 + seed as usize % 3, seed);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.pricing_symbol_budget = groups + 2;
        let Some(r) = scale_and_round(&sizes, 1.1, cfg.epsilon) else {
            continue;
        };
        let c = classify(&r, inst.num_machines());
        let p = select_priority(&inst, &r, &c, &cfg);
        let trans = transform(&inst, &r, &c, &p);
        let classes = BagClasses::compute(&trans);
        assert!(!classes.all_singletons(), "seed {seed}: instance must have real classes");
        let mut stats = Stats::default();
        let Ok(sol) = PatternSolve::new(&trans, &cfg).run(&mut stats) else {
            continue; // guess infeasible at this scale: nothing to check
        };
        let (ps, out) = (sol.patterns, sol.outcome);
        let mut covered = vec![0u32; ps.symbols.len()];
        for (pi, pat) in ps.patterns.iter().enumerate() {
            let mut bags = Vec::new();
            for &(s, mult) in &pat.entries {
                covered[s] += out.x[pi] * mult as u32;
                if let SlotBag::Priority(bag) = ps.symbols[s].bag {
                    assert_eq!(mult, 1, "seed {seed}: priority slot multiplicity must be 1");
                    assert!(
                        !bags.contains(&bag),
                        "seed {seed}: two slots of bag {bag:?} on one machine"
                    );
                    bags.push(bag);
                }
            }
        }
        for (s, sym) in ps.symbols.iter().enumerate() {
            assert_eq!(
                covered[s], sym.avail,
                "seed {seed}: symbol {s} covered {} != avail {}",
                covered[s], sym.avail
            );
        }
    }
}

/// Replay of an exact-class seed: a cached `Solver` whose cold solve
/// settles every guess on the exact-class rung answers the repeat from
/// the cache — no pricing, no enumeration — with the same schedule.
#[test]
fn exact_class_seed_replays_through_the_cache() {
    let inst = symmetric_instance(3, 6, 8, 0);
    let mut cfg = EptasConfig::with_epsilon(0.5);
    cfg.pricing_symbol_budget = 6;
    let solver = Solver::with_cache(cfg, 4);
    let cold = solver.solve_instance(&inst).unwrap();
    assert!(!cold.report.replayed);
    let won = cold.report.last_success.as_ref().expect("the pipeline must win this shape");
    // A per-bag attempt adds one class per priority bag, so a total below
    // one guess's bag count means no guess left the exact-class rung.
    assert!(
        cold.report.stats.bag_classes < won.priority_bags as u64,
        "cold solve must settle on exact classes: {} classes over {} guesses, {} priority bags",
        cold.report.stats.bag_classes,
        cold.report.guesses_tried,
        won.priority_bags
    );
    let hit = solver.solve_instance(&inst).unwrap();
    assert!(hit.report.replayed, "the repeat must replay the exact-class seed");
    assert_eq!(hit.report.stats.patterns_enumerated, 0);
    assert_eq!(hit.report.stats.pricing_rounds, 0);
    assert_eq!(hit.report.stats.milp_nodes, 0, "a hit must skip the MILP");
    assert_eq!(hit.schedule.assignment(), cold.schedule.assignment());
    assert_eq!(hit.makespan.to_bits(), cold.makespan.to_bits());
}
