//! Regression pins for the branch-and-bound node warm starts (PR-5
//! tentpole): child-node LPs re-optimize from the parent basis via the
//! dual simplex instead of cold phase-1/phase-2 solves.
//!
//! Two claims are pinned:
//!
//! 1. **Work:** on the tight clustered witness the dual engine must cut
//!    the simplex+dual pivots per node LP of the restricted MILP by a
//!    wide margin (measured ~3.7x on the winning guess; the pin asserts
//!    ≥2x so scheduler and pool-composition noise cannot flake it), and
//!    the run-wide pivot total must drop too. The warm and cold runs
//!    explore different trees, so the pin compares pivots per node, not
//!    per tree.
//! 2. **Semantics:** warm-starting changes the work, not the answers —
//!    verdicts and makespans must be byte-identical to the cold-node
//!    path across a seeded sweep of every generator family.

use bagsched::eptas::{EptasConfig, EptasResult, Solver};
use bagsched::types::gen;

fn run(inst: &bagsched::types::Instance, dual: bool) -> EptasResult {
    let mut cfg = EptasConfig::with_epsilon(0.5);
    cfg.dual_simplex = dual;
    Solver::new(cfg).solve_instance(inst).unwrap()
}

#[test]
fn node_warm_starts_cut_restricted_milp_pivots() {
    let inst = gen::clustered(60, 20, 20, 5, 2);
    let warm = run(&inst, true);
    let cold = run(&inst, false);
    assert!(!warm.report.fell_back_to_lpt, "witness instance must take the priced path");

    // The dual engine must actually engage...
    let ws = &warm.report.stats;
    assert!(ws.node_warm_starts > 0, "no node LP warm-started");
    assert!(ws.dual_pivots > 0, "the dual engine never pivoted");
    assert_eq!(cold.report.stats.node_warm_starts, 0, "cold runs must not warm-start");
    assert_eq!(cold.report.stats.dual_pivots, 0, "cold runs must not dual-pivot");

    // ...and pay off: per node LP of the winning guess's restricted MILP
    // (simplex + dual pivots combined) the pivots at least halve, and the
    // run-wide total drops.
    let per_node = |r: &EptasResult| {
        let s = r.report.last_success.as_ref().expect("run succeeded");
        s.lp_iterations as f64 / s.milp_nodes as f64
    };
    let (wi, ci) = (per_node(&warm), per_node(&cold));
    assert!(
        2.0 * wi <= ci,
        "pivots per node LP {wi:.1} (warm) not at least 2x below {ci:.1} (cold)"
    );
    assert!(
        ws.simplex_pivots < cold.report.stats.simplex_pivots,
        "total pivots {} (warm) not below {} (cold)",
        ws.simplex_pivots,
        cold.report.stats.simplex_pivots
    );
}

/// The first `tight-milp` benchmark cell: its one restricted MILP prices
/// columns inside the tree and branches down on them, and every node but
/// the root must still start warm — a down-branch on a `[0, inf)` tree
/// column appends its bound row instead of forcing a cold node LP.
#[test]
fn every_non_root_node_starts_warm_on_the_tight_benchmark_cell() {
    let inst = gen::clustered(300, 100, 100, 5, 2);
    let r = run(&inst, true);
    let s = &r.report.stats;
    assert!(!r.report.fell_back_to_lpt, "the cell must take the priced path");
    assert_eq!(r.report.guesses_tried, 1, "one guess, hence one restricted MILP");
    assert!(s.tree_columns_generated > 0, "the tree pricer must engage on this cell");
    assert_eq!(
        s.node_warm_starts + 1,
        s.milp_nodes,
        "only the root may solve cold ({} warm of {} nodes)",
        s.node_warm_starts,
        s.milp_nodes
    );
}

/// Warm == cold, semantically: across every generator family and a
/// seeded sweep, the two paths must reach identical verdicts (LPT
/// fallback or not, same accepted guess) and byte-identical makespans.
/// The search trees need not coincide: a warm re-solve may stop at a
/// different optimal vertex than the cold solve (the witness above
/// explores different trees on the two paths), so only the answers are
/// pinned.
#[test]
fn warm_and_cold_node_paths_agree_across_families() {
    for family in gen::Family::ALL {
        for seed in [5u64, 17] {
            let inst = family.generate(24, 3, seed);
            let warm = run(&inst, true);
            let cold = run(&inst, false);
            let name = family.name();
            assert_eq!(
                warm.report.fell_back_to_lpt, cold.report.fell_back_to_lpt,
                "{name}/{seed}: verdict diverged"
            );
            assert_eq!(
                warm.report.chosen_guess, cold.report.chosen_guess,
                "{name}/{seed}: accepted guess diverged"
            );
            assert_eq!(
                warm.makespan.to_bits(),
                cold.makespan.to_bits(),
                "{name}/{seed}: makespan diverged ({} vs {})",
                warm.makespan,
                cold.makespan
            );
        }
    }
}
