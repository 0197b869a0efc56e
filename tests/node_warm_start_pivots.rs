//! Regression pin for the branch-and-bound node warm starts: the root
//! node LP of the restricted MILP starts from the pricing master's final
//! basis, and every child node LP re-optimizes from its parent's basis
//! via the dual simplex, so on a tight benchmark cell no node LP solves
//! cold.
//!
//! That warm trees reach the same optima as enumeration is pinned in
//! `milp::branch`'s unit tests; that each warm node LP matches a cold
//! solve of the same LP is pinned in `milp::dual`'s, and that a seeded
//! root matches a cold one in `milp::branch`'s.

use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::gen;

/// The second `tight-milp` benchmark cell: its one restricted MILP prices
/// columns inside the tree and branches down on them, and every node,
/// the root included, must start warm — the root from the master's basis,
/// and a down-branch on a `[0, inf)` tree column by appending its bound
/// row instead of forcing a cold node LP.
#[test]
fn every_node_starts_warm_on_the_tight_benchmark_cell() {
    let inst = gen::clustered(450, 150, 150, 5, 2);
    let r = Solver::new(EptasConfig::with_epsilon(0.5)).solve_instance(&inst).unwrap();
    let s = &r.report.stats;
    assert!(!r.report.fell_back_to_lpt, "the cell must take the priced path");
    assert_eq!(r.report.guesses_tried, 1, "one guess, hence one restricted MILP");
    assert!(s.tree_columns_generated > 0, "the tree pricer must engage on this cell");
    assert!(s.milp_nodes > 1, "the tree must branch ({} nodes)", s.milp_nodes);
    assert_eq!(
        s.node_warm_starts, s.milp_nodes,
        "no node may solve cold ({} warm of {} nodes)",
        s.node_warm_starts, s.milp_nodes
    );
}
