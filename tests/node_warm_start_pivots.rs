//! Regression pin for the branch-and-bound node warm starts: child-node
//! LPs re-optimize from the parent basis via the dual simplex instead of
//! cold phase-1/phase-2 solves, so on the tight benchmark cell only the
//! root node LP of the restricted MILP solves cold.
//!
//! That warm trees reach the same optima as enumeration is pinned in
//! `milp::branch`'s unit tests; that each warm node LP matches a cold
//! solve of the same LP is pinned in `milp::dual`'s.

use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::gen;

/// The first `tight-milp` benchmark cell: its one restricted MILP prices
/// columns inside the tree and branches down on them, and every node but
/// the root must still start warm — a down-branch on a `[0, inf)` tree
/// column appends its bound row instead of forcing a cold node LP.
#[test]
fn every_non_root_node_starts_warm_on_the_tight_benchmark_cell() {
    let inst = gen::clustered(300, 100, 100, 5, 2);
    let r = Solver::new(EptasConfig::with_epsilon(0.5)).solve_instance(&inst).unwrap();
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
