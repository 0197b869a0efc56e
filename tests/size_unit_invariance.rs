//! The size unit changes no solver step. Scaling every job size by a power
//! of two scales every guess exactly, and the restricted MILP is built from
//! the sizes divided by the guess, so the pricing DFS, the LPs and the
//! branch-and-bound tree (rounding heuristic included) must take the same
//! steps in any unit. The benchmark relies on this: it expresses
//! its cells in a power-of-two unit picked by its seed and compares the
//! work counters across seeds.

use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::gen;

/// The second `tight-milp` benchmark cell, whose tree rounds a node LP to
/// its incumbent, solved in three units.
#[test]
fn a_power_of_two_unit_changes_no_work_counter() {
    let inst = gen::clustered(450, 150, 150, 5, 2);
    let work = |unit: f64| {
        let r =
            Solver::new(EptasConfig::with_epsilon(0.5)).solve_instance(&inst.scaled(unit)).unwrap();
        assert!(!r.report.fell_back_to_lpt, "unit {unit}: fell back to LPT");
        let s = r.report.stats;
        let counters = [
            s.milp_nodes,
            s.simplex_pivots,
            s.dual_pivots,
            s.basis_refactorizations,
            s.pricing_dfs_nodes,
        ];
        (counters, r.report.chosen_guess.map(|g| g / unit), r.makespan / unit)
    };
    let one = work(1.0);
    assert!(one.0[0] > 1, "the cell must branch ({} nodes)", one.0[0]);
    for unit in [0.25, 8.0] {
        assert_eq!(work(unit), one, "unit {unit} against unit 1");
    }
}
