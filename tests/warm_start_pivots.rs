//! Regression pin for the warm-started master re-solves: on a priced
//! instance the pricing master re-solves from the previous optimal
//! basis, and the estimated pivot saving against cold two-phase
//! re-solves must be positive.

use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::gen;

/// The pinned witness: tight clustered, the same family the pricing
/// subsystem was built for. Warm starts skip phase 1 entirely and
/// continue from the previous vertex, so each warm re-solve pays far
/// fewer pivots than the last cold solve of the same master (before the
/// cold master path was deleted: ~2.4k vs ~6.0k pivots in total).
#[test]
fn warm_start_strictly_reduces_total_pivots_on_priced_instances() {
    let inst = gen::clustered(60, 20, 20, 5, 2);
    let out = Solver::new(EptasConfig::with_epsilon(0.5)).solve_instance(&inst).unwrap();
    assert!(!out.report.fell_back_to_lpt, "witness instance must take the priced path");
    assert!(
        out.report.stats.warm_start_pivots_saved > 0,
        "the saving estimate must be live on a priced instance"
    );
}
