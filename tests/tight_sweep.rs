//! The 60-cell tight sweep: `gen::clustered(n, n/3, n/3, 5, seed)` at
//! n = 300 and 450, seeds 1-30, eps 0.5. Two benchmark cells cannot tell a
//! change to the branch-and-price trees from noise, since single trees
//! move several-fold either way; the sums over these 60 can.
//!
//! Every cell must take the priced path with no failed guess and solve
//! one LP cold per guess (one `milp.simplex` span: phase A's first master
//! solve), and the summed branch-and-bound nodes and simplex pivots must
//! stay below the sweep's totals with phase B and the restricted MILP's
//! root started cold: 2,165 nodes and 98,007 pivots.

use bagsched::eptas::{obs, EptasConfig, Solver};
use bagsched::types::{gen, validate_schedule};

/// Summed nodes and simplex pivots of the sweep with a cold phase B and a
/// cold root.
const COLD_NODES: u64 = 2_165;
const COLD_PIVOTS: u64 = 98_007;

#[test]
fn the_tight_sweep_stays_on_the_priced_path_with_fewer_nodes_and_pivots() {
    let cells: Vec<(usize, u64)> =
        [300, 450].into_iter().flat_map(|n| (1..=30).map(move |seed| (n, seed))).collect();
    // Two workers, each summing every other cell: the sums do not depend
    // on how the cells are split.
    let sums: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let cells = &cells;
                scope.spawn(move || {
                    let (mut nodes, mut pivots) = (0, 0);
                    for &(n, seed) in cells.iter().skip(w).step_by(2) {
                        let tag = format!("n={n} seed {seed}");
                        let inst = gen::clustered(n, n / 3, n / 3, 5, seed);
                        let rec = obs::Recorder::new();
                        let r = {
                            let _obs = rec.install("tight-sweep");
                            Solver::new(EptasConfig::with_epsilon(0.5))
                                .solve_instance(&inst)
                                .unwrap()
                        };
                        validate_schedule(&inst, &r.schedule)
                            .unwrap_or_else(|e| panic!("{tag}: {e}"));
                        assert!(!r.report.fell_back_to_lpt, "{tag}: fell back to LPT");
                        assert!(r.report.failures.is_empty(), "{tag}: {:?}", r.report.failures);
                        let s = &r.report.stats;
                        assert_eq!(
                            s.node_warm_starts, s.milp_nodes,
                            "{tag}: a node LP solved cold"
                        );
                        let cold = rec.profile().get("milp.simplex").map_or(0, |p| p.count);
                        assert_eq!(
                            cold, r.report.guesses_tried as u64,
                            "{tag}: {cold} cold LPs over {} guesses",
                            r.report.guesses_tried
                        );
                        nodes += s.milp_nodes;
                        pivots += s.simplex_pivots;
                    }
                    (nodes, pivots)
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let nodes: u64 = sums.iter().map(|s| s.0).sum();
    let pivots: u64 = sums.iter().map(|s| s.1).sum();
    assert!(nodes < COLD_NODES, "{nodes} nodes over the sweep, {COLD_NODES} with cold starts");
    assert!(pivots < COLD_PIVOTS, "{pivots} pivots over the sweep, {COLD_PIVOTS} with cold starts");
}
