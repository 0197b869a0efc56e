//! A wide sweep of the solver over every generator family: 6 families ×
//! 11 shapes × 30 seeds × 2 epsilons × 2 priority caps = 7,920 solves.
//!
//! The quick experiment suite gates LPT fallbacks on its few cells only;
//! this sweep holds the same ceiling on a grid wide enough to catch a
//! change that moves the fallback rate of small shapes.

use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::lowerbound::lower_bounds;
use bagsched::types::{gen, validate_schedule};

/// `(n, m)` shapes: near-tight small ones and tight n/m = 3 ones.
const SHAPES: [(usize, usize); 11] = [
    (12, 3),
    (16, 4),
    (20, 3),
    (24, 4),
    (28, 4),
    (40, 4),
    (30, 10),
    (40, 13),
    (60, 20),
    (90, 30),
    (120, 40),
];

/// Solves of the sweep that may answer with the LPT schedule because
/// every guess failed.
const MAX_LPT_FALLBACKS: u64 = 27;

#[test]
fn every_family_solves_feasibly_within_the_envelope() {
    let mut fallbacks = 0;
    let mut solves = 0;
    for family in gen::Family::ALL {
        for &(n, m) in &SHAPES {
            for seed in 0..30 {
                let inst = family.generate(n, m, seed);
                let lb = lower_bounds(&inst).combined();
                for eps in [0.5, 0.3] {
                    for cap in [None, Some(1)] {
                        let tag =
                            format!("{} {n}/{m} seed {seed} eps {eps} cap {cap:?}", family.name());
                        let mut cfg = EptasConfig::with_epsilon(eps);
                        cfg.priority_cap = cap;
                        let r = Solver::new(cfg).solve_instance(&inst).unwrap();
                        validate_schedule(&inst, &r.schedule)
                            .unwrap_or_else(|e| panic!("{tag}: {e}"));
                        assert_eq!(r.report.safety_net_moves, 0, "{tag}: safety net engaged");
                        assert!(r.makespan >= lb * (1.0 - 1e-9), "{tag}: below the lower bound");
                        assert!(r.makespan <= r.report.lpt_upper_bound, "{tag}: lost to LPT");
                        if let Some(guess) = r.report.chosen_guess {
                            assert!(
                                r.makespan <= guess * (1.0 + 3.0 * eps) + 1e-9,
                                "{tag}: makespan {} outside the envelope of guess {guess}",
                                r.makespan
                            );
                        }
                        fallbacks += r.report.stats.lpt_fallbacks;
                        solves += 1;
                    }
                }
            }
        }
    }
    assert_eq!(solves, 7_920);
    assert!(
        fallbacks <= MAX_LPT_FALLBACKS,
        "{fallbacks} LPT fallbacks over the sweep, at most {MAX_LPT_FALLBACKS} allowed"
    );
}
