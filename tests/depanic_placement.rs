//! The de-class → placement path must never panic on a drifted pattern
//! multiplicity vector (PR-6). A correct MILP solution satisfies the
//! covering constraints exactly, but a tolerance artifact or a declassing
//! miss can hand `assign_large` a vector whose slot demand mismatches the
//! job pools. That is a per-guess failure the driver recovers from
//! ([`GuessFailure::LargePlacement`]) — a panic here aborts the whole
//! solve instead of falling back, which is the bug this test pins.

use bagsched::eptas::assign_large::{assign_large, WorkState};
use bagsched::eptas::classify::classify;
use bagsched::eptas::milp_model::solve_with_patterns;
use bagsched::eptas::pattern::enumerate_patterns;
use bagsched::eptas::priority::select_priority;
use bagsched::eptas::report::{GuessFailure, Stats};
use bagsched::eptas::rounding::scale_and_round;
use bagsched::eptas::transform::transform;
use bagsched::eptas::{EptasConfig, Solver};
use bagsched::types::{gen, Instance};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Run the real pipeline up to a valid multiplicity vector, then fuzz it.
fn pipeline(jobs: &[(f64, u32)], m: usize) -> impl Fn(&[u32]) -> Result<(), GuessFailure> {
    let cfg = EptasConfig::with_epsilon(0.5);
    let inst = Instance::new(jobs, m);
    let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
    let r = scale_and_round(&sizes, 1.0, cfg.epsilon).unwrap();
    let c = classify(&r, m);
    let p = select_priority(&inst, &r, &c, &cfg);
    let t = transform(&inst, &r, &c, &p);
    let ps = enumerate_patterns(&t, 20_000).unwrap();
    let out = solve_with_patterns(&t, &ps, &cfg, &mut Stats::default()).expect("guess feasible");
    assert!(
        assign_large(&t, &ps, &out.x, &mut WorkState::new(t.tinst.num_jobs(), m)).is_ok(),
        "the untouched MILP solution must place cleanly"
    );
    move |x: &[u32]| {
        let mut state = WorkState::new(t.tinst.num_jobs(), m);
        assign_large(&t, &ps, x, &mut state).map(|_| ())
    }
}

#[test]
fn corrupted_multiplicities_fail_the_guess_instead_of_panicking() {
    let jobs = [(0.9, 0), (0.9, 1), (0.4, 2), (0.9, 3), (0.4, 4), (0.05, 0)];
    let place = pipeline(&jobs, 3);
    let valid = {
        // Recompute the valid x once more for mutation seeds.
        let cfg = EptasConfig::with_epsilon(0.5);
        let inst = Instance::new(&jobs, 3);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, cfg.epsilon).unwrap();
        let c = classify(&r, 3);
        let p = select_priority(&inst, &r, &c, &cfg);
        let t = transform(&inst, &r, &c, &p);
        let ps = enumerate_patterns(&t, 20_000).unwrap();
        solve_with_patterns(&t, &ps, &cfg, &mut Stats::default()).expect("guess feasible").x
    };

    let mut rng = StdRng::seed_from_u64(7);
    let mut errs = 0usize;
    for _ in 0..500 {
        let mut x = valid.clone();
        match rng.random_range(0..6u32) {
            // Inflate one multiplicity: slot demand exceeds the pools.
            0 => {
                let i = rng.random_range(0..x.len());
                x[i] += rng.random_range(1..4u32);
            }
            // Deflate: pools under-covered, leftover jobs.
            1 => {
                let i = rng.random_range(0..x.len());
                x[i] = x[i].saturating_sub(rng.random_range(1..3u32));
            }
            // Swap two pattern counts: wrong slots demanded.
            2 => {
                let i = rng.random_range(0..x.len());
                let j = rng.random_range(0..x.len());
                x.swap(i, j);
            }
            // Absurd count: more machines demanded than exist.
            3 => {
                let i = rng.random_range(0..x.len());
                x[i] = rng.random_range(4..64u32);
            }
            // Longer than the pattern set itself.
            4 => x.extend([1, 1]),
            // Truncated vector.
            _ => {
                let keep = rng.random_range(0..x.len());
                x.truncate(keep);
            }
        }
        if x == valid {
            continue;
        }
        // Must return — Ok for a coincidentally-consistent vector, Err
        // for a mismatch — and never panic.
        if let Err(f) = place(&x) {
            assert_eq!(f, GuessFailure::LargePlacement);
            errs += 1;
        }
    }
    assert!(errs > 50, "fuzzing produced only {errs} rejections; corruption too tame");
}

/// End-to-end: a run whose guesses all fail placement must degrade to the
/// LPT fallback (counted in `lpt_fallbacks`), not abort. Forced here with
/// a pricing symbol budget of 0, so every guess dies before placement —
/// the same driver path a placement `Err` takes.
#[test]
fn driver_survives_total_guess_failure_via_fallback() {
    let inst = gen::Family::ALL[0].generate(24, 4, 9);
    let mut cfg = EptasConfig::with_epsilon(0.5);
    cfg.pricing_symbol_budget = 0;
    let r = Solver::new(cfg).solve_instance(&inst).unwrap();
    assert!(r.report.fell_back_to_lpt, "guesses cannot succeed on a starved pricer");
    assert_eq!(r.report.stats.lpt_fallbacks, 1);
    assert_eq!(r.makespan.to_bits(), r.report.lpt_upper_bound.to_bits());
    assert!(r.schedule.is_feasible(&inst));
}
