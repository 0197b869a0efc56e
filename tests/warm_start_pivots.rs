//! Regression pins for "one cold LP per guess": the pricing master's
//! first phase-A solve is the only LP of a guess that starts cold. Every
//! later master re-solve continues from the previous basis, phase B from
//! phase A's, and the restricted MILP's root from the master's final
//! basis, so a solve records exactly one `milp.simplex` span (the cold
//! simplex) per guess tried.

use bagsched::eptas::{obs, EptasConfig, EptasResult, Solver};
use bagsched::types::gen::{self, Family};
use bagsched::types::{validate_schedule, Instance};

/// Solve `inst` at `eps` under a span recorder; returns the result and
/// the number of cold simplex solves it ran.
fn solve_counting_cold_lps(inst: &Instance, eps: f64) -> (EptasResult, u64) {
    let rec = obs::Recorder::new();
    let r = {
        let _obs = rec.install("test");
        Solver::new(EptasConfig::with_epsilon(eps)).solve_instance(inst).unwrap()
    };
    validate_schedule(inst, &r.schedule).unwrap();
    let cold = rec.profile().get("milp.simplex").map_or(0, |p| p.count);
    (r, cold)
}

/// The pinned witness: tight clustered, the same family the pricing
/// subsystem was built for. Pricing runs, and each guess pays for one
/// cold LP whatever its number of master re-solves.
#[test]
fn warm_start_strictly_reduces_total_pivots_on_priced_instances() {
    let inst = gen::clustered(60, 20, 20, 5, 2);
    let (r, cold) = solve_counting_cold_lps(&inst, 0.5);
    let s = &r.report.stats;
    assert!(!r.report.fell_back_to_lpt, "witness instance must take the priced path");
    assert!(s.pricing_rounds > 0, "the pricing loop must engage");
    assert!(s.lp_solves > r.report.guesses_tried as u64, "the master must re-solve");
    assert_eq!(cold, r.report.guesses_tried as u64, "one cold LP per guess");
}

/// Two small cells whose master ends with a basic, degenerate overflow
/// variable. The restricted MILP has no overflow variables, so the root
/// basis must name that row's slack in its place: a basis one column
/// short does not fit the model, and the root would solve cold.
#[test]
fn a_basic_overflow_variable_keeps_the_root_seeded() {
    for (family, n, m, seed, eps) in
        [(Family::Uniform, 12, 3, 6, 0.5), (Family::Bimodal, 12, 3, 4, 0.3)]
    {
        let tag = format!("{} {n}/{m} seed {seed} eps {eps}", family.name());
        let inst = family.generate(n, m, seed);
        let (r, cold) = solve_counting_cold_lps(&inst, eps);
        let s = &r.report.stats;
        assert!(!r.report.fell_back_to_lpt, "{tag}: fell back to LPT");
        assert!(s.milp_nodes > 0, "{tag}: no restricted MILP ran");
        assert_eq!(s.node_warm_starts, s.milp_nodes, "{tag}: the root solved cold");
        assert_eq!(cold, 1, "{tag}: {cold} cold LPs");
    }
}
