//! Helpers shared by the integration tests that replay the driver's
//! per-guess pipeline by hand.

use bagsched::eptas::classify::classify;
use bagsched::eptas::priority::select_priority;
use bagsched::eptas::rounding::scale_and_round;
use bagsched::eptas::transform::{transform, Transformed};
use bagsched::eptas::EptasConfig;
use bagsched::types::lowerbound::lower_bounds;
use bagsched::types::lpt::conflict_aware_lpt;
use bagsched::types::Instance;

/// The guesses the driver's binary search chooses from: the certified
/// lower bound times powers of `1 + eps/2` below the conflict-aware-LPT
/// bound, then the bound itself. Empty where the driver answers without a
/// search (a machine per job, or LPT already at the lower bound).
pub fn guess_grid(inst: &Instance, eps: f64) -> Vec<f64> {
    let lb = lower_bounds(inst).combined();
    if inst.num_machines() >= inst.num_jobs() {
        return Vec::new();
    }
    let ub = conflict_aware_lpt(inst).makespan(inst);
    if ub <= lb * (1.0 + 1e-9) {
        return Vec::new();
    }
    let mut grid = Vec::new();
    let mut t = lb;
    while t < ub * (1.0 - 1e-12) {
        grid.push(t);
        t *= 1.0 + eps * 0.5;
    }
    grid.push(ub);
    grid
}

/// The transformed instance of guess `guess`, as the driver builds it;
/// `None` when a job exceeds the guess.
pub fn transformed_at(inst: &Instance, guess: f64, cfg: &EptasConfig) -> Option<Transformed> {
    let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
    let rounded = scale_and_round(&sizes, guess, cfg.epsilon)?;
    let class = classify(&rounded, inst.num_machines());
    let priority = select_priority(inst, &rounded, &class, cfg);
    Some(transform(inst, &rounded, &class, &priority))
}
