//! Per-layer attribution: the solver's own phase profile and work
//! counters, plus a stage-by-stage replay of a solve's chosen guess
//! through each layer's public entry point, timed from here.

use bagsched::eptas::assign_large::{assign_large, WorkState};
use bagsched::eptas::classify::classify;
use bagsched::eptas::medium_flow::reinsert_medium;
use bagsched::eptas::obs::PhaseProfile;
use bagsched::eptas::priority::select_priority;
use bagsched::eptas::rounding::scale_and_round;
use bagsched::eptas::small::{
    place_nonpriority_smalls, place_priority_smalls, repair_priority_conflicts,
};
use bagsched::eptas::swap_repair::repair_conflicts;
use bagsched::eptas::transform::transform;
use bagsched::eptas::undo::undo_transform;
use bagsched::eptas::{EptasConfig, EptasResult, PatternSolve, Stats};
use bagsched::types::Instance;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::sample::{check_schedule, geomean};

/// Everything the per-layer metrics are computed from, summed over the
/// solves a workload attributes (its cold solves in process, every
/// request of the mirrored stream for the daemon workload).
#[derive(Default)]
pub struct Attribution {
    pub profile: PhaseProfile,
    pub stats: Stats,
    /// Summed `report.elapsed` of the attributed solves, seconds.
    pub solve_wall_s: f64,
    pub solves: u64,
    pub guesses: u64,
    pub failed_guesses: u64,
    /// Solves that returned the LPT bound although the pipeline ran.
    pub lpt_won: u64,
    pub stages: Vec<StageRun>,
}

impl Attribution {
    /// Count one solve's work. Its phase profile is merged by the caller.
    pub fn add(&mut self, res: &EptasResult) {
        let r = &res.report;
        self.stats.add(&r.stats);
        self.solve_wall_s += r.elapsed.as_secs_f64();
        self.solves += 1;
        self.guesses += r.guesses_tried as u64;
        self.failed_guesses += r.failures.len() as u64;
        if !r.fell_back_to_lpt && res.makespan == r.lpt_upper_bound {
            self.lpt_won += 1;
        }
    }

    /// Summed wall time of `phase`'s spans, seconds.
    fn total_s(&self, phase: &str) -> f64 {
        self.profile.get(phase).map_or(0.0, |p| p.total_ns as f64 / 1e9)
    }

    /// Summed self time of `phase`'s spans, seconds.
    fn self_s(&self, phase: &str) -> f64 {
        self.profile.get(phase).map_or(0.0, |p| p.self_ns as f64 / 1e9)
    }

    fn count(&self, phase: &str) -> f64 {
        self.profile.get(phase).map_or(0.0, |p| p.count as f64)
    }

    /// Self time of every `milp.*` span, seconds.
    pub fn milp_self_s(&self) -> f64 {
        self.profile
            .phases
            .iter()
            .filter(|p| p.name.starts_with("milp."))
            .map(|p| p.self_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// The `core::driver`, transform, pattern, pricing, MILP, declass and
    /// placement metrics.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let s = &self.stats;
        let solves = self.solves.max(1) as f64;
        out.insert("driver.outside_guess_s", (self.solve_wall_s - self.total_s("guess")).max(0.0));
        out.insert("driver.guesses", self.guesses as f64);
        out.insert("driver.failed_guesses", self.failed_guesses as f64);
        out.insert("driver.lpt_won_share", self.lpt_won as f64 / solves);
        if !self.stages.is_empty() {
            let ratios: Vec<f64> = self.stages.iter().map(|st| st.ratio).collect();
            out.insert("driver.pipeline_ratio", geomean(&ratios));
            let sum = |f: fn(&StageRun) -> f64| self.stages.iter().map(f).sum::<f64>();
            out.insert("stage.transform.s", sum(|st| st.transform_s));
            out.insert("stage.patterns.s", sum(|st| st.patterns_s));
            out.insert("stage.place.s", sum(|st| st.place_s));
        }
        out.insert("transform.s", self.total_s("transform"));
        out.insert("patterns.s", self.total_s("patterns"));
        out.insert("pricing.master_lp.self_s", self.self_s("pricing.master_lp"));
        out.insert("pricing.dfs.self_s", self.self_s("pricing.dfs"));
        out.insert("pricing.tree.self_s", self.self_s("pricing.tree"));
        out.insert("pricing.rounds", s.pricing_rounds as f64);
        out.insert("pricing.columns_generated", s.columns_generated as f64);
        out.insert("pricing.dfs_nodes", s.pricing_dfs_nodes as f64);
        out.insert("pricing.columns_purged", s.columns_purged as f64);
        out.insert("classes.bag_classes", s.bag_classes as f64);
        out.insert("classes.symbols", s.symbols_after_aggregation as f64);
        out.insert("milp.simplex.count", self.count("milp.simplex"));
        out.insert("milp.simplex.self_s", self.self_s("milp.simplex"));
        out.insert("milp.simplex.warm.self_s", self.self_s("milp.simplex.warm"));
        out.insert("milp.dual.count", self.count("milp.dual"));
        out.insert("milp.dual.self_s", self.self_s("milp.dual"));
        out.insert("milp.bnb.self_s", self.self_s("milp.bnb"));
        out.insert("milp.nodes", s.milp_nodes as f64);
        out.insert(
            "milp.warm_node_share",
            if s.milp_nodes > 0 { s.node_warm_starts as f64 / s.milp_nodes as f64 } else { 0.0 },
        );
        out.insert("milp.simplex_pivots", s.simplex_pivots as f64);
        out.insert("milp.dual_pivots", s.dual_pivots as f64);
        out.insert("milp.refactorizations", s.basis_refactorizations as f64);
        out.insert("declass.self_s", self.self_s("declass") + self.self_s("declass.repair"));
        out.insert("declass.repair_jobs_moved", s.repair_jobs_moved as f64);
        out.insert("place.large.s", self.total_s("place.large"));
        out.insert("place.small.s", self.total_s("place.small"));
        out.insert("place.medium_flow.s", self.total_s("place.medium_flow"));
        out.insert("place.undo.s", self.total_s("place.undo"));
        out.insert("place.swap_repair_rounds", s.swap_repair_rounds as f64);
        out.insert("place.flow_augmentations", s.flow_augmentations as f64);
    }
}

/// One solve's chosen guess, replayed stage by stage.
#[derive(Debug, Clone, Copy)]
pub struct StageRun {
    pub transform_s: f64,
    pub patterns_s: f64,
    pub place_s: f64,
    /// The pipeline's own makespan at that guess over the lower bound —
    /// before `core::driver` compares it with the LPT bound.
    pub ratio: f64,
}

/// Run the pipeline for one makespan guess through the public per-layer
/// functions, timing each stage, and validate the schedule it builds.
pub fn stage_replay(
    cfg: &EptasConfig,
    inst: &Instance,
    guess: f64,
    lower_bound: f64,
) -> Result<StageRun, String> {
    let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
    let t = Instant::now();
    let rounded = scale_and_round(&sizes, guess, cfg.epsilon).ok_or("a job exceeds the guess")?;
    let class = classify(&rounded, inst.num_machines());
    let priority = select_priority(inst, &rounded, &class, cfg);
    let trans = transform(inst, &rounded, &class, &priority);
    let transform_s = t.elapsed().as_secs_f64();

    let mut stats = Stats::default();
    let t = Instant::now();
    let sol = PatternSolve::new(&trans, cfg).run(&mut stats).map_err(|e| e.to_string())?;
    let patterns_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (ps, out) = (sol.patterns, sol.outcome);
    let mut state = WorkState::new(trans.tinst.num_jobs(), inst.num_machines());
    let fail = |e: bagsched::eptas::report::GuessFailure| e.to_string();
    let la = assign_large(&trans, &ps, &out.x, &mut state).map_err(fail)?;
    repair_conflicts(&trans, &mut state, &la.conflicts, &mut stats).map_err(fail)?;
    place_priority_smalls(&trans, &ps, &out, &la.machine_pattern, &mut state);
    place_nonpriority_smalls(&trans, cfg.epsilon, &mut state);
    repair_priority_conflicts(&trans, &la.origin, &mut state);
    let mediums = reinsert_medium(inst, &trans, &rounded, &mut state, &mut stats).map_err(fail)?;
    let (schedule, _) = undo_transform(inst, &trans, &state, &mediums).map_err(fail)?;
    let place_s = t.elapsed().as_secs_f64();

    let makespan = schedule.makespan(inst);
    if let Some(failure) = check_schedule(inst, &schedule, makespan) {
        return Err(format!("stage-replayed schedule: {}", failure.describe()));
    }
    Ok(StageRun { transform_s, patterns_s, place_s, ratio: makespan / lower_bound })
}
