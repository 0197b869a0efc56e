//! A Das–Wiese-style configuration-DP PTAS baseline.
//!
//! Das & Wiese (ESA 2017) gave the first PTAS for bag-constrained makespan
//! minimization: place large jobs "like in an optimal solution" with a
//! dynamic program over machine configurations, then finish small jobs
//! greedily. Its running time is `n^{g(1/eps)}` — a *PTAS*, not an EPTAS —
//! which is precisely what the paper reproduced here improves.
//!
//! This module implements that recipe faithfully in shape:
//! dual-approximation binary search on the threshold `T`; large jobs
//! (`>= eps*T`) rounded to multiples of `eps^2*T`; an exact DP over
//! remaining-count vectors whose state space is `O(n^{#sizes})` (the
//! PTAS-ish exponent); then bag-respecting slot filling with swap repair
//! and greedy small-job placement. Deviations from the original (the DP
//! tracks job counts, not per-bag counts; bag feasibility of large jobs is
//! restored by swapping afterwards) are heuristic simplifications that
//! keep this a *baseline*.
//!
//! The DP state budget is explicit; exceeding it fails loudly.

use bagsched_types::{
    lowerbound::lower_bounds, validate_instance, Instance, JobId, MachineId, Schedule,
};
use std::collections::HashMap;

/// Tuning knobs for [`dw_ptas`].
#[derive(Debug, Clone)]
pub struct DwPtasConfig {
    /// Approximation parameter.
    pub epsilon: f64,
    /// Maximum DP states per threshold trial.
    pub max_states: usize,
}

impl DwPtasConfig {
    /// Default budgets at the given epsilon.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        DwPtasConfig { epsilon, max_states: 4_000_000 }
    }
}

/// Why a PTAS run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DwPtasError {
    /// The instance admits no feasible schedule.
    Infeasible,
    /// The DP state budget was exhausted at every threshold.
    StateBudget,
}

impl std::fmt::Display for DwPtasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DwPtasError::Infeasible => write!(f, "instance is infeasible"),
            DwPtasError::StateBudget => write!(f, "configuration-DP state budget exhausted"),
        }
    }
}

impl std::error::Error for DwPtasError {}

/// Run the PTAS baseline. Returns a feasible schedule with makespan close
/// to `(1 + O(eps)) * OPT` on instances where the DP fits in budget.
pub fn dw_ptas(inst: &Instance, cfg: &DwPtasConfig) -> Result<Schedule, DwPtasError> {
    validate_instance(inst).map_err(|_| DwPtasError::Infeasible)?;
    if inst.num_jobs() == 0 {
        return Ok(Schedule::unassigned(0, inst.num_machines().max(1)));
    }
    let lb = lower_bounds(inst).combined();
    let ub_sched = crate::bag_aware_lpt(inst).map_err(|_| DwPtasError::Infeasible)?;
    let ub = ub_sched.makespan(inst);
    if ub <= lb + 1e-12 {
        return Ok(ub_sched);
    }

    // Geometric threshold grid [lb, ub].
    let eps = cfg.epsilon;
    let mut grid = Vec::new();
    let mut t = lb.max(1e-12);
    while t < ub * (1.0 + 1e-12) {
        grid.push(t);
        t *= 1.0 + eps / 4.0;
    }
    grid.push(ub);

    // Binary search the smallest threshold that succeeds; keep LPT as the
    // fallback incumbent.
    let mut best: Option<Schedule> = None;
    let (mut lo, mut hi) = (0usize, grid.len() - 1);
    let mut saw_budget = false;
    while lo <= hi {
        let mid = (lo + hi) / 2;
        match try_threshold(inst, grid[mid], cfg) {
            Ok(s) => {
                best = Some(s);
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
            Err(budget) => {
                saw_budget |= budget;
                lo = mid + 1;
            }
        }
    }
    match best {
        Some(s) => {
            // The binary search may have found a schedule worse than plain
            // LPT (the grid is coarse); keep whichever is better.
            if s.makespan(inst) <= ub {
                Ok(s)
            } else {
                Ok(ub_sched)
            }
        }
        None if saw_budget => Err(DwPtasError::StateBudget),
        // Every threshold failed (possible: the slot-filling heuristic is
        // not complete) — fall back to the LPT schedule rather than fail.
        None => Ok(ub_sched),
    }
}

/// Attempt to build a schedule of makespan roughly `(1 + O(eps)) * t`.
/// `Err(true)` means the state budget was exhausted, `Err(false)` a
/// genuine failure at this threshold.
fn try_threshold(inst: &Instance, t: f64, cfg: &DwPtasConfig) -> Result<Schedule, bool> {
    let eps = cfg.epsilon;
    let m = inst.num_machines();
    let quantum = eps * eps * t;

    if inst.max_size() > t * (1.0 + 1e-9) {
        return Err(false);
    }

    // Partition into large (>= eps*t) and small, rounding large sizes up to
    // quanta of eps^2*t.
    let mut large: Vec<(JobId, u32)> = Vec::new(); // (job, quanta)
    let mut small: Vec<JobId> = Vec::new();
    for job in inst.jobs() {
        if job.size >= eps * t {
            large.push((job.id, (job.size / quantum).ceil() as u32));
        } else {
            small.push(job.id);
        }
    }

    // Distinct rounded sizes and their counts.
    let mut sizes: Vec<u32> = large.iter().map(|&(_, q)| q).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let counts: Vec<u16> =
        sizes.iter().map(|&q| large.iter().filter(|&&(_, jq)| jq == q).count() as u16).collect();

    // Machine capacity in quanta: (1 + eps) * t worth of rounded load.
    let cap: u32 = ((1.0 + eps) / (eps * eps)).floor() as u32;

    // Enumerate configurations (multisets of size indices fitting in cap),
    // excluding the empty configuration.
    let mut configs: Vec<Vec<u16>> = Vec::new();
    let mut current = vec![0u16; sizes.len()];
    enumerate_configs(&sizes, &counts, 0, cap, &mut current, &mut configs);
    if configs.is_empty() && !large.is_empty() {
        return Err(false);
    }

    // BFS over remaining-count vectors: fewest machines to consume all
    // large jobs.
    let start: Vec<u16> = counts.clone();
    let goal = vec![0u16; sizes.len()];
    let mut parent: HashMap<Vec<u16>, (Vec<u16>, usize)> = HashMap::new();
    let mut dist: HashMap<Vec<u16>, u32> = HashMap::new();
    dist.insert(start.clone(), 0);
    let mut queue = std::collections::VecDeque::from([start.clone()]);
    let mut reached = large.is_empty();
    while let Some(state) = queue.pop_front() {
        let d = dist[&state];
        if state == goal {
            reached = true;
            break;
        }
        if d as usize >= m {
            continue;
        }
        if dist.len() > cfg.max_states {
            return Err(true);
        }
        for (ci, config) in configs.iter().enumerate() {
            if config.iter().zip(&state).all(|(c, s)| c <= s) {
                let next: Vec<u16> = state.iter().zip(config).map(|(s, c)| s - c).collect();
                if !dist.contains_key(&next) {
                    dist.insert(next.clone(), d + 1);
                    parent.insert(next.clone(), (state.clone(), ci));
                    queue.push_back(next);
                }
            }
        }
    }
    if !reached {
        return Err(false);
    }

    // Reconstruct the per-machine configurations.
    let mut machine_configs: Vec<&Vec<u16>> = Vec::new();
    let mut state = goal;
    while let Some((prev, ci)) = parent.get(&state) {
        machine_configs.push(&configs[*ci]);
        state = prev.clone();
    }
    if machine_configs.len() > m {
        return Err(false);
    }

    // Fill slots with actual jobs, avoiding bag conflicts greedily.
    let mut per_size_jobs: HashMap<u32, Vec<JobId>> = HashMap::new();
    for &(job, q) in &large {
        per_size_jobs.entry(q).or_default().push(job);
    }

    let mut sched = Schedule::unassigned(inst.num_jobs(), m);
    let mut has_bag = vec![vec![false; inst.num_bags()]; m];
    let mut loads = vec![0.0f64; m];
    let mut conflicted: Vec<(JobId, usize)> = Vec::new();
    for (machine, config) in machine_configs.iter().enumerate() {
        for (si, &mult) in config.iter().enumerate() {
            let pool = per_size_jobs.get_mut(&sizes[si]).expect("counted above");
            for _ in 0..mult {
                // Prefer a conflict-free job of this rounded size.
                let pick =
                    pool.iter().position(|&j| !has_bag[machine][inst.bag_of(j).idx()]).unwrap_or(0);
                let job = pool.swap_remove(pick);
                let bag = inst.bag_of(job).idx();
                if has_bag[machine][bag] {
                    conflicted.push((job, machine));
                } else {
                    has_bag[machine][bag] = true;
                }
                sched.assign(job, MachineId(machine as u32));
                loads[machine] += inst.size(job);
            }
        }
    }

    // Swap repair: move each conflicted large job to a machine holding a
    // same-rounded-size job whose bag is free here and vice versa.
    for (job, machine) in conflicted {
        let q = (inst.size(job) / quantum).ceil() as u32;
        let bag = inst.bag_of(job).idx();
        let mut fixed = false;
        'outer: for other in 0..m {
            if other == machine || has_bag[other][bag] {
                continue;
            }
            // A same-size partner on `other` whose bag is free on `machine`.
            for (jj, &mid) in sched.assignment().iter().enumerate() {
                let pj = JobId(jj as u32);
                if mid.idx() != other || pj == job {
                    continue;
                }
                let pq = (inst.size(pj) / quantum).ceil() as u32;
                if pq != q || inst.size(pj) < eps * t {
                    continue;
                }
                let pbag = inst.bag_of(pj).idx();
                if pbag != bag && !has_bag[machine][pbag] {
                    // Swap.
                    loads[machine] += inst.size(pj) - inst.size(job);
                    loads[other] += inst.size(job) - inst.size(pj);
                    sched.assign(job, MachineId(other as u32));
                    sched.assign(pj, MachineId(machine as u32));
                    has_bag[other][bag] = true;
                    has_bag[machine][pbag] = true;
                    fixed = true;
                    break 'outer;
                }
            }
        }
        if !fixed {
            return Err(false);
        }
    }

    // Small jobs: LPT onto the least-loaded conflict-free machine.
    small.sort_by(|&a, &b| inst.size(b).total_cmp(&inst.size(a)).then(a.cmp(&b)));
    for job in small {
        let bag = inst.bag_of(job).idx();
        let Some(best) =
            (0..m).filter(|&i| !has_bag[i][bag]).min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
        else {
            return Err(false);
        };
        sched.assign(job, MachineId(best as u32));
        loads[best] += inst.size(job);
        has_bag[best][bag] = true;
    }

    if sched.is_feasible(inst) {
        Ok(sched)
    } else {
        Err(false)
    }
}

/// Recursively enumerate non-empty configurations.
fn enumerate_configs(
    sizes: &[u32],
    counts: &[u16],
    idx: usize,
    cap_left: u32,
    current: &mut Vec<u16>,
    out: &mut Vec<Vec<u16>>,
) {
    if idx == sizes.len() {
        if current.iter().any(|&c| c > 0) {
            out.push(current.clone());
        }
        return;
    }
    let max_mult = (cap_left / sizes[idx]).min(counts[idx] as u32) as u16;
    for mult in 0..=max_mult {
        current[idx] = mult;
        enumerate_configs(
            sizes,
            counts,
            idx + 1,
            cap_left - mult as u32 * sizes[idx],
            current,
            out,
        );
    }
    current[idx] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagsched_types::{gen, validate_schedule};

    #[test]
    fn feasible_on_families() {
        for family in gen::Family::ALL {
            let inst = family.generate(24, 3, 2);
            let s = dw_ptas(&inst, &DwPtasConfig::with_epsilon(0.5))
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            validate_schedule(&inst, &s).unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        }
    }

    #[test]
    fn close_to_optimum_on_small_instances() {
        for seed in 0..4 {
            let inst = gen::uniform(12, 3, 6, seed);
            let opt = crate::exact_makespan(&inst, 5_000_000).unwrap();
            assert!(opt.proven_optimal);
            let s = dw_ptas(&inst, &DwPtasConfig::with_epsilon(0.3)).unwrap();
            let ratio = s.makespan(&inst) / opt.makespan;
            assert!(ratio <= 1.0 + 3.0 * 0.3 + 1e-9, "ratio {ratio} too large (seed {seed})");
        }
    }

    #[test]
    fn solves_fig1_gadget_near_optimally() {
        let inst = gen::fig1_gadget(3);
        let s = dw_ptas(&inst, &DwPtasConfig::with_epsilon(0.4)).unwrap();
        assert!(s.is_feasible(&inst));
        // OPT = 1.0; the PTAS should land within ~(1 + O(eps)).
        assert!(s.makespan(&inst) <= 1.75, "got {}", s.makespan(&inst));
    }

    #[test]
    fn empty_instance() {
        let inst = bagsched_types::InstanceBuilder::new(2).build();
        let s = dw_ptas(&inst, &DwPtasConfig::with_epsilon(0.5)).unwrap();
        assert_eq!(s.num_jobs(), 0);
    }

    #[test]
    fn infeasible_instance_rejected() {
        let inst = Instance::new(&[(1.0, 0), (1.0, 0)], 1);
        assert_eq!(dw_ptas(&inst, &DwPtasConfig::with_epsilon(0.5)), Err(DwPtasError::Infeasible));
    }

    #[test]
    fn config_enumeration_counts() {
        // sizes {2, 3} quanta, cap 6, counts ample: configs are all (a, b)
        // with 2a + 3b <= 6, excluding (0,0): (0,1), (0,2), (1,0), (1,1),
        // (2,0), (3,0) => 6 configs.
        let mut out = Vec::new();
        let mut cur = vec![0u16; 2];
        enumerate_configs(&[2, 3], &[10, 10], 0, 6, &mut cur, &mut out);
        assert_eq!(out.len(), 6);
    }
}
