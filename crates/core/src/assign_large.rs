//! Placing large and medium jobs into the MILP's pattern slots (paper
//! §3.1).
//!
//! Priority-bag slots name their bag, so they are filled exactly as the
//! MILP dictates (jobs of one size-restricted bag are interchangeable —
//! they have identical rounded size). Wildcard `B_x` slots only name a
//! size; they are filled greedily from the non-priority bag with the most
//! remaining jobs of that size that causes no conflict on the machine.
//! When every candidate bag conflicts, the job is placed anyway and the
//! conflict handed to [`crate::swap_repair`] (Lemma 7). Each size keeps
//! its bags ordered by remaining jobs (`WildPool`), so a slot skips at
//! most the bags its machine already holds instead of scanning them all.

use crate::classify::JobClass;
use crate::pattern::{PatternSet, SlotBag};
use crate::report::GuessFailure;
use crate::rounding::SizeExp;
use crate::transform::Transformed;
use bagsched_types::{BagId, JobId, MachineId};
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

/// Mutable scheduling state over the transformed instance, shared by the
/// placement phases.
#[derive(Debug, Clone)]
pub struct WorkState {
    /// Machine per transformed job (None = not yet placed).
    pub machine_of: Vec<Option<MachineId>>,
    /// Jobs per machine.
    pub machine_jobs: Vec<Vec<JobId>>,
    /// Per machine: how many jobs of each transformed bag it holds.
    pub bag_count: Vec<HashMap<u32, u32>>,
    /// Per machine: total (rounded) load.
    pub loads: Vec<f64>,
}

impl WorkState {
    /// Empty state for `m` machines and `n` transformed jobs.
    pub fn new(n: usize, m: usize) -> Self {
        WorkState {
            machine_of: vec![None; n],
            machine_jobs: vec![Vec::new(); m],
            bag_count: vec![HashMap::new(); m],
            loads: vec![0.0; m],
        }
    }

    /// Place a job on a machine.
    pub fn place(&mut self, trans: &Transformed, j: JobId, mid: MachineId) {
        debug_assert!(self.machine_of[j.idx()].is_none(), "job {j:?} placed twice");
        self.machine_of[j.idx()] = Some(mid);
        self.machine_jobs[mid.idx()].push(j);
        let bag = trans.tinst.bag_of(j).0;
        *self.bag_count[mid.idx()].entry(bag).or_insert(0) += 1;
        self.loads[mid.idx()] += trans.tinst.size(j);
    }

    /// Remove a job from its machine.
    pub fn remove(&mut self, trans: &Transformed, j: JobId) -> MachineId {
        let mid = self.machine_of[j.idx()].take().expect("job not placed");
        let jobs = &mut self.machine_jobs[mid.idx()];
        let pos = jobs.iter().position(|&x| x == j).expect("inconsistent state");
        jobs.swap_remove(pos);
        let bag = trans.tinst.bag_of(j).0;
        let cnt = self.bag_count[mid.idx()].get_mut(&bag).expect("inconsistent bag count");
        *cnt -= 1;
        if *cnt == 0 {
            self.bag_count[mid.idx()].remove(&bag);
        }
        self.loads[mid.idx()] -= trans.tinst.size(j);
        mid
    }

    /// How many jobs of `bag` machine `mid` holds.
    pub fn bag_on(&self, mid: MachineId, bag: BagId) -> u32 {
        self.bag_count[mid.idx()].get(&bag.0).copied().unwrap_or(0)
    }

    /// Whether placing a job of `bag` on `mid` would violate the
    /// bag-constraint.
    pub fn conflicts(&self, mid: MachineId, bag: BagId) -> bool {
        self.bag_on(mid, bag) > 0
    }

    /// Number of bag-constraint violations across all machines.
    pub fn conflict_count(&self) -> usize {
        self.bag_count
            .iter()
            .flat_map(|m| m.values())
            .filter(|&&c| c > 1)
            .map(|&c| (c - 1) as usize)
            .sum()
    }
}

/// The non-priority large/medium jobs of one rounded size, by bag, for
/// the wildcard slots of that size.
#[derive(Debug, Default)]
struct WildPool {
    jobs: HashMap<BagId, Vec<JobId>>,
    /// `(remaining jobs, Reverse(bag))` of every bag with jobs left, so
    /// the last entry is the fullest bag, ties to the lowest id.
    order: BTreeSet<(usize, Reverse<BagId>)>,
}

impl WildPool {
    /// Pool `bag`'s job.
    fn push(&mut self, bag: BagId, job: JobId) {
        let jobs = self.jobs.entry(bag).or_default();
        self.order.remove(&(jobs.len(), Reverse(bag)));
        jobs.push(job);
        self.order.insert((jobs.len(), Reverse(bag)));
    }

    /// Take a job for a wildcard slot on `mid`: from the fullest bag
    /// without a job on `mid`, or, when every bag with jobs left has one
    /// there, from the fullest bag overall (`true`: a conflict). The walk
    /// down the order skips only bags that `mid` holds. `None` when the
    /// pool is empty.
    fn take(&mut self, state: &WorkState, mid: MachineId) -> Option<(JobId, bool)> {
        let free = self.order.iter().rev().find(|(_, Reverse(bag))| !state.conflicts(mid, *bag));
        let (key, conflicted) = match free {
            Some(&key) => (key, false),
            None => (*self.order.last()?, true),
        };
        self.order.remove(&key);
        let (left, Reverse(bag)) = key;
        if left > 1 {
            self.order.insert((left - 1, Reverse(bag)));
        }
        let job = self.jobs.get_mut(&bag)?.pop()?;
        Some((job, conflicted))
    }
}

/// Result of the large/medium placement.
#[derive(Debug)]
pub struct LargeAssignment {
    /// Pattern index per machine (empty-pattern machines included).
    pub machine_pattern: Vec<usize>,
    /// `origin_l(j)`: the machine each priority large/medium job was
    /// assigned by the MILP *before* any swap (Lemma 11 needs this).
    pub origin: HashMap<JobId, MachineId>,
    /// Wildcard placements that ended in conflict (input to Lemma 7).
    pub conflicts: Vec<JobId>,
}

/// Expand the pattern multiplicities into per-machine patterns and place
/// all large/medium jobs into their slots. Returns the updated state and
/// the conflicts wildcard placement could not avoid.
///
/// Constraint (2) of a *correct* MILP solution guarantees the slot
/// demands match the job pools exactly; a solution that drifted (a
/// tolerance artifact, a declassing miss) surfaces here as a mismatch.
/// That is a per-guess failure — [`GuessFailure::LargePlacement`] sends
/// the driver to its next guess — never a panic.
pub fn assign_large(
    trans: &Transformed,
    ps: &PatternSet,
    x: &[u32],
    state: &mut WorkState,
) -> Result<LargeAssignment, GuessFailure> {
    let m = trans.tinst.num_machines();

    // Per-machine pattern list: non-empty patterns first, padded with the
    // empty pattern (index 0).
    let mut machine_pattern = Vec::with_capacity(m);
    for (p, &count) in x.iter().enumerate() {
        if p == 0 {
            continue;
        }
        for _ in 0..count {
            machine_pattern.push(p);
        }
    }
    if machine_pattern.len() > m || x.len() > ps.patterns.len() {
        return Err(GuessFailure::LargePlacement);
    }
    machine_pattern.resize(m, 0);

    // Job pools.
    let mut prio_pool: HashMap<(BagId, SizeExp), Vec<JobId>> = HashMap::new();
    let mut wild_pool: HashMap<SizeExp, WildPool> = HashMap::new();
    for j in 0..trans.tinst.num_jobs() {
        if trans.tclass[j] == JobClass::Small {
            continue;
        }
        let job = JobId(j as u32);
        let tbag = trans.tinst.bag_of(job);
        if trans.is_priority_tbag[tbag.idx()] {
            prio_pool.entry((tbag, trans.texp[j])).or_default().push(job);
        } else {
            wild_pool.entry(trans.texp[j]).or_default().push(tbag, job);
        }
    }

    let mut origin = HashMap::new();
    let mut conflicts = Vec::new();

    // Pass 1: priority slots (exact).
    for (machine, &p) in machine_pattern.iter().enumerate() {
        let mid = MachineId(machine as u32);
        for &(si, mult) in &ps.patterns[p].entries {
            let sym = &ps.symbols[si];
            if let SlotBag::Priority(bag) = sym.bag {
                for _ in 0..mult {
                    let Some(job) = prio_pool.get_mut(&(bag, sym.exp)).and_then(Vec::pop) else {
                        return Err(GuessFailure::LargePlacement);
                    };
                    state.place(trans, job, mid);
                    origin.insert(job, mid);
                }
            }
        }
    }

    // Pass 2: wildcard slots (greedy, conflicts recorded).
    for (machine, &p) in machine_pattern.iter().enumerate() {
        let mid = MachineId(machine as u32);
        for &(si, mult) in &ps.patterns[p].entries {
            let sym = &ps.symbols[si];
            if sym.bag != SlotBag::X {
                continue;
            }
            for _ in 0..mult {
                // Non-conflicting bag with the most remaining jobs; if all
                // conflict, the fullest bag overall (conflict recorded).
                let Some((job, conflicted)) =
                    wild_pool.get_mut(&sym.exp).and_then(|pool| pool.take(state, mid))
                else {
                    return Err(GuessFailure::LargePlacement);
                };
                state.place(trans, job, mid);
                if conflicted {
                    conflicts.push(job);
                }
            }
        }
    }

    // Leftover jobs mean the slots under-covered the pools: the later
    // phases would ship a schedule with unplaced large jobs. Same
    // per-guess failure as a pool running dry above.
    if prio_pool.values().any(|p| !p.is_empty()) || wild_pool.values().any(|w| !w.order.is_empty())
    {
        return Err(GuessFailure::LargePlacement);
    }

    Ok(LargeAssignment { machine_pattern, origin, conflicts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::config::EptasConfig;
    use crate::milp_model::solve_with_patterns;
    use crate::pattern::enumerate_patterns;
    use crate::priority::select_priority;
    use crate::rounding::scale_and_round;
    use crate::transform::transform;
    use bagsched_types::Instance;

    pub(crate) fn run_pipeline(
        jobs: &[(f64, u32)],
        m: usize,
        cfg: &EptasConfig,
    ) -> (Transformed, PatternSet, crate::milp_model::MilpOutcome, WorkState, LargeAssignment) {
        let inst = Instance::new(jobs, m);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, cfg.epsilon).unwrap();
        let c = classify(&r, m);
        let p = select_priority(&inst, &r, &c, cfg);
        let t = transform(&inst, &r, &c, &p);
        let ps = enumerate_patterns(&t, 20_000).unwrap();
        let out = solve_with_patterns(&t, &ps, cfg, &mut crate::report::Stats::default())
            .expect("guess feasible");
        let mut state = WorkState::new(t.tinst.num_jobs(), m);
        let la = assign_large(&t, &ps, &out.x, &mut state).expect("placement feasible");
        (t, ps, out, state, la)
    }

    #[test]
    fn all_ml_jobs_placed_respecting_loads() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let jobs = [(0.9, 0), (0.9, 1), (0.4, 2), (0.05, 0)];
        let (t, _, _, state, la) = run_pipeline(&jobs, 3, &cfg);
        for j in 0..t.tinst.num_jobs() {
            let placed = state.machine_of[j].is_some();
            let is_ml = t.tclass[j] != JobClass::Small;
            assert_eq!(placed, is_ml, "job {j} placement mismatch");
        }
        let _ = la;
        assert_eq!(state.conflict_count(), 0, "priority placement cannot conflict");
    }

    #[test]
    fn machine_loads_equal_pattern_heights() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let jobs = [(0.9, 0), (0.9, 1), (0.4, 2), (0.9, 3), (0.4, 4)];
        let (_, ps, _, state, la) = run_pipeline(&jobs, 3, &cfg);
        for (machine, &p) in la.machine_pattern.iter().enumerate() {
            assert!(
                (state.loads[machine] - ps.patterns[p].height).abs() < 1e-9,
                "machine {machine} load {} != pattern height {}",
                state.loads[machine],
                ps.patterns[p].height
            );
        }
    }

    #[test]
    fn priority_origin_recorded() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let jobs = [(0.9, 0), (0.9, 1)];
        let (t, _, _, state, la) = run_pipeline(&jobs, 2, &cfg);
        // Both bags are priority; every ml job has an origin equal to its
        // current machine (no swaps happened).
        for j in 0..t.tinst.num_jobs() {
            let job = JobId(j as u32);
            let mid = state.machine_of[j].unwrap();
            assert_eq!(la.origin[&job], mid);
        }
    }

    #[test]
    fn wildcard_greedy_avoids_conflicts_when_possible() {
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.priority_cap = Some(1);
        // Bag 0 hogs priority; bags 1 and 2 are non-priority with one
        // large job each (plus smalls to force the split). Two wildcard
        // jobs of the same size can share a machine (T = 2.25), and the
        // greedy must not pair two jobs of the same bag... they are from
        // different bags here, so zero conflicts must remain.
        let jobs = [(0.9, 0), (0.9, 0), (0.9, 0), (0.9, 1), (0.01, 1), (0.9, 2), (0.01, 2)];
        let (_, _, _, state, la) = run_pipeline(&jobs, 6, &cfg);
        assert_eq!(la.conflicts.len(), 0);
        assert_eq!(state.conflict_count(), 0);
    }

    /// The wildcard pick as a scan over every bag of the slot's size,
    /// emptied ones included: the reference [`WildPool::take`] must agree
    /// with pick for pick.
    fn scan_take(
        pools: &mut HashMap<BagId, Vec<JobId>>,
        state: &WorkState,
        mid: MachineId,
    ) -> Option<(JobId, bool)> {
        let pick_free = pools
            .iter()
            .filter(|(bag, jobs)| !jobs.is_empty() && !state.conflicts(mid, **bag))
            .max_by_key(|(bag, jobs)| (jobs.len(), std::cmp::Reverse(bag.0)))
            .map(|(bag, _)| *bag);
        let (bag, conflicted) = match pick_free {
            Some(bag) => (bag, false),
            None => {
                let fullest = pools
                    .iter()
                    .filter(|(_, jobs)| !jobs.is_empty())
                    .max_by_key(|(bag, jobs)| (jobs.len(), std::cmp::Reverse(bag.0)))
                    .map(|(bag, _)| *bag)?;
                (fullest, true)
            }
        };
        pools.get_mut(&bag).and_then(Vec::pop).map(|job| (job, conflicted))
    }

    /// Across the generator families, at the guess a solve chose, with
    /// the paper's priority bags and with one per size: the ordered pools
    /// take the job the scan takes at every wildcard slot of the solved
    /// patterns, conflicted picks included.
    #[test]
    fn wild_pools_pick_what_the_bag_scan_picks() {
        use crate::milp_model::PatternSolve;
        use crate::solver::Solver;
        use bagsched_types::gen::Family;
        let (mut picks, mut conflicted) = (0usize, 0usize);
        for family in Family::ALL {
            for (n, m) in [(40, 13), (60, 20), (90, 30), (120, 40)] {
                for seed in 1..=3 {
                    let inst = family.generate(n, m, seed);
                    for cap in [None, Some(1)] {
                        let mut cfg = EptasConfig::with_epsilon(0.5);
                        cfg.priority_cap = cap;
                        let r = Solver::new(cfg.clone()).solve_instance(&inst).unwrap();
                        let Some(guess) = r.report.chosen_guess else { continue };
                        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
                        let Some(rounded) = scale_and_round(&sizes, guess, cfg.epsilon) else {
                            continue;
                        };
                        let c = classify(&rounded, m);
                        let p = select_priority(&inst, &rounded, &c, &cfg);
                        let t = transform(&inst, &rounded, &c, &p);
                        let mut stats = crate::report::Stats::default();
                        let Ok(sol) = PatternSolve::new(&t, &cfg).run(&mut stats) else { continue };
                        let ps = &sol.patterns;
                        let mut state = WorkState::new(t.tinst.num_jobs(), m);
                        let Ok(la) = assign_large(&t, ps, &sol.outcome.x, &mut state) else {
                            continue;
                        };

                        let mut pools: HashMap<SizeExp, WildPool> = HashMap::new();
                        for j in 0..t.tinst.num_jobs() {
                            let bag = t.tinst.bag_of(JobId(j as u32));
                            if t.tclass[j] != JobClass::Small && !t.is_priority_tbag[bag.idx()] {
                                pools.entry(t.texp[j]).or_default().push(bag, JobId(j as u32));
                            }
                        }
                        let mut scanned: HashMap<SizeExp, HashMap<BagId, Vec<JobId>>> =
                            pools.iter().map(|(&e, w)| (e, w.jobs.clone())).collect();
                        let mut state = WorkState::new(t.tinst.num_jobs(), m);
                        for (machine, &pat) in la.machine_pattern.iter().enumerate() {
                            let mid = MachineId(machine as u32);
                            for &(si, mult) in &ps.patterns[pat].entries {
                                let sym = &ps.symbols[si];
                                if sym.bag != SlotBag::X {
                                    continue;
                                }
                                for _ in 0..mult {
                                    let ordered =
                                        pools.get_mut(&sym.exp).and_then(|w| w.take(&state, mid));
                                    let scan = scanned
                                        .get_mut(&sym.exp)
                                        .and_then(|b| scan_take(b, &state, mid));
                                    assert_eq!(
                                        ordered,
                                        scan,
                                        "{} n={n} seed {seed}",
                                        family.name()
                                    );
                                    let (job, conflict) = ordered.expect("slots match the pools");
                                    state.place(&t, job, mid);
                                    picks += 1;
                                    conflicted += usize::from(conflict);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(picks > 0 && conflicted > 0, "{picks} wildcard picks, {conflicted} conflicted");
    }

    #[test]
    fn workstate_place_remove_roundtrip() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let inst = Instance::new(&[(0.9, 0), (0.5, 1)], 2);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, 0.5).unwrap();
        let c = classify(&r, 2);
        let p = select_priority(&inst, &r, &c, &cfg);
        let t = transform(&inst, &r, &c, &p);
        let mut s = WorkState::new(t.tinst.num_jobs(), 2);
        let j = JobId(0);
        s.place(&t, j, MachineId(1));
        assert!(s.conflicts(MachineId(1), t.tinst.bag_of(j)));
        assert_eq!(s.machine_jobs[1], vec![j]);
        let from = s.remove(&t, j);
        assert_eq!(from, MachineId(1));
        assert!(!s.conflicts(MachineId(1), t.tinst.bag_of(j)));
        assert!((s.loads[1]).abs() < 1e-12);
    }
}
