//! Lemma-7 swap repair for wildcard large-job conflicts.
//!
//! When a wildcard slot forced two jobs of one non-priority bag onto a
//! machine, the conflict is resolved by swapping the offending job with a
//! *same-rounded-size* large/medium job on another machine, chosen so
//! that neither machine ends up conflicted. Because both jobs have the
//! same rounded size, every machine keeps exactly the load the MILP
//! assigned it — the makespan does not move.
//!
//! The paper proves a valid partner always exists when `b'` (the number
//! of priority bags per size class) is at least `(dq+1)q`. The default
//! clamps `b'` to the bag count, which makes every bag holding a *large*
//! job priority, but priority is chosen per large size class: a bag with
//! no large job is priority only if it is a large bag. Its medium jobs,
//! when it has no small job to be split off, stay in the transformed
//! instance and fill wildcard slots. So wildcard conflicts, and a search
//! that finds no partner, happen at the default constants too:
//! `gen::uniform(40, 13, 13, 2)` at eps 0.5 has 10 priority bags of 13,
//! two of the others hold two medium jobs each, and a guess over a pool
//! whose enrichment stopped at the round cap fails here. A forced small
//! `priority_cap` makes it more frequent. The failure is reported as
//! [`GuessFailure::SwapRepair`].

use crate::assign_large::WorkState;
use crate::classify::JobClass;
use crate::report::{GuessFailure, Stats};
use crate::transform::Transformed;
use bagsched_types::JobId;

/// Resolve all recorded conflicts by swapping. Returns the number of
/// swaps performed. Each swap is also recorded into `stats` as it
/// happens, so work done before a [`GuessFailure::SwapRepair`] abort
/// still shows up in the run-wide counters.
pub fn repair_conflicts(
    trans: &Transformed,
    state: &mut WorkState,
    conflicts: &[JobId],
    stats: &mut Stats,
) -> Result<usize, GuessFailure> {
    let mut swaps = 0;
    for &job in conflicts {
        let bag = trans.tinst.bag_of(job);
        // A conflict entry for an unplaced job means the placement state
        // drifted; fail the guess rather than abort the process.
        let Some(mid) = state.machine_of[job.idx()] else {
            return Err(GuessFailure::SwapRepair);
        };
        if state.bag_on(mid, bag) <= 1 {
            continue; // an earlier swap already cleared this machine
        }
        let exp = trans.texp[job.idx()];
        let m = state.machine_jobs.len();
        let mut done = false;
        'machines: for other in 0..m {
            if other == mid.idx() || state.conflicts(bagsched_types::MachineId(other as u32), bag) {
                continue;
            }
            // A same-size large/medium partner whose bag is free on `mid`
            // (not counting the partner itself, which leaves).
            for pi in 0..state.machine_jobs[other].len() {
                let partner = state.machine_jobs[other][pi];
                if trans.tclass[partner.idx()] == JobClass::Small
                    || trans.texp[partner.idx()] != exp
                {
                    continue;
                }
                let pbag = trans.tinst.bag_of(partner);
                if pbag == bag || state.bag_on(mid, pbag) > 0 {
                    continue;
                }
                // Swap.
                let other_mid = bagsched_types::MachineId(other as u32);
                state.remove(trans, job);
                state.remove(trans, partner);
                state.place(trans, job, other_mid);
                state.place(trans, partner, mid);
                swaps += 1;
                stats.swap_repair_rounds += 1;
                done = true;
                break 'machines;
            }
        }
        if !done {
            return Err(GuessFailure::SwapRepair);
        }
    }
    Ok(swaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign_large::WorkState;
    use crate::classify::classify;
    use crate::config::EptasConfig;
    use crate::priority::select_priority;
    use crate::rounding::scale_and_round;
    use crate::transform::transform;
    use bagsched_types::{Instance, MachineId};

    /// Build a transformed instance and hand-place jobs to create a
    /// controlled conflict.
    fn fixture() -> (Transformed, WorkState) {
        // eps = 0.5. Bag 0 hogs priority (cap 1); bags 1 and 2 are
        // non-priority, with two large jobs each (plus a small to split).
        let jobs = [
            (0.9, 0),
            (0.9, 0),
            (0.9, 0),
            (0.9, 1),
            (0.9, 1),
            (0.01, 1),
            (0.9, 2),
            (0.9, 2),
            (0.01, 2),
        ];
        let inst = Instance::new(&jobs, 6);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, 0.5).unwrap();
        let c = classify(&r, 6);
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.priority_cap = Some(1);
        let p = select_priority(&inst, &r, &c, &cfg);
        let t = transform(&inst, &r, &c, &p);
        let state = WorkState::new(t.tinst.num_jobs(), 6);
        (t, state)
    }

    /// Transformed job ids of the large-side jobs of original bags 1, 2.
    fn large_side_jobs(t: &Transformed) -> (Vec<JobId>, Vec<JobId>) {
        let ls1 = t.large_side_of[1].unwrap();
        let ls2 = t.large_side_of[2].unwrap();
        (t.tinst.bag(ls1).to_vec(), t.tinst.bag(ls2).to_vec())
    }

    #[test]
    fn resolves_forced_conflict_preserving_loads() {
        let (t, mut state) = fixture();
        let (b1, b2) = large_side_jobs(&t);
        // Machine 0: both jobs of bag 1 (conflict). Machine 1: both of bag 2.
        state.place(&t, b1[0], MachineId(0));
        state.place(&t, b1[1], MachineId(0));
        state.place(&t, b2[0], MachineId(1));
        state.place(&t, b2[1], MachineId(1));
        let loads_before = state.loads.clone();
        assert_eq!(state.conflict_count(), 2);

        let mut stats = Stats::default();
        let swaps = repair_conflicts(&t, &mut state, &[b1[1], b2[1]], &mut stats).unwrap();
        assert!(swaps >= 1);
        assert_eq!(stats.swap_repair_rounds, swaps as u64);
        assert_eq!(state.conflict_count(), 0);
        // Same-size swaps keep every machine load unchanged.
        for (a, b) in loads_before.iter().zip(&state.loads) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn already_resolved_conflict_skipped() {
        let (t, mut state) = fixture();
        let (b1, _) = large_side_jobs(&t);
        state.place(&t, b1[0], MachineId(0));
        state.place(&t, b1[1], MachineId(1)); // no actual conflict
        let swaps = repair_conflicts(&t, &mut state, &[b1[1]], &mut Stats::default()).unwrap();
        assert_eq!(swaps, 0);
    }

    #[test]
    fn unresolvable_conflict_reported() {
        let (t, mut state) = fixture();
        let (b1, _) = large_side_jobs(&t);
        // Only bag 1's jobs are placed, both on machine 0: no partner of
        // equal size exists anywhere else.
        state.place(&t, b1[0], MachineId(0));
        state.place(&t, b1[1], MachineId(0));
        let res = repair_conflicts(&t, &mut state, &[b1[1]], &mut Stats::default());
        assert_eq!(res.unwrap_err(), GuessFailure::SwapRepair);
    }

    #[test]
    fn partner_bag_must_be_free_on_target() {
        let (t, mut state) = fixture();
        let (b1, b2) = large_side_jobs(&t);
        // Machine 0: bag1+bag1 (conflict) AND a bag-2 job; machine 1 has
        // the other bag-2 job. Swapping the conflicted bag-1 job with
        // machine 1's bag-2 job would put two bag-2 jobs on machine 0 —
        // the repair must instead move it somewhere safe (machine 1 works
        // for the bag-1 job only if machine 1 has no bag-1 job: it
        // doesn't, but the partner must leave machine 1 and not conflict
        // on machine 0... bag-2 on machine 0 conflicts). With only two
        // machines occupied, repair must fail; with a third machine
        // holding a lone large job it must succeed.
        state.place(&t, b1[0], MachineId(0));
        state.place(&t, b1[1], MachineId(0));
        state.place(&t, b2[0], MachineId(0));
        state.place(&t, b2[1], MachineId(1));
        let res = repair_conflicts(&t, &mut state, &[b1[1]], &mut Stats::default());
        // The only same-size partner off machine 0 is b2[1] on machine 1,
        // but bag 2 is already on machine 0 -> must fail.
        assert_eq!(res.unwrap_err(), GuessFailure::SwapRepair);
    }
}
