//! The paper's *bag-LPT* primitive (§4) and a whole-instance scheduler
//! built on it.
//!
//! Bag-LPT (paper, before Lemma 8): given `m'` machines and bags of at
//! most `m'` jobs each (padded with height-0 dummies), process bags one by
//! one; within a bag sort jobs by non-increasing height, sort machines by
//! non-decreasing load, and give the j-th job to the j-th machine. Lemma 8
//! proves the resulting loads differ by at most `pmax` and the top machine
//! ends at most `h + x + pmax` where `x` is the average assigned area.
//!
//! [`bag_lpt_assign`] is the primitive, whose Lemma-8 bounds the `lemma8`
//! experiment measures; [`bag_lpt_schedule`] wraps it into a standalone
//! baseline over all `m` machines. The EPTAS does not call it: its
//! small-job placement (`bagsched_core::small`) runs bag-LPT loops of its
//! own over padded work lists and machine groups.

use bagsched_types::{validate_instance, Instance, InstanceError, JobId, MachineId, Schedule};

/// One bag-LPT round: assign each bag's jobs (at most one per machine) on
/// top of the given loads. `loads` is updated in place.
///
/// Every bag must have at most `loads.len()` jobs; jobs are `(id, size)`.
/// Returns `(job, machine-index)` pairs.
///
/// # Panics
/// Panics if some bag has more jobs than machines.
pub fn bag_lpt_assign(loads: &mut [f64], bags: &[Vec<(JobId, f64)>]) -> Vec<(JobId, usize)> {
    let m = loads.len();
    let mut out = Vec::with_capacity(bags.iter().map(Vec::len).sum());
    let mut machine_order: Vec<usize> = (0..m).collect();
    for bag in bags {
        assert!(bag.len() <= m, "bag of {} jobs exceeds {} machines", bag.len(), m);
        let mut jobs = bag.clone();
        // Non-increasing job height.
        jobs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        // Non-decreasing machine load.
        machine_order.sort_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)));
        for (rank, (job, size)) in jobs.into_iter().enumerate() {
            let machine = machine_order[rank];
            loads[machine] += size;
            out.push((job, machine));
        }
    }
    out
}

/// Schedule a whole instance by repeated bag-LPT over all `m` machines.
///
/// This is only valid because every machine is free for every bag at the
/// start and each bag contributes at most one job per machine; it is the
/// algorithm the paper runs per machine-*group*, used here over the whole
/// machine set as a baseline.
pub fn bag_lpt_schedule(inst: &Instance) -> Result<Schedule, InstanceError> {
    validate_instance(inst)?;
    let m = inst.num_machines();
    if inst.num_jobs() == 0 {
        return Ok(Schedule::unassigned(0, m.max(1)));
    }
    let mut loads = vec![0.0f64; m];
    // Process bags by non-increasing total area (helps balance, mirrors
    // LPT's big-first principle at bag granularity).
    let mut bags: Vec<Vec<(JobId, f64)>> = inst
        .bags()
        .map(|(_, members)| members.iter().map(|&j| (j, inst.size(j))).collect())
        .collect();
    bags.sort_by(|a, b| {
        let sa: f64 = a.iter().map(|x| x.1).sum();
        let sb: f64 = b.iter().map(|x| x.1).sum();
        sb.total_cmp(&sa)
    });
    let assignment = bag_lpt_assign(&mut loads, &bags);
    let mut sched = Schedule::unassigned(inst.num_jobs(), m);
    for (job, machine) in assignment {
        sched.assign(job, MachineId(machine as u32));
    }
    Ok(sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagsched_types::gen;
    use bagsched_types::validate_schedule;
    use proptest::prelude::*;

    #[test]
    fn zip_order_is_big_job_to_light_machine() {
        let mut loads = vec![0.0, 1.0, 2.0];
        let bag = vec![(JobId(0), 3.0), (JobId(1), 1.0), (JobId(2), 2.0)];
        let got = bag_lpt_assign(&mut loads, &[bag]);
        // Biggest job (0, size 3) -> lightest machine 0; job 2 (size 2) ->
        // machine 1; job 1 -> machine 2.
        assert_eq!(got, vec![(JobId(0), 0), (JobId(2), 1), (JobId(1), 2)]);
        assert_eq!(loads, vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn schedule_feasible_on_families() {
        for family in gen::Family::ALL {
            let inst = family.generate(50, 5, 3);
            let s = bag_lpt_schedule(&inst).unwrap();
            validate_schedule(&inst, &s).unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_bag_panics() {
        let mut loads = vec![0.0];
        bag_lpt_assign(&mut loads, &[vec![(JobId(0), 1.0), (JobId(1), 1.0)]]);
    }

    proptest! {
        /// Lemma 8, first part: starting from equal loads, after bag-LPT
        /// any two machine loads differ by at most pmax.
        #[test]
        fn lemma8_spread_bound(
            bags in proptest::collection::vec(
                proptest::collection::vec(0.01f64..1.0, 1..5), 1..8),
            m in 5usize..9,
        ) {
            let mut loads = vec![0.0f64; m];
            let mut id = 0u32;
            let bags: Vec<Vec<(JobId, f64)>> = bags
                .into_iter()
                .map(|sizes| sizes.into_iter().map(|s| {
                    id += 1;
                    (JobId(id), s)
                }).collect())
                .collect();
            let pmax = bags
                .iter()
                .flat_map(|b| b.iter().map(|x| x.1))
                .fold(0.0f64, f64::max);
            bag_lpt_assign(&mut loads, &bags);
            let hi = loads.iter().cloned().fold(f64::MIN, f64::max);
            let lo = loads.iter().cloned().fold(f64::MAX, f64::min);
            prop_assert!(hi - lo <= pmax + 1e-9,
                "spread {} exceeds pmax {}", hi - lo, pmax);
        }

        /// Lemma 8, second part: highest machine <= h + x + pmax where x is
        /// the average area per machine and h the (equal) starting height.
        #[test]
        fn lemma8_height_bound(
            bags in proptest::collection::vec(
                proptest::collection::vec(0.01f64..1.0, 1..6), 1..8),
            m in 6usize..10,
            h in 0.0f64..2.0,
        ) {
            let mut loads = vec![h; m];
            let mut id = 0u32;
            let bags: Vec<Vec<(JobId, f64)>> = bags
                .into_iter()
                .map(|sizes| sizes.into_iter().map(|s| {
                    id += 1;
                    (JobId(id), s)
                }).collect())
                .collect();
            let pmax = bags.iter().flat_map(|b| b.iter().map(|x| x.1)).fold(0.0f64, f64::max);
            let area: f64 = bags.iter().flat_map(|b| b.iter().map(|x| x.1)).sum();
            let x = area / m as f64;
            bag_lpt_assign(&mut loads, &bags);
            let hi = loads.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!(hi <= h + x + pmax + 1e-9,
                "highest {} exceeds h+x+pmax = {}", hi, h + x + pmax);
        }
    }
}
