//! Longest Processing Time first: the job order and the conflict-aware
//! schedule built from it. The EPTAS seeds its binary search with this
//! schedule's makespan, and the baselines ship it as the practical
//! heuristic, so both run this one copy.

use crate::instance::{Instance, JobId};
use crate::schedule::{MachineId, Schedule};
use std::collections::BTreeSet;

/// The jobs by size, largest first, ties by id: the order LPT places
/// them in.
pub fn lpt_order(inst: &Instance) -> Vec<JobId> {
    let mut order: Vec<JobId> = inst.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| inst.size(b).total_cmp(&inst.size(a)).then(a.cmp(&b)));
    order
}

/// Conflict-aware LPT: each job in [`lpt_order`] goes to the least-loaded
/// machine (the lowest index on ties) that runs no job of its bag yet.
///
/// The machines sit in an ordered set keyed by `(load bits, machine)`:
/// loads are sums of positive finite sizes, and the bits of nonnegative
/// finite floats order as their values, so the set's order is the
/// least-loaded, lowest-index order. A job takes the first machine its
/// bag does not hold, skipping at most the bag's own machines, so a
/// placement costs `O((1 + |held|) log m)` instead of a scan over all
/// `m` machines. Memory is O(n + m): each bag keeps the list of machines
/// it occupies, and one machine mask is marked from that list for the
/// job being placed and cleared after it.
///
/// # Panics
/// If a bag has more jobs than there are machines; run
/// [`validate_instance`](crate::validate::validate_instance) first.
pub fn conflict_aware_lpt(inst: &Instance) -> Schedule {
    let m = inst.num_machines();
    let mut by_load: BTreeSet<(u64, u32)> = (0..m as u32).map(|i| (0.0f64.to_bits(), i)).collect();
    let mut bag_machines: Vec<Vec<u32>> = vec![Vec::new(); inst.num_bags()];
    let mut blocked = vec![false; m];
    let mut sched = Schedule::unassigned(inst.num_jobs(), m);
    for j in lpt_order(inst) {
        let held = &mut bag_machines[inst.bag_of(j).idx()];
        for &i in held.iter() {
            blocked[i as usize] = true;
        }
        let &(key, best) = by_load
            .iter()
            .find(|&&(_, i)| !blocked[i as usize])
            .expect("a conflict-free machine exists because |B| <= m");
        for &i in held.iter() {
            blocked[i as usize] = false;
        }
        held.push(best);
        sched.assign(j, MachineId(best));
        by_load.remove(&(key, best));
        by_load.insert(((f64::from_bits(key) + inst.size(j)).to_bits(), best));
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// The per-machine table this replaces: `has_bag[machine][bag]`.
    fn table_lpt(inst: &Instance) -> Schedule {
        let m = inst.num_machines();
        let mut loads = vec![0.0f64; m];
        let mut has_bag = vec![vec![false; inst.num_bags()]; m];
        let mut sched = Schedule::unassigned(inst.num_jobs(), m);
        for j in lpt_order(inst) {
            let bag = inst.bag_of(j).idx();
            let best = (0..m)
                .filter(|&i| !has_bag[i][bag])
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
                .unwrap();
            sched.assign(j, MachineId(best as u32));
            loads[best] += inst.size(j);
            has_bag[best][bag] = true;
        }
        sched
    }

    #[test]
    fn picks_the_same_machines_as_a_bag_table() {
        for family in gen::Family::ALL {
            for (n, m) in [(40, 4), (60, 20), (90, 30), (2000, 700)] {
                let inst = family.generate(n, m, 3);
                let s = conflict_aware_lpt(&inst);
                assert_eq!(s, table_lpt(&inst), "{} n={n} m={m}", family.name());
                assert!(s.is_feasible(&inst));
            }
        }
    }

    #[test]
    fn order_is_size_descending_then_id() {
        let inst = Instance::new(&[(1.0, 0), (3.0, 1), (1.0, 2), (2.0, 3)], 2);
        assert_eq!(lpt_order(&inst), vec![JobId(1), JobId(3), JobId(0), JobId(2)]);
    }
}
