//! Graham's Longest-Processing-Time rule, bag-oblivious.
//!
//! This is the classical `4/3 - 1/(3m)` approximation for makespan
//! minimization *without* bag-constraints. It ignores bags entirely, so
//! its output may be infeasible for the bag-constrained problem — the
//! harness uses it (a) as a makespan floor no conflict-respecting
//! algorithm can beat by much on bag-light instances and (b) to count how
//! often bag-obliviousness actually violates constraints.

use bagsched_types::lpt::lpt_order;
use bagsched_types::{Instance, MachineId, Schedule};

/// Schedule by LPT, ignoring bag-constraints.
pub fn lpt(inst: &Instance) -> Schedule {
    let m = inst.num_machines();
    assert!(m > 0, "need at least one machine");
    let mut loads = vec![0.0f64; m];
    let mut sched = Schedule::unassigned(inst.num_jobs(), m);
    for j in lpt_order(inst) {
        let (best, _) =
            loads.iter().enumerate().min_by(|(_, a), (_, b)| a.total_cmp(b)).expect("m > 0");
        sched.assign(j, MachineId(best as u32));
        loads[best] += inst.size(j);
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagsched_types::gen;

    #[test]
    fn balances_equal_jobs() {
        let inst = Instance::new(&[(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3)], 2);
        let s = lpt(&inst);
        assert_eq!(s.makespan(&inst), 2.0);
    }

    #[test]
    fn classic_lpt_example() {
        // The classic 4/3 worst case: sizes 5,5,4,4,3,3,3 on 3 machines.
        // LPT yields 11 while the optimum is 9 (5+4 | 5+4 | 3+3+3).
        let jobs: Vec<(f64, u32)> = [5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 3.0]
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        let inst = Instance::new(&jobs, 3);
        let s = lpt(&inst);
        assert_eq!(s.makespan(&inst), 11.0);
    }

    #[test]
    fn can_violate_bags() {
        // Two same-bag jobs, two machines, but a third giant job occupies
        // one machine: LPT piles the pair together.
        let inst = Instance::new(&[(10.0, 9), (1.0, 0), (1.0, 0)], 2);
        let s = lpt(&inst);
        assert!(!s.is_feasible(&inst), "this gadget should force a conflict");
    }

    #[test]
    fn within_graham_bound_on_random() {
        for seed in 0..5 {
            let inst = gen::uniform(50, 4, 20, seed);
            let s = lpt(&inst);
            let lb = bagsched_types::lowerbound::lower_bounds(&inst).combined();
            assert!(s.makespan(&inst) <= (4.0 / 3.0) * lb + 1e-9);
        }
    }

    #[test]
    fn single_machine_stacks_everything() {
        let inst = Instance::new(&[(1.0, 0), (2.0, 1)], 1);
        let s = lpt(&inst);
        assert_eq!(s.makespan(&inst), 3.0);
    }
}
