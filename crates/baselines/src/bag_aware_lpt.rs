//! LPT restricted to conflict-free machines.
//!
//! Jobs in non-increasing size order; each goes to the least-loaded
//! machine that does not already run a job of its bag. Whenever
//! `|B_l| <= m` for every bag (the instance feasibility condition) a free
//! machine always exists, so this never fails on valid instances. It is
//! the natural practical heuristic and the upper bound seeding the
//! EPTAS's binary search, which runs the same
//! [`conflict_aware_lpt`].

use bagsched_types::lpt::conflict_aware_lpt;
use bagsched_types::{validate_instance, Instance, InstanceError, Schedule};

/// Schedule by conflict-aware LPT. Fails only on infeasible instances.
pub fn bag_aware_lpt(inst: &Instance) -> Result<Schedule, InstanceError> {
    validate_instance(inst)?;
    if inst.num_jobs() == 0 {
        return Ok(Schedule::unassigned(0, inst.num_machines().max(1)));
    }
    Ok(conflict_aware_lpt(inst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagsched_types::{gen, lowerbound::lower_bounds, validate_schedule};

    #[test]
    fn always_feasible_on_generated_families() {
        for family in gen::Family::ALL {
            for seed in 0..3 {
                let inst = family.generate(40, 4, seed);
                let s = bag_aware_lpt(&inst).unwrap();
                validate_schedule(&inst, &s).unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            }
        }
    }

    #[test]
    fn solves_the_lpt_breaking_gadget() {
        let inst = Instance::new(&[(10.0, 9), (1.0, 0), (1.0, 0)], 2);
        let s = bag_aware_lpt(&inst).unwrap();
        assert!(s.is_feasible(&inst));
        // The bag-0 pair must split, so one job shares with the giant: OPT = 11.
        assert_eq!(s.makespan(&inst), 11.0);
    }

    #[test]
    fn rejects_infeasible_instance() {
        let inst = Instance::new(&[(1.0, 0), (1.0, 0), (1.0, 0)], 2);
        assert!(bag_aware_lpt(&inst).is_err());
    }

    #[test]
    fn tight_bags_get_perfectly_spread() {
        // One bag of exactly m equal jobs must land on m distinct machines.
        let inst = Instance::new(&[(1.0, 0), (1.0, 0), (1.0, 0)], 3);
        let s = bag_aware_lpt(&inst).unwrap();
        assert_eq!(s.makespan(&inst), 1.0);
    }

    #[test]
    fn empty_instance_ok() {
        let inst = bagsched_types::InstanceBuilder::new(3).build();
        let s = bag_aware_lpt(&inst).unwrap();
        assert_eq!(s.num_jobs(), 0);
    }

    #[test]
    fn stays_close_to_lower_bound_statistically() {
        // Not a guarantee of the algorithm, but on uniform workloads the
        // heuristic should land well under 2x the certified lower bound.
        for seed in 0..5 {
            let inst = gen::uniform(80, 6, 30, seed);
            let s = bag_aware_lpt(&inst).unwrap();
            let lb = lower_bounds(&inst).combined();
            assert!(s.makespan(&inst) <= 2.0 * lb);
        }
    }
}
