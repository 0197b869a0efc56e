//! Feasibility validation for instances and schedules.
//!
//! Every scheduler in the workspace funnels its output through
//! [`validate_schedule`] in tests, so the notion of feasibility is defined
//! in exactly one place.

use crate::instance::{BagId, Instance, JobId};
use crate::schedule::Schedule;
use std::fmt;

/// Why an instance is rejected: it admits no feasible schedule at all, or
/// its schedules cannot be represented.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// Some bag has more jobs than there are machines; since each of its
    /// jobs needs a distinct machine, no feasible schedule exists.
    BagLargerThanMachines { bag: BagId, bag_size: usize, machines: usize },
    /// The instance has no machines but at least one job.
    NoMachines,
    /// The job sizes sum past the largest finite `f64`, so makespans and
    /// bounds of the instance cannot be represented.
    TotalSizeNotFinite,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::BagLargerThanMachines { bag, bag_size, machines } => write!(
                f,
                "bag {} has {} jobs but only {} machines exist; bag-constraints are unsatisfiable",
                bag.0, bag_size, machines
            ),
            InstanceError::NoMachines => write!(f, "instance has jobs but zero machines"),
            InstanceError::TotalSizeNotFinite => {
                write!(f, "total job size overflows f64; rescale the sizes")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// Why a schedule is not a feasible solution for an instance.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Job counts of schedule and instance differ.
    JobCountMismatch { schedule: usize, instance: usize },
    /// Machine counts of schedule and instance differ.
    MachineCountMismatch { schedule: usize, instance: usize },
    /// Two jobs of one bag share a machine.
    Conflict { a: JobId, b: JobId, bag: BagId },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::JobCountMismatch { schedule, instance } => {
                write!(f, "schedule covers {schedule} jobs, instance has {instance}")
            }
            ScheduleError::MachineCountMismatch { schedule, instance } => {
                write!(f, "schedule uses {schedule} machines, instance has {instance}")
            }
            ScheduleError::Conflict { a, b, bag } => {
                write!(f, "jobs {} and {} of bag {} share a machine", a.0, b.0, bag.0)
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Check that an instance admits *some* feasible schedule, and that the
/// makespan of every schedule is a finite `f64`.
pub fn validate_instance(inst: &Instance) -> Result<(), InstanceError> {
    if inst.num_machines() == 0 && inst.num_jobs() > 0 {
        return Err(InstanceError::NoMachines);
    }
    for (bag, members) in inst.bags() {
        if members.len() > inst.num_machines() {
            return Err(InstanceError::BagLargerThanMachines {
                bag,
                bag_size: members.len(),
                machines: inst.num_machines(),
            });
        }
    }
    if !inst.total_size().is_finite() {
        return Err(InstanceError::TotalSizeNotFinite);
    }
    Ok(())
}

/// Check that `sched` is a feasible solution of `inst`.
pub fn validate_schedule(inst: &Instance, sched: &Schedule) -> Result<(), ScheduleError> {
    if sched.num_jobs() != inst.num_jobs() {
        return Err(ScheduleError::JobCountMismatch {
            schedule: sched.num_jobs(),
            instance: inst.num_jobs(),
        });
    }
    if sched.num_machines() != inst.num_machines() {
        return Err(ScheduleError::MachineCountMismatch {
            schedule: sched.num_machines(),
            instance: inst.num_machines(),
        });
    }
    if let Some(&(a, b)) = sched.conflicts(inst).first() {
        return Err(ScheduleError::Conflict { a, b, bag: inst.bag_of(a) });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::MachineId;

    #[test]
    fn instance_with_oversized_bag_rejected() {
        let inst = Instance::new(&[(1.0, 0), (1.0, 0), (1.0, 0)], 2);
        match validate_instance(&inst) {
            Err(InstanceError::BagLargerThanMachines { bag_size: 3, machines: 2, .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn instance_zero_machines_rejected() {
        let inst = Instance::new(&[(1.0, 0)], 0);
        assert_eq!(validate_instance(&inst), Err(InstanceError::NoMachines));
    }

    /// Each size is finite but the sum is not: one machine would carry an
    /// infinite makespan, and on three machines the area bound is
    /// infinite too.
    #[test]
    fn instance_with_overflowing_total_size_rejected() {
        for machines in [1, 3] {
            let inst = Instance::new(&[(1.7e308, 0), (1e308, 1)], machines);
            assert_eq!(validate_instance(&inst), Err(InstanceError::TotalSizeNotFinite));
        }
        let fits = Instance::new(&[(8e307, 0), (8e307, 1)], 3);
        assert!(validate_instance(&fits).is_ok());
    }

    #[test]
    fn feasible_instance_ok() {
        let inst = Instance::new(&[(1.0, 0), (1.0, 0)], 2);
        assert!(validate_instance(&inst).is_ok());
    }

    #[test]
    fn schedule_conflict_reported_with_bag() {
        let inst = Instance::new(&[(1.0, 5), (1.0, 5)], 2);
        let s = Schedule::from_assignment(vec![MachineId(0), MachineId(0)], 2);
        match validate_schedule(&inst, &s) {
            Err(ScheduleError::Conflict { a: JobId(0), b: JobId(1), .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn schedule_shape_mismatches() {
        let inst = Instance::new(&[(1.0, 0)], 2);
        let s = Schedule::from_assignment(vec![MachineId(0), MachineId(0)], 2);
        assert!(matches!(
            validate_schedule(&inst, &s),
            Err(ScheduleError::JobCountMismatch { .. })
        ));
        let s = Schedule::from_assignment(vec![MachineId(0)], 3);
        assert!(matches!(
            validate_schedule(&inst, &s),
            Err(ScheduleError::MachineCountMismatch { .. })
        ));
    }

    #[test]
    fn error_display_strings() {
        let e = InstanceError::BagLargerThanMachines { bag: BagId(1), bag_size: 3, machines: 2 };
        assert!(e.to_string().contains("bag 1"));
        let e = ScheduleError::Conflict { a: JobId(0), b: JobId(1), bag: BagId(2) };
        assert!(e.to_string().contains("bag 2"));
    }
}
