//! Schedules: a total assignment of jobs to machines.

use crate::instance::{BagId, Instance, JobId};
use serde::{Deserialize, DeserializeError, Serialize, Value};

/// Index of a machine (`0..m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

impl Serialize for MachineId {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for MachineId {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        u32::from_value(v).map(MachineId)
    }
}

impl MachineId {
    /// The machine index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An assignment of every job of an [`Instance`] to a machine.
///
/// A `Schedule` is a plain data object; it does not enforce feasibility by
/// itself. Use [`Schedule::conflicts`] /
/// [`validate_schedule`](crate::validate::validate_schedule) to check the
/// bag-constraints, and [`Schedule::makespan`] for the objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// `assignment[j]` is the machine running job `j`.
    assignment: Vec<MachineId>,
    machines: usize,
}

impl Serialize for Schedule {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("assignment".into(), self.assignment.to_value()),
            ("machines".into(), self.machines.to_value()),
        ])
    }
}

impl Deserialize for Schedule {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        let assignment: Vec<MachineId> = Vec::from_value(v.field("assignment")?)?;
        let machines = usize::from_value(v.field("machines")?)?;
        // Enforce the `from_assignment` invariants so malformed JSON is an
        // error here instead of a panic later in `loads`/`makespan`.
        if machines == 0 {
            return Err(DeserializeError::new("schedule must have at least one machine"));
        }
        if machines > u32::MAX as usize {
            return Err(DeserializeError::new(format!(
                "machine count {machines} exceeds the representable range"
            )));
        }
        if let Some(mid) = assignment.iter().find(|mid| mid.idx() >= machines) {
            return Err(DeserializeError::new(format!(
                "machine index {} out of range (m={machines})",
                mid.0
            )));
        }
        Ok(Schedule { assignment, machines })
    }
}

impl Schedule {
    /// An empty schedule skeleton: every job provisionally on machine 0.
    /// Useful as a buffer to be filled by an algorithm.
    pub fn unassigned(num_jobs: usize, machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        Schedule { assignment: vec![MachineId(0); num_jobs], machines }
    }

    /// Build from an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if any machine index is out of range.
    pub fn from_assignment(assignment: Vec<MachineId>, machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        for &mid in &assignment {
            assert!(mid.idx() < machines, "machine index {} out of range (m={})", mid.0, machines);
        }
        Schedule { assignment, machines }
    }

    /// The machine running job `j`.
    #[inline]
    pub fn machine_of(&self, j: JobId) -> MachineId {
        self.assignment[j.idx()]
    }

    /// Assign (or reassign) job `j` to machine `mid`.
    #[inline]
    pub fn assign(&mut self, j: JobId, mid: MachineId) {
        assert!(
            mid.idx() < self.machines,
            "machine index {} out of range (m={})",
            mid.0,
            self.machines
        );
        self.assignment[j.idx()] = mid;
    }

    /// Swap the machines of two jobs.
    pub fn swap(&mut self, a: JobId, b: JobId) {
        self.assignment.swap(a.idx(), b.idx());
    }

    /// Number of machines.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.machines
    }

    /// Number of jobs covered by this schedule.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.assignment.len()
    }

    /// The raw assignment slice (`job -> machine`).
    pub fn assignment(&self) -> &[MachineId] {
        &self.assignment
    }

    /// Per-machine loads under the sizes of `inst` (one entry per
    /// machine, so `m` long).
    pub fn loads(&self, inst: &Instance) -> Vec<f64> {
        assert_eq!(inst.num_jobs(), self.assignment.len(), "schedule/instance job count mismatch");
        let mut loads = vec![0.0; self.machines];
        for (j, &mid) in self.assignment.iter().enumerate() {
            loads[mid.idx()] += inst.size(JobId(j as u32));
        }
        loads
    }

    /// The makespan (maximum machine load; 0 for an empty instance).
    ///
    /// O(n) memory whatever the machine count: the jobs are grouped by
    /// machine by sorting, and each load is summed in job order, so the
    /// result has the bits of the maximum over [`Schedule::loads`].
    pub fn makespan(&self, inst: &Instance) -> f64 {
        assert_eq!(inst.num_jobs(), self.assignment.len(), "schedule/instance job count mismatch");
        let mut on: Vec<(MachineId, JobId)> =
            self.assignment.iter().enumerate().map(|(j, &mid)| (mid, JobId(j as u32))).collect();
        on.sort_unstable();
        on.chunk_by(|a, b| a.0 == b.0)
            .map(|jobs| jobs.iter().fold(0.0, |load, &(_, j)| load + inst.size(j)))
            .fold(0.0, f64::max)
    }

    /// The jobs assigned to each machine (one list per machine, so `m`
    /// long).
    pub fn machine_jobs(&self, inst: &Instance) -> Vec<Vec<JobId>> {
        assert_eq!(inst.num_jobs(), self.assignment.len(), "schedule/instance job count mismatch");
        let mut per = vec![Vec::new(); self.machines];
        for (j, &mid) in self.assignment.iter().enumerate() {
            per[mid.idx()].push(JobId(j as u32));
        }
        per
    }

    /// All bag-constraint violations: pairs of same-bag jobs sharing a
    /// machine. Each later job is paired with the first (lowest-index)
    /// job of its bag on its machine, and the pairs come in the order of
    /// their later job.
    ///
    /// O(n) memory whatever the machine and bag counts: the jobs are
    /// grouped by `(machine, bag)` by sorting.
    pub fn conflicts(&self, inst: &Instance) -> Vec<(JobId, JobId)> {
        let mut keyed: Vec<(MachineId, BagId, JobId)> = self
            .assignment
            .iter()
            .enumerate()
            .map(|(j, &mid)| (mid, inst.bag_of(JobId(j as u32)), JobId(j as u32)))
            .collect();
        keyed.sort_unstable();
        let mut out = Vec::new();
        for group in keyed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            out.extend(group[1..].iter().map(|&(_, _, job)| (group[0].2, job)));
        }
        out.sort_unstable_by_key(|&(_, job)| job);
        out
    }

    /// Whether the schedule satisfies every bag-constraint.
    pub fn is_feasible(&self, inst: &Instance) -> bool {
        self.conflicts(inst).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    fn tiny() -> Instance {
        // bags: {0,1} in bag 0, {2} in bag 1
        Instance::new(&[(1.0, 0), (2.0, 0), (3.0, 1)], 2)
    }

    #[test]
    fn loads_and_makespan() {
        let inst = tiny();
        let s = Schedule::from_assignment(vec![MachineId(0), MachineId(1), MachineId(0)], 2);
        assert_eq!(s.loads(&inst), vec![4.0, 2.0]);
        assert_eq!(s.makespan(&inst), 4.0);
    }

    #[test]
    fn detects_conflicts() {
        let inst = tiny();
        let bad = Schedule::from_assignment(vec![MachineId(0), MachineId(0), MachineId(1)], 2);
        assert!(!bad.is_feasible(&inst));
        assert_eq!(bad.conflicts(&inst), vec![(JobId(0), JobId(1))]);

        let good = Schedule::from_assignment(vec![MachineId(0), MachineId(1), MachineId(0)], 2);
        assert!(good.is_feasible(&inst));
        assert!(good.conflicts(&inst).is_empty());
    }

    /// The per-machine tables `conflicts` replaced, as the reference:
    /// `seen[machine][bag]` holds the first job of that bag there.
    fn table_conflicts(s: &Schedule, inst: &Instance) -> Vec<(JobId, JobId)> {
        let mut out = Vec::new();
        let mut seen = vec![vec![None; inst.num_bags()]; s.num_machines()];
        for (j, &mid) in s.assignment().iter().enumerate() {
            let job = JobId(j as u32);
            let bag = inst.bag_of(job).idx();
            match seen[mid.idx()][bag] {
                Some(first) => out.push((first, job)),
                None => seen[mid.idx()][bag] = Some(job),
            }
        }
        out
    }

    #[test]
    fn conflicts_and_makespan_match_the_per_machine_tables() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for _ in 0..50 {
            let (n, m, bags) = (1 + next(40) as usize, 1 + next(6) as usize, 1 + next(8) as u32);
            let jobs: Vec<(f64, u32)> =
                (0..n).map(|_| (0.1 + next(1000) as f64 / 7.0, next(bags as u64) as u32)).collect();
            let inst = Instance::new(&jobs, m);
            let s = Schedule::from_assignment(
                (0..n).map(|_| MachineId(next(m as u64) as u32)).collect(),
                m,
            );
            let want = table_conflicts(&s, &inst);
            assert_eq!(s.conflicts(&inst), want);
            assert_eq!(s.is_feasible(&inst), want.is_empty());
            let max_load = s.loads(&inst).into_iter().fold(0.0, f64::max);
            assert_eq!(s.makespan(&inst).to_bits(), max_load.to_bits());
        }
    }

    /// Neither the makespan nor the conflict check sizes anything by the
    /// machine count, so a schedule on `u32::MAX` machines is checked in
    /// O(n) memory.
    #[test]
    fn machine_count_at_the_u32_limit_needs_no_per_machine_table() {
        let m = u32::MAX as usize;
        let inst = Instance::new(&[(2.0, 0), (1.0, 0), (0.5, 1)], m);
        let s =
            Schedule::from_assignment(vec![MachineId(u32::MAX - 1), MachineId(7), MachineId(7)], m);
        assert_eq!(s.makespan(&inst), 2.0);
        assert!(s.is_feasible(&inst));
        let clash = Schedule::from_assignment(vec![MachineId(7); 3], m);
        assert_eq!(clash.conflicts(&inst), vec![(JobId(0), JobId(1))]);
        assert_eq!(clash.makespan(&inst), 3.5);
    }

    #[test]
    fn triple_conflict_reports_two_pairs() {
        let inst = Instance::new(&[(1.0, 0), (1.0, 0), (1.0, 0)], 2);
        let s = Schedule::from_assignment(vec![MachineId(1); 3], 2);
        assert_eq!(s.conflicts(&inst).len(), 2);
    }

    #[test]
    fn swap_and_assign() {
        let inst = tiny();
        let mut s = Schedule::from_assignment(vec![MachineId(0), MachineId(1), MachineId(0)], 2);
        s.swap(JobId(0), JobId(1));
        assert_eq!(s.machine_of(JobId(0)), MachineId(1));
        s.assign(JobId(2), MachineId(1));
        assert_eq!(s.loads(&inst), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_machine() {
        Schedule::from_assignment(vec![MachineId(3)], 2);
    }

    #[test]
    fn machine_jobs_partition() {
        let inst = tiny();
        let s = Schedule::from_assignment(vec![MachineId(0), MachineId(1), MachineId(0)], 2);
        let per = s.machine_jobs(&inst);
        assert_eq!(per[0], vec![JobId(0), JobId(2)]);
        assert_eq!(per[1], vec![JobId(1)]);
    }

    #[test]
    fn empty_schedule_feasible() {
        let inst = crate::instance::InstanceBuilder::new(2).build();
        let s = Schedule::unassigned(0, 2);
        assert!(s.is_feasible(&inst));
        assert_eq!(s.makespan(&inst), 0.0);
    }
}
