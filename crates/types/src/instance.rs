//! Problem instances: jobs, bags, machines.

use serde::{Deserialize, DeserializeError, Serialize, Value};
use std::collections::HashMap;

/// Index of a job within an [`Instance`] (dense, `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// Index of a bag within an [`Instance`] (dense, `0..b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BagId(pub u32);

impl JobId {
    /// The job index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl BagId {
    /// The bag index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A single job: a processing time and the bag it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Dense job index.
    pub id: JobId,
    /// Processing time `p_j > 0`.
    pub size: f64,
    /// The unique bag containing this job.
    pub bag: BagId,
}

/// An instance of machine scheduling with bag-constraints.
///
/// Construct via [`InstanceBuilder`] or [`Instance::new`]; both enforce the
/// structural invariants (positive sizes, dense bag ids). Semantic
/// feasibility (`|B_l| <= m`) is checked by
/// [`validate_instance`](crate::validate::validate_instance).
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    jobs: Vec<Job>,
    machines: usize,
    num_bags: usize,
    /// Jobs of each bag, indexed by `BagId`. Derived; not serialized, and
    /// reconstructed whenever an `Instance` is built or deserialized.
    bag_members: Vec<Vec<JobId>>,
}

impl Serialize for JobId {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for JobId {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        u32::from_value(v).map(JobId)
    }
}

impl Serialize for BagId {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for BagId {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        u32::from_value(v).map(BagId)
    }
}

impl Serialize for Job {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), self.id.to_value()),
            ("size".into(), self.size.to_value()),
            ("bag".into(), self.bag.to_value()),
        ])
    }
}

impl Deserialize for Job {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        Ok(Job {
            id: JobId::from_value(v.field("id")?)?,
            size: f64::from_value(v.field("size")?)?,
            bag: BagId::from_value(v.field("bag")?)?,
        })
    }
}

impl Serialize for Instance {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("jobs".into(), self.jobs.to_value()),
            ("machines".into(), self.machines.to_value()),
            ("num_bags".into(), self.num_bags.to_value()),
        ])
    }
}

impl Deserialize for Instance {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        let jobs: Vec<Job> = Vec::from_value(v.field("jobs")?)?;
        let machines = usize::from_value(v.field("machines")?)?;
        let num_bags = usize::from_value(v.field("num_bags")?)?;
        // Enforce the structural invariants the builder guarantees, so
        // hostile or hand-edited JSON surfaces as an error, not a panic
        // deep inside `rebuild_index` or a size lookup. The builder keeps
        // every bag non-empty, hence `num_bags <= n`; machines must fit a
        // `MachineId` (u32).
        if num_bags > jobs.len() {
            return Err(DeserializeError::new(format!(
                "num_bags {num_bags} exceeds job count {} (bags are dense and non-empty)",
                jobs.len()
            )));
        }
        if machines > u32::MAX as usize {
            return Err(DeserializeError::new(format!(
                "machine count {machines} exceeds the representable range"
            )));
        }
        for (i, job) in jobs.iter().enumerate() {
            if job.id.idx() != i {
                return Err(DeserializeError::new(format!(
                    "job at position {i} has id {} (ids must be dense)",
                    job.id.0
                )));
            }
            if job.bag.idx() >= num_bags {
                return Err(DeserializeError::new(format!(
                    "job {} references bag {} but num_bags is {num_bags}",
                    job.id.0, job.bag.0
                )));
            }
            if !(job.size > 0.0 && job.size.is_finite()) {
                return Err(DeserializeError::new(format!(
                    "job {} has non-positive or non-finite size {}",
                    job.id.0, job.size
                )));
            }
        }
        // Bags must not only be in range but dense-and-non-empty, exactly
        // as the builder produces them.
        let mut occupied = vec![false; num_bags];
        for job in &jobs {
            occupied[job.bag.idx()] = true;
        }
        if let Some(empty) = occupied.iter().position(|&o| !o) {
            return Err(DeserializeError::new(format!(
                "bag {empty} has no jobs (bags are dense and non-empty)"
            )));
        }
        // The checks above make `from_parts` safe, so the returned value is
        // fully indexed — no separate `rebuild_index` step required.
        Ok(Instance::from_parts(jobs, machines, num_bags))
    }
}

impl Instance {
    /// Build an instance from `(size, bag)` pairs and a machine count.
    ///
    /// # Panics
    /// Panics if any size is non-positive or not finite. Bag ids may be
    /// sparse; they are compacted to a dense range preserving order.
    pub fn new(jobs: &[(f64, u32)], machines: usize) -> Self {
        let mut builder = InstanceBuilder::new(machines);
        for &(size, bag) in jobs {
            builder.push(size, bag);
        }
        builder.build()
    }

    pub(crate) fn from_parts(jobs: Vec<Job>, machines: usize, num_bags: usize) -> Self {
        let mut bag_members = vec![Vec::new(); num_bags];
        for job in &jobs {
            bag_members[job.bag.idx()].push(job.id);
        }
        Instance { jobs, machines, num_bags, bag_members }
    }

    /// Recompute the derived bag membership table. Construction and
    /// deserialization both produce an indexed instance already; this is
    /// only needed after direct mutation of the job list.
    pub fn rebuild_index(&mut self) {
        self.bag_members = vec![Vec::new(); self.num_bags];
        for job in &self.jobs {
            self.bag_members[job.bag.idx()].push(job.id);
        }
    }

    /// All jobs, indexed by [`JobId`].
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The job with the given id.
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.idx()]
    }

    /// Processing time of a job.
    #[inline]
    pub fn size(&self, id: JobId) -> f64 {
        self.jobs[id.idx()].size
    }

    /// Bag of a job.
    #[inline]
    pub fn bag_of(&self, id: JobId) -> BagId {
        self.jobs[id.idx()].bag
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of machines `m`.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.machines
    }

    /// Number of bags `b`.
    #[inline]
    pub fn num_bags(&self) -> usize {
        self.num_bags
    }

    /// The jobs of bag `l`.
    #[inline]
    pub fn bag(&self, l: BagId) -> &[JobId] {
        &self.bag_members[l.idx()]
    }

    /// Iterator over `(BagId, members)`.
    pub fn bags(&self) -> impl Iterator<Item = (BagId, &[JobId])> {
        self.bag_members
            .iter()
            .enumerate()
            .map(|(l, members)| (BagId(l as u32), members.as_slice()))
    }

    /// Total processing time of all jobs.
    pub fn total_size(&self) -> f64 {
        self.jobs.iter().map(|j| j.size).sum()
    }

    /// Largest processing time (0 for an empty instance).
    pub fn max_size(&self) -> f64 {
        self.jobs.iter().map(|j| j.size).fold(0.0, f64::max)
    }

    /// Size of the largest bag.
    pub fn max_bag_size(&self) -> usize {
        self.bag_members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// A copy of this instance with a different machine count.
    pub fn with_machines(&self, machines: usize) -> Self {
        let mut inst = self.clone();
        inst.machines = machines;
        inst
    }

    /// A copy with every processing time multiplied by `factor > 0`.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "scale factor must be positive");
        let mut inst = self.clone();
        for job in &mut inst.jobs {
            job.size *= factor;
        }
        inst
    }
}

/// Incremental [`Instance`] construction.
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    jobs: Vec<Job>,
    machines: usize,
    /// External bag id -> dense bag id.
    bag_remap: HashMap<u32, u32>,
}

impl InstanceBuilder {
    /// Start building an instance on `machines` identical machines.
    pub fn new(machines: usize) -> Self {
        InstanceBuilder { jobs: Vec::new(), machines, bag_remap: HashMap::new() }
    }

    /// Append a job with processing time `size` in external bag `bag`.
    ///
    /// External bag ids may be arbitrary `u32`s; they are compacted in
    /// first-seen order.
    pub fn push(&mut self, size: f64, bag: u32) -> JobId {
        assert!(
            size > 0.0 && size.is_finite(),
            "job sizes must be positive and finite, got {size}"
        );
        let fresh = self.bag_remap.len() as u32;
        let dense = *self.bag_remap.entry(bag).or_insert(fresh);
        let id = JobId(self.jobs.len() as u32);
        self.jobs.push(Job { id, size, bag: BagId(dense) });
        id
    }

    /// Number of jobs pushed so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Finish construction.
    pub fn build(self) -> Instance {
        let num_bags = self.bag_remap.len();
        Instance::from_parts(self.jobs, self.machines, num_bags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_compacts_bags() {
        let inst = Instance::new(&[(1.0, 7), (2.0, 3), (3.0, 7)], 2);
        assert_eq!(inst.num_bags(), 2);
        assert_eq!(inst.bag_of(JobId(0)), inst.bag_of(JobId(2)));
        assert_ne!(inst.bag_of(JobId(0)), inst.bag_of(JobId(1)));
        assert_eq!(inst.bag(BagId(0)), &[JobId(0), JobId(2)]);
        assert_eq!(inst.bag_of(JobId(1)), BagId(1), "dense ids follow first-seen order");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_size() {
        Instance::new(&[(0.0, 0)], 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nan_size() {
        Instance::new(&[(f64::NAN, 0)], 1);
    }

    #[test]
    fn aggregates() {
        let inst = Instance::new(&[(1.0, 0), (2.0, 1), (3.0, 0)], 2);
        assert_eq!(inst.total_size(), 6.0);
        assert_eq!(inst.max_size(), 3.0);
        assert_eq!(inst.max_bag_size(), 2);
        assert_eq!(inst.num_jobs(), 3);
        assert_eq!(inst.num_machines(), 2);
    }

    #[test]
    fn scaled_multiplies_sizes() {
        let inst = Instance::new(&[(1.0, 0), (2.0, 1)], 2).scaled(0.5);
        assert_eq!(inst.size(JobId(0)), 0.5);
        assert_eq!(inst.size(JobId(1)), 1.0);
    }

    #[test]
    fn with_machines_keeps_jobs() {
        let inst = Instance::new(&[(1.0, 0)], 2).with_machines(5);
        assert_eq!(inst.num_machines(), 5);
        assert_eq!(inst.num_jobs(), 1);
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(3).build();
        assert_eq!(inst.num_jobs(), 0);
        assert_eq!(inst.max_size(), 0.0);
        assert_eq!(inst.max_bag_size(), 0);
    }
}
