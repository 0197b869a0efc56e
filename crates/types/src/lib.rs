//! Core data model for machine scheduling with bag-constraints.
//!
//! The problem (Das & Wiese, ESA 2017; Grage, Jansen & Klein, SPAA 2019):
//! `n` jobs with processing times `p_j > 0` must be assigned to `m`
//! identical machines. The job set is partitioned into *bags*
//! `B_1, ..., B_b`; a schedule is feasible only if every machine runs **at
//! most one job from each bag**. The objective is to minimize the makespan
//! (the maximum machine load).
//!
//! This crate provides:
//!
//! * [`Instance`] / [`Job`] / [`Schedule`] — the shared problem and
//!   solution model, with O(1) structural queries (bag membership, loads),
//! * [`validate`] — feasibility checking shared by every algorithm and by
//!   the test suites,
//! * [`lowerbound`] — certified makespan lower bounds used to measure
//!   approximation ratios where the exact optimum is out of reach,
//! * [`lpt`] — the LPT job order and the conflict-aware LPT schedule (the
//!   EPTAS's upper bound and a baseline),
//! * [`gen`] — the synthetic workload families used by the experiment
//!   harness (the paper has no testbed),
//! * [`io`] — JSON (de)serialization of instances and schedules,
//! * [`wire`] — solve request/response wire types and the rounded-shape
//!   instance fingerprint used as the server's solver-state cache key,
//! * [`obs`] — observability primitives (phase spans, phase profiles,
//!   latency histograms, Chrome-trace export) shared by the solver
//!   crates, the bench harness and the daemon.

pub mod gen;
pub mod instance;
pub mod io;
pub mod lowerbound;
pub mod lpt;
pub mod obs;
pub mod schedule;
pub mod validate;
pub mod wire;

pub use instance::{BagId, Instance, InstanceBuilder, Job, JobId};
pub use schedule::{MachineId, Schedule};
pub use validate::{validate_instance, validate_schedule, InstanceError, ScheduleError};
pub use wire::{coarse_fingerprint, fingerprint, CacheTag, SolveRequest, SolveResponse};

/// Absolute tolerance for floating point comparisons of processing times
/// and loads throughout the workspace.
pub const EPS: f64 = 1e-9;

/// `a <= b` up to [`EPS`].
#[inline]
pub fn le(a: f64, b: f64) -> bool {
    a <= b + EPS
}

/// `a >= b` up to [`EPS`].
#[inline]
pub fn ge(a: f64, b: f64) -> bool {
    a + EPS >= b
}

/// `a == b` up to [`EPS`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_helpers() {
        assert!(le(1.0, 1.0));
        assert!(le(1.0 + EPS / 2.0, 1.0));
        assert!(!le(1.0 + 1e-6, 1.0));
        assert!(ge(1.0, 1.0));
        assert!(ge(1.0 - EPS / 2.0, 1.0));
        assert!(!ge(1.0 - 1e-6, 1.0));
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(!approx_eq(0.1, 0.2));
    }
}
