//! Per-operation records and the order statistics the metrics use.

use bagsched::types::{validate_schedule, CacheTag, Instance, Schedule};

use crate::reference;

/// One completed solve operation, as the caller saw it.
#[derive(Debug, Clone)]
pub struct Op {
    /// How the solver-state cache served it.
    pub tag: CacheTag,
    /// Caller-observed latency, milliseconds.
    pub latency_ms: f64,
    /// Latency the solver itself reported (`elapsed_us` on the wire,
    /// `report.elapsed` in process), milliseconds.
    pub solver_ms: f64,
    /// Returned makespan over the instance's combined lower bound.
    pub ratio: f64,
    /// Why the operation failed, if it did.
    pub failure: Option<Failure>,
    /// The workload cell it belongs to; the daemon stream is one cell.
    pub cell: usize,
    /// The reference kernel's time around it, ms (see `reference`); NaN
    /// where the run does not time the kernel.
    pub ref_ms: f64,
}

impl Op {
    /// An operation that got an error instead of a schedule.
    pub fn error(error: String, latency_ms: f64, cell: usize) -> Op {
        Op {
            tag: CacheTag::Miss,
            latency_ms,
            solver_ms: latency_ms,
            ratio: f64::NAN,
            failure: Some(Failure::Error(error)),
            cell,
            ref_ms: f64::NAN,
        }
    }

    /// Caller-observed latency at the reference kernel's nominal speed, ms.
    pub fn scaled_ms(&self) -> f64 {
        reference::scaled(self.latency_ms, self.ref_ms)
    }
}

/// Set each operation's `ref_ms` from the kernel time taken after it and
/// those of its neighbours in run order.
pub fn smooth_reference(ops: &mut [Op]) {
    let mut kernel: Vec<f64> = ops.iter().map(|op| op.ref_ms).collect();
    reference::smooth(&mut kernel);
    for (op, k) in ops.iter_mut().zip(kernel) {
        op.ref_ms = k;
    }
}

/// The ways an operation counts as failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// An error reply, `ok: false`, or a transport error.
    Error(String),
    /// `validate_schedule` rejected the returned schedule.
    InvalidSchedule(String),
    /// The reported makespan differs from the recomputed one.
    MakespanMismatch,
    /// The solver returned its LPT fallback (every guess failed).
    LptFallback,
}

impl Failure {
    pub fn describe(&self) -> String {
        match self {
            Failure::Error(e) => format!("error: {e}"),
            Failure::InvalidSchedule(e) => format!("invalid schedule: {e}"),
            Failure::MakespanMismatch => "makespan differs from the recomputed one".into(),
            Failure::LptFallback => "LPT fallback".into(),
        }
    }
}

/// Validate `schedule` against `inst` and its reported `makespan`.
pub fn check_schedule(inst: &Instance, schedule: &Schedule, makespan: f64) -> Option<Failure> {
    if let Err(e) = validate_schedule(inst, schedule) {
        return Some(Failure::InvalidSchedule(e.to_string()));
    }
    let recomputed = schedule.makespan(inst);
    if (recomputed - makespan).abs() > 1e-9 * recomputed.abs().max(1.0) {
        return Some(Failure::MakespanMismatch);
    }
    None
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The percentile `value` sits at (100 for the maximum).
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub count: usize,
}

/// The sample with ten samples above it; the maximum when there are
/// fewer than eleven samples, so a short run still reports its worst
/// case.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail { value: f64::NAN, percentile: 100.0, count: 0 };
    }
    if n < 11 {
        return Tail { value: v[n - 1], percentile: 100.0, count: n };
    }
    Tail { value: v[n - 11], percentile: 100.0 * (n - 10) as f64 / n as f64, count: n }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Latencies of the operations with `tag`, by `pick`.
pub fn by_tag(ops: &[Op], tag: CacheTag, pick: impl Fn(&Op) -> f64) -> Vec<f64> {
    ops.iter().filter(|op| op.tag == tag && op.failure.is_none()).map(pick).collect()
}

/// `by_tag`, split by cell: entry `c` holds cell `c`'s values.
pub fn by_cell(
    ops: &[Op],
    cells: usize,
    tag: CacheTag,
    pick: impl Fn(&Op) -> f64,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); cells];
    for op in ops.iter().filter(|op| op.tag == tag && op.failure.is_none()) {
        out[op.cell].push(pick(op));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 3.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
