//! Daemon-side request metrics: per-op latency histograms, an
//! inflight gauge, and a slow-request ring buffer.
//!
//! Everything here is observational — nothing feeds back into solving,
//! so the daemon's answers are byte-identical with metrics on or off.
//! Latencies go into the shared log2-bucketed
//! [`Histogram`] (O(1) record, fixed
//! footprint), one per op, guarded by uncontended mutexes: a worker
//! only touches them once per request, after the reply is built.
//!
//! The slow-request ring keeps the last [`SLOW_RING_CAPACITY`] solves
//! whose latency crossed the configured threshold, each with the
//! per-phase [`PhaseProfile`] captured by the per-request recorder —
//! enough to answer "*why* was that one slow" from the `stats` op
//! without a debugger attached. A threshold of zero disables the ring
//! *and* the per-request recorder, restoring the pre-observability
//! fast path.

use crate::protocol::{OpLatency, SlowPhase, SlowRequest};
use bagsched_types::obs::{Histogram, PhaseProfile};
use bagsched_types::CacheTag;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How many slow requests the ring remembers (oldest evicted first).
pub const SLOW_RING_CAPACITY: usize = 16;

/// The ops the daemon tracks latency for, one histogram each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The `solve` op (the workhorse).
    Solve,
    /// The `stats` op.
    Stats,
    /// The `ping` op.
    Ping,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Solve => "solve",
            Op::Stats => "stats",
            Op::Ping => "ping",
        }
    }
}

/// One over-threshold solve, as held in the ring.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowEntry {
    /// The request id the client sent.
    pub id: u64,
    /// Server-side latency, microseconds.
    pub micros: u64,
    /// How the solver-state cache treated the request.
    pub cache: CacheTag,
    /// Phase profile of the solve (empty when no spans fired).
    pub profile: PhaseProfile,
}

/// Shared metrics state, one per daemon.
pub struct Metrics {
    start: Instant,
    /// Latency threshold (µs) above which a solve enters the slow
    /// ring; `0` disables the ring and per-request profiling.
    pub slow_threshold_us: u64,
    histograms: [Mutex<Histogram>; 3],
    inflight: AtomicI64,
    solver_panics: AtomicU64,
    slow: Mutex<VecDeque<SlowEntry>>,
}

impl Metrics {
    /// Fresh metrics; `slow_threshold_us == 0` disables the slow ring.
    pub fn new(slow_threshold_us: u64) -> Metrics {
        Metrics {
            start: Instant::now(),
            slow_threshold_us,
            histograms: [
                Mutex::new(Histogram::new()),
                Mutex::new(Histogram::new()),
                Mutex::new(Histogram::new()),
            ],
            inflight: AtomicI64::new(0),
            solver_panics: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_RING_CAPACITY)),
        }
    }

    /// Seconds since the daemon started.
    pub fn uptime_secs(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Whether per-request phase profiling (for the slow ring) is on.
    pub fn profiling(&self) -> bool {
        self.slow_threshold_us > 0
    }

    /// Mark a solve as started; the returned guard decrements the
    /// gauge on drop (any exit path, including panics unwinding).
    pub fn enter(&self) -> InflightGuard<'_> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { metrics: self }
    }

    /// Solves currently being worked on.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed).max(0) as u64
    }

    /// Count one solve that panicked (and was answered with an error).
    pub fn count_solver_panic(&self) {
        self.solver_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Solves that panicked since the daemon started.
    pub fn solver_panics(&self) -> u64 {
        self.solver_panics.load(Ordering::Relaxed)
    }

    /// Record one request's latency under its op.
    pub fn record(&self, op: Op, micros: u64) {
        self.histograms[op as usize].lock().expect("histogram poisoned").record(micros);
    }

    /// Offer a solve to the slow ring; kept only when at or over the
    /// threshold (and the ring is enabled).
    pub fn offer_slow(&self, entry: SlowEntry) {
        if self.slow_threshold_us == 0 || entry.micros < self.slow_threshold_us {
            return;
        }
        let mut ring = self.slow.lock().expect("slow ring poisoned");
        if ring.len() == SLOW_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Per-op latency summaries for the `stats` reply, ops with no
    /// traffic omitted.
    pub fn op_latencies(&self) -> Vec<OpLatency> {
        [Op::Solve, Op::Stats, Op::Ping]
            .into_iter()
            .filter_map(|op| {
                let h = self.histograms[op as usize].lock().expect("histogram poisoned");
                if h.count() == 0 {
                    return None;
                }
                let (p50, p99, p999) = h.percentiles();
                Some(OpLatency {
                    op: op.name().into(),
                    count: h.count(),
                    p50_us: p50,
                    p99_us: p99,
                    p999_us: p999,
                    max_us: h.max(),
                })
            })
            .collect()
    }

    /// The slow ring as wire rows, oldest first.
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.slow
            .lock()
            .expect("slow ring poisoned")
            .iter()
            .map(|e| SlowRequest {
                id: e.id,
                micros: e.micros,
                cache: e.cache,
                phases: e
                    .profile
                    .phases
                    .iter()
                    .map(|p| SlowPhase {
                        name: p.name.clone(),
                        count: p.count,
                        total_us: p.total_ns / 1_000,
                    })
                    .collect(),
            })
            .collect()
    }
}

/// RAII decrement for the inflight gauge.
pub struct InflightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_gauge_tracks_guards() {
        let m = Metrics::new(1_000);
        assert_eq!(m.inflight(), 0);
        let a = m.enter();
        let b = m.enter();
        assert_eq!(m.inflight(), 2);
        drop(a);
        assert_eq!(m.inflight(), 1);
        drop(b);
        assert_eq!(m.inflight(), 0);
    }

    #[test]
    fn op_latencies_skip_untouched_ops() {
        let m = Metrics::new(0);
        m.record(Op::Solve, 100);
        m.record(Op::Solve, 200);
        let ops = m.op_latencies();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].op, "solve");
        assert_eq!(ops[0].count, 2);
        assert_eq!(ops[0].max_us, 200);
        assert!(ops[0].p50_us >= 100 && ops[0].p999_us <= 200);
    }

    #[test]
    fn slow_ring_thresholds_and_caps() {
        let m = Metrics::new(500);
        let entry = |id, micros| SlowEntry {
            id,
            micros,
            cache: CacheTag::Miss,
            profile: PhaseProfile::default(),
        };
        m.offer_slow(entry(1, 499)); // below threshold: dropped
        for i in 0..(SLOW_RING_CAPACITY as u64 + 4) {
            m.offer_slow(entry(100 + i, 500 + i));
        }
        let slow = m.slow_requests();
        assert_eq!(slow.len(), SLOW_RING_CAPACITY, "ring caps at K");
        // Oldest evicted: the survivors are the last K offered.
        assert_eq!(slow[0].id, 100 + 4);
        assert_eq!(slow.last().unwrap().id, 100 + SLOW_RING_CAPACITY as u64 + 3);

        // Threshold zero disables the ring outright.
        let off = Metrics::new(0);
        off.offer_slow(entry(7, u64::MAX));
        assert!(off.slow_requests().is_empty());
        assert!(!off.profiling());
    }
}
