//! Scheduling-as-a-service for `bagsched`.
//!
//! A persistent daemon ([`server::serve`], shipped as the
//! `bagsched-server` binary) keeps a [`bagsched_core::Solver`] — and,
//! crucially, its solver-state cache — resident across requests:
//! repeat traffic replays the cached winning guess and its pattern
//! solution instead of re-running guess search, column-generation
//! pricing and the MILP, which is where the one-shot CLI spends almost
//! all of its time.
//!
//! * [`protocol`] — the length-prefixed JSON wire format (hostile-input
//!   safe) and a blocking [`protocol::Client`].
//! * [`server`] — the daemon: acceptor + worker pool over one shared
//!   cached solver.
//! * [`load`] — the `bagsched-bencher` load generator: closed/open
//!   loop, configurable hot/cold workload mix, hit/miss-split latency
//!   percentiles, JSON reports with baseline comparison.
//! * [`metrics`] — daemon observability: per-op latency histograms
//!   (p50/p99/p999), an inflight gauge, and a slow-request ring with
//!   per-phase profiles, all served by the `stats` op.

pub mod load;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use load::{LoadConfig, LoadReport};
pub use protocol::{Client, OpLatency, Request, SlowRequest, StatsReply, MAX_FRAME};
pub use server::{serve, ServerConfig, ServerHandle};
