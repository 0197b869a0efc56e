//! # bagsched — machine scheduling with bag-constraints
//!
//! A complete Rust reproduction of *"An EPTAS for machine scheduling with
//! bag-constraints"* (Kilian Grage, Klaus Jansen, Kim-Manuel Klein; SPAA
//! 2019, arXiv:1810.07510).
//!
//! The problem: schedule `n` jobs on `m` identical machines minimizing the
//! makespan, where the jobs are partitioned into *bags* and each machine
//! may run **at most one job per bag** (anti-affinity constraints, as used
//! for fault tolerance in distributed systems).
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`types`] — instances, schedules, validation, lower bounds, workload
//!   generators,
//! * [`eptas`] — the paper's EPTAS (`(1+eps)`-approximation in
//!   `f(1/eps)*poly(n)` time),
//! * [`baselines`] — LPT variants, fits, an exact branch-and-bound solver
//!   and a Das–Wiese-style configuration PTAS baseline,
//! * [`milp`] — the two-phase simplex + branch-and-bound MILP substrate,
//! * [`flow`] — the Dinic max-flow substrate.
//!
//! ## Quickstart
//!
//! ```
//! use bagsched::types::gen;
//! use bagsched::eptas::{EptasConfig, Solver};
//!
//! let inst = gen::uniform(40, 4, 12, 7);
//! let solver = Solver::new(EptasConfig::with_epsilon(0.5));
//! let result = solver.solve_instance(&inst).unwrap();
//! assert!(result.schedule.is_feasible(&inst));
//! ```
//!
//! A [`Solver`](eptas::Solver) is a session: built with
//! [`Solver::with_cache`](eptas::Solver::with_cache) it remembers the
//! winning guess and its pattern solution per instance *shape*; a repeat
//! solve validates the symbol table and re-runs placement on the cached
//! solution, skipping the guess search, pricing and the MILP.
//! The `bagsched-server` daemon (crate `bagsched-server`) keeps such a
//! solver resident behind a length-prefixed JSON TCP protocol; the
//! `bagsched-bencher` load client measures the cache's effect on tail
//! latency.

pub use bagsched_baselines as baselines;
pub use bagsched_core as eptas;
pub use bagsched_flow as flow;
pub use bagsched_milp as milp;
pub use bagsched_types as types;
