//! # The EPTAS for machine scheduling with bag-constraints
//!
//! A faithful implementation of Grage, Jansen & Klein (SPAA 2019,
//! arXiv:1810.07510): a `(1 + eps)`-approximation for makespan
//! minimization on identical machines where the jobs are partitioned into
//! *bags* and no machine may run two jobs of the same bag — in time
//! `f(1/eps) * poly(n)`.
//!
//! ## Pipeline (one makespan guess `T0`, driven by binary search)
//!
//! 1. [`rounding`] — scale so `T0 = 1`, round processing times up to
//!    powers of `(1 + eps)` (optimum becomes `<= 1 + eps`).
//! 2. [`classify`] — Lemma 1: choose the size band `[eps^{k+1}, eps^k)`
//!    with negligible mass; jobs split into large / medium / small.
//! 3. [`priority`] — Definitions 1–2: the constant-many *priority bags*
//!    whose bag-constraints the MILP honours exactly.
//! 4. [`transform`] — §2.2: split every non-priority bag into a small-job
//!    side (padded with *filler jobs*) and a large-job side; set aside its
//!    medium jobs (optimum grows to `T = 1 + 2eps + eps^2`, Lemma 2).
//! 5. [`pattern`] + [`pricing`] — Definition 3: machine patterns of
//!    large/medium slots, generated lazily by column-generation pricing
//!    against the master-LP duals; eager enumeration is the tests'
//!    cross-validation oracle and takes no part in a solve.
//! 6. [`milp_model`] — the configuration MILP (constraints (1)–(5)) with
//!    integral pattern counts over the generated pool, solved by
//!    `bagsched-milp`.
//! 7. [`assign_large`] + [`swap_repair`] — Lemma 7: place large/medium
//!    jobs into slots; repair non-priority conflicts by size-preserving
//!    swaps.
//! 8. [`small`] — §4: priority-bag small jobs per pattern group
//!    (fractional merge of Corollary 1, bag-LPT, slot rounding of
//!    Lemma 10, origin-chain conflict repair of Lemma 11); non-priority
//!    small jobs by group-bag-LPT (Lemma 9).
//! 9. [`medium_flow`] — Lemma 3: reinsert the set-aside medium jobs via
//!    an integral max-flow.
//! 10. [`undo`] — Lemma 4: merge bag pairs back, swap conflicting real
//!     small jobs with filler jobs, drop fillers.
//!
//! The top-level driver wraps the pipeline in the dual-approximation
//! binary search and guarantees the returned schedule is feasible (a
//! final safety net repairs anything the paper path left behind —
//! [`report::EptasReport::safety_net_moves`] counts how often that was
//! needed; tests pin it to zero on the paper path).
//!
//! The public entry point is the session-oriented [`Solver`]: it owns
//! the configuration and, optionally, a bounded cache of per-shape
//! [`SolverState`] handles. A structurally identical request replays
//! the cached state: it validates the symbol table and re-runs placement
//! on the cached pattern solution, skipping the guess search, pricing and
//! the MILP.

pub mod assign_large;
pub mod classes;
pub mod classify;
pub mod config;
pub mod declass;
pub mod driver;
pub mod medium_flow;
pub mod milp_model;
pub mod par;
pub mod pattern;
pub mod pricing;
pub mod priority;
pub mod report;
pub mod rounding;
pub mod small;
pub mod solver;
pub mod swap_repair;
pub mod transform;
pub mod undo;

/// Observability primitives (re-exported from `bagsched_types::obs` so
/// the substrate crates can share them): install a
/// [`Recorder`](obs::Recorder) around a solve to collect phase spans,
/// an aggregated [`PhaseProfile`](obs::PhaseProfile) and a Chrome
/// trace. With no recorder installed the instrumentation is inert.
pub use bagsched_types::obs;

pub use config::EptasConfig;
pub use driver::{EptasError, EptasResult};
pub use milp_model::{PatternSolution, PatternSolve};
pub use report::{EptasReport, Stats};
pub use solver::{CacheCounters, Solver, SolverState};
