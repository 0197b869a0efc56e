//! LP / MILP substrate for `bagsched`.
//!
//! The EPTAS of Grage, Jansen and Klein reduces large/medium job placement
//! to a mixed-integer linear program over machine *patterns* (paper §3,
//! constraints (1)–(9)) and solves it with Kannan's fixed-dimension integer
//! programming algorithm. Kannan's algorithm is a worst-case device; any
//! exact MILP oracle answers the same feasibility question, so this crate
//! implements the substrate from scratch:
//!
//! * [`Model`] — a small modelling layer (variables with bounds and
//!   integrality, linear constraints, minimization objective) with sparse
//!   column storage,
//! * [`simplex`] — a sparse *revised* two-phase primal simplex: the basis
//!   is held as an eta-file factorization with
//!   product-form (PFI) eta updates per pivot and periodic sparse
//!   refactorization, one warm re-solve path ([`simplex::solve_warm`])
//!   shared by column generation and branch & bound, and physical column
//!   removal ([`purge_columns`]) for master-pool lifecycle management,
//! * [`dual`] — the dual-simplex engine behind every warm re-solve: it
//!   re-optimizes a held basis after variable-bound changes (the
//!   branch-and-bound child-node case), appended columns and objective
//!   edits,
//! * [`branch`] — depth-first branch & bound on the LP relaxation, with
//!   node/iteration budgets, incumbent tracking, parent-basis node warm
//!   starts, and an optional in-tree pricing hook ([`TreePricer`]),
//! * [`presolve`](mod@presolve) — root-node bound tightening and
//!   redundancy elimination (singleton rows, activity analysis).
//!
//! The solver is exact up to floating-point tolerance ([`TOL`]); budgets
//! are explicit and exhausting one is reported, never silent.

pub mod branch;
pub mod dual;
pub(crate) mod factor;
pub mod model;
pub mod presolve;
pub mod simplex;

pub use branch::{
    solve_milp, solve_milp_with, CancelProbe, MilpOptions, MilpResult, MilpStatus, TreePricer,
};
pub use dual::DualOutcome;
pub use model::{LpResult, LpStatus, Model, Relation, VarId};
pub use presolve::{presolve, PresolveStatus};
pub use simplex::{purge_columns, WarmState};

/// Numerical tolerance used for reduced costs, pivots, integrality and
/// constraint satisfaction throughout the solver.
pub const TOL: f64 = 1e-7;
