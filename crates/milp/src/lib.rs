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
//!   integrality, linear constraints, minimization objective) that keeps
//!   its matrix once, as sparse columns: a constraint is a relation and a
//!   right-hand side, and [`Model::add_column`] is how column generation
//!   grows a model,
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
//!   starts, and an optional in-tree pricing hook ([`TreePricer`]).
//!
//! The solver is exact up to floating-point tolerance ([`TOL`]); budgets
//! are explicit and exhausting one is reported, never silent.

pub mod branch;
pub mod dual;
pub(crate) mod factor;
pub mod model;
pub mod simplex;

pub use branch::{
    solve_milp, solve_milp_with, CancelProbe, MilpOptions, MilpResult, MilpStatus, TreePricer,
};
pub use dual::DualOutcome;
pub use model::{LpResult, LpStatus, Model, Relation, VarId};
pub use simplex::{purge_columns, Basis, WarmState};

/// Numerical tolerance used for reduced costs, pivots, integrality and
/// constraint satisfaction throughout the solver.
pub const TOL: f64 = 1e-7;

#[cfg(test)]
mod presolve {
    //! Models a root presolve settles before the first LP: crossing
    //! singleton rows, a row no point within the bounds reaches, an
    //! integer variable whose bounds hold no integer, and an integer bound
    //! that a row caps at a fraction. The crate has no presolve; branch and
    //! bound must settle each on the model as given.

    mod tests {
        use crate::{solve_milp, MilpOptions, MilpStatus, Model, Relation::*};

        fn status(m: &Model) -> MilpStatus {
            solve_milp(m, &MilpOptions::default()).status
        }

        #[test]
        fn crossing_singletons_infeasible() {
            let mut m = Model::new();
            let x = m.add_var(0.0, 0.0, f64::INFINITY);
            m.add_con(&[(x, 1.0)], Le, 1.0);
            m.add_con(&[(x, 1.0)], Ge, 2.0);
            assert_eq!(status(&m), MilpStatus::Infeasible);
        }

        #[test]
        fn impossible_activity_infeasible() {
            let mut m = Model::new();
            let x = m.add_var(0.0, 0.0, 1.0);
            let y = m.add_var(0.0, 0.0, 1.0);
            m.add_con(&[(x, 1.0), (y, 1.0)], Ge, 3.0); // max activity 2 < 3
            assert_eq!(status(&m), MilpStatus::Infeasible);
        }

        #[test]
        fn integer_gap_detected() {
            let mut m = Model::new();
            m.add_int_var(0.0, 0.4, 0.6); // no integer in [0.4, 0.6]
            assert_eq!(status(&m), MilpStatus::Infeasible);
        }

        /// `2x <= 5` caps an integer `x` at 2 from above (max x) and
        /// `2x >= 3` at 2 from below (min x).
        #[test]
        fn integer_bounds_rounded() {
            for (cost, rel, rhs) in [(-1.0, Le, 5.0), (1.0, Ge, 3.0)] {
                let mut m = Model::new();
                let x = m.add_int_var(cost, 0.0, f64::INFINITY);
                m.add_con(&[(x, 2.0)], rel, rhs);
                let r = solve_milp(&m, &MilpOptions::default());
                assert_eq!(r.status, MilpStatus::Optimal);
                assert_eq!(r.x[x.0], 2.0, "{rel:?} {rhs}");
            }
        }
    }
}
