//! Modelling layer: variables, bounds, integrality, linear constraints.
//!
//! The matrix is kept once, column-major: each variable owns its sparse
//! column, and a constraint is a relation and a right-hand side. Rows can
//! be declared empty and filled by [`Model::add_column`], which is how
//! column generation builds its models.
//!
//! All problems are *minimization*; maximize by negating the objective.
//! Variable lower bounds must be finite (the schedulers only ever need
//! `x >= 0`); upper bounds may be `f64::INFINITY`.

use crate::simplex;
use crate::TOL;

/// Index of a variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub usize);

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `<= rhs`
    Le,
    /// `== rhs`
    Eq,
    /// `>= rhs`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub obj: f64,
    pub lb: f64,
    pub ub: f64,
    pub integer: bool,
    /// The variable's column: `(constraint index, coefficient)`, in the
    /// order the entries were added, duplicates of one constraint summed
    /// and zeros dropped.
    pub col: Vec<(usize, f64)>,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub rel: Relation,
    pub rhs: f64,
}

/// A linear (mixed-integer) minimization problem, stored column-major
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) cons: Vec<Constraint>,
    /// Pivots between basis refactorizations in the revised simplex.
    pub(crate) refactor_interval: usize,
}

impl Default for Model {
    fn default() -> Self {
        Model { vars: Vec::new(), cons: Vec::new(), refactor_interval: 32 }
    }
}

/// Outcome status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints are infeasible.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration budget was exhausted before convergence.
    IterLimit,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpResult {
    pub status: LpStatus,
    /// Variable values (original variable space); empty unless `Optimal`.
    pub x: Vec<f64>,
    /// Objective value; meaningful only when `Optimal`.
    pub objective: f64,
    /// Simplex iterations spent (both phases).
    pub iterations: usize,
    /// Dual value (simplex multiplier) per model constraint, in
    /// constraint order; empty unless `Optimal`. The reduced cost of any
    /// column `a` with cost `c` is `c - sum_i duals[i] * a[i]` — the
    /// quantity a column-generation pricing oracle minimizes. Duals of
    /// variable-bound rows are internal and not reported.
    pub duals: Vec<f64>,
    /// Basis refactorizations performed during this solve.
    pub refactorizations: usize,
    /// Eta updates (factorized pivots) appended during this solve.
    pub eta_updates: usize,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Add a continuous variable with objective coefficient `obj` and
    /// bounds `[lb, ub]` (`ub` may be infinite; `lb` must be finite).
    pub fn add_var(&mut self, obj: f64, lb: f64, ub: f64) -> VarId {
        assert!(lb.is_finite(), "lower bounds must be finite");
        assert!(!ub.is_nan() && ub >= lb - TOL, "need lb <= ub, got [{lb}, {ub}]");
        self.vars.push(VarDef { obj, lb, ub, integer: false, col: Vec::new() });
        VarId(self.vars.len() - 1)
    }

    /// Add an integer variable with objective coefficient `obj` and bounds
    /// `[lb, ub]`.
    pub fn add_int_var(&mut self, obj: f64, lb: f64, ub: f64) -> VarId {
        let v = self.add_var(obj, lb, ub);
        self.vars[v.0].integer = true;
        v
    }

    /// Mark an existing variable integer.
    pub fn set_integer(&mut self, v: VarId, integer: bool) {
        self.vars[v.0].integer = integer;
    }

    /// Tighten (replace) the bounds of a variable.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        assert!(lb.is_finite(), "lower bounds must be finite");
        self.vars[v.0].lb = lb;
        self.vars[v.0].ub = ub;
    }

    /// Current bounds of a variable.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.0].lb, self.vars[v.0].ub)
    }

    /// Whether a variable is integer-constrained.
    pub fn is_integer(&self, v: VarId) -> bool {
        self.vars[v.0].integer
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Add the constraint `sum(coeff * var) rel rhs`. Duplicate variable
    /// mentions are summed; zero coefficients are dropped.
    pub fn add_con(&mut self, terms: &[(VarId, f64)], rel: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let row = self.cons.len();
        for &(v, c) in terms {
            assert!(v.0 < self.vars.len(), "variable out of range");
            assert!(c.is_finite(), "coefficients must be finite");
            let col = &mut self.vars[v.0].col;
            match col.last_mut() {
                Some((r, acc)) if *r == row => *acc += c,
                _ => col.push((row, c)),
            }
        }
        for &(v, _) in terms {
            let col = &mut self.vars[v.0].col;
            if col.last().is_some_and(|&(r, c)| r == row && c == 0.0) {
                col.pop();
            }
        }
        self.cons.push(Constraint { rel, rhs });
    }

    /// Append a variable (column) with objective `obj`, bounds
    /// `[lb, ub]`, and coefficients into *existing* constraints, given as
    /// `(constraint index, coefficient)` pairs; zero coefficients are
    /// dropped. This is the incremental interface column generation
    /// needs: the model — the simplex input — is extended in place
    /// instead of being rebuilt per column.
    pub fn add_column(&mut self, obj: f64, lb: f64, ub: f64, coeffs: &[(usize, f64)]) -> VarId {
        let v = self.add_var(obj, lb, ub);
        for &(r, c) in coeffs {
            assert!(r < self.cons.len(), "constraint index {r} out of range");
            assert!(c.is_finite(), "coefficients must be finite");
        }
        self.vars[v.0].col = coeffs.iter().copied().filter(|&(_, c)| c != 0.0).collect();
        v
    }

    /// Set the number of pivots between basis refactorizations in the
    /// revised simplex (default 32). Smaller keeps the eta file shorter
    /// (cheaper FTRAN/BTRAN) at the cost of more rebuilds.
    pub fn set_refactor_interval(&mut self, interval: usize) {
        self.refactor_interval = interval.max(1);
    }

    /// Change the objective coefficient of a variable (the pricing loop
    /// switches between a feasibility and an optimality objective).
    pub fn set_obj(&mut self, v: VarId, obj: f64) {
        self.vars[v.0].obj = obj;
    }

    /// Evaluate the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Check whether `x` satisfies every constraint and bound up to `tol`.
    pub fn is_feasible_point(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        let mut lhs = vec![0.0; self.cons.len()];
        for (v, &xi) in self.vars.iter().zip(x) {
            if xi < v.lb - tol || xi > v.ub + tol {
                return false;
            }
            for &(r, c) in &v.col {
                lhs[r] += c * xi;
            }
        }
        self.cons.iter().zip(&lhs).all(|(con, &lhs)| match con.rel {
            Relation::Le => lhs <= con.rhs + tol,
            Relation::Ge => lhs >= con.rhs - tol,
            Relation::Eq => (lhs - con.rhs).abs() <= tol,
        })
    }

    /// Solve the LP relaxation (integrality ignored) with the default
    /// iteration budget.
    pub fn solve_lp(&self) -> LpResult {
        simplex::solve(self, simplex::default_iter_limit(self))
    }

    /// Solve the LP relaxation with the default iteration budget, reusing
    /// (and refreshing) a warm-start state across solves through
    /// [`simplex::solve_warm`]. With `Some` state from a previous optimal
    /// solve of this model — possibly extended by [`Model::add_column`],
    /// re-weighted by [`Model::set_obj`] and/or re-bounded by
    /// [`Model::set_bounds`] since — the re-solve continues from the
    /// previous basis and skips phase 1 entirely. Returns the result and
    /// whether the warm path was taken; the state is kept only when the
    /// solve reached optimality.
    pub fn solve_lp_with(&self, warm: &mut Option<simplex::WarmState>) -> (LpResult, bool) {
        let (res, dual_pivots) = simplex::solve_warm(self, simplex::default_iter_limit(self), warm);
        (res, dual_pivots.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        let y = m.add_int_var(2.0, 0.0, 5.0);
        assert_eq!(m.num_vars(), 2);
        assert!(!m.is_integer(x));
        assert!(m.is_integer(y));
        m.add_con(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        assert_eq!(m.num_cons(), 1);
        assert_eq!(m.objective_value(&[1.0, 1.5]), 4.0);
    }

    #[test]
    fn coalesces_duplicate_terms() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 0.0, 1.0);
        m.add_con(&[(x, 1.0), (x, 2.0)], Relation::Le, 2.0);
        assert_eq!(m.vars[0].col, vec![(0, 3.0)]);
    }

    #[test]
    fn drops_zero_coefficients() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 0.0, 1.0);
        let y = m.add_var(0.0, 0.0, 1.0);
        m.add_con(&[(x, 0.0), (y, 1.0)], Relation::Ge, 0.5);
        m.add_con(&[(y, 2.0), (x, 1.0), (y, -2.0)], Relation::Ge, 0.5);
        assert_eq!(m.vars[0].col, vec![(1, 1.0)]);
        assert_eq!(m.vars[1].col, vec![(0, 1.0)]);
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 0.0, 2.0);
        let y = m.add_var(0.0, 1.0, 3.0);
        m.add_con(&[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        assert!(m.is_feasible_point(&[1.0, 2.0], 1e-9));
        assert!(!m.is_feasible_point(&[0.0, 0.5], 1e-9)); // y below lb
        assert!(!m.is_feasible_point(&[2.0, 2.0], 1e-9)); // eq violated
        assert!(!m.is_feasible_point(&[1.0], 1e-9)); // wrong len
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_lb() {
        let mut m = Model::new();
        m.add_var(0.0, f64::NEG_INFINITY, 0.0);
    }

    #[test]
    fn add_column_matches_monolithic_model() {
        // Build max 3x + 5y (see simplex tests) once directly and once by
        // starting from the constraints and appending the columns: both
        // must solve to the same optimum.
        let mut whole = Model::new();
        let x = whole.add_var(-3.0, 0.0, f64::INFINITY);
        let y = whole.add_var(-5.0, 0.0, f64::INFINITY);
        whole.add_con(&[(x, 1.0)], Relation::Le, 4.0);
        whole.add_con(&[(y, 2.0)], Relation::Le, 12.0);
        whole.add_con(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);

        let mut inc = Model::new();
        inc.add_con(&[], Relation::Le, 4.0);
        inc.add_con(&[], Relation::Le, 12.0);
        inc.add_con(&[], Relation::Le, 18.0);
        inc.add_column(-3.0, 0.0, f64::INFINITY, &[(0, 1.0), (2, 3.0)]);
        inc.add_column(-5.0, 0.0, f64::INFINITY, &[(1, 2.0), (2, 2.0)]);

        let a = whole.solve_lp();
        let b = inc.solve_lp();
        assert_eq!(a.status, b.status);
        assert!((a.objective - b.objective).abs() < 1e-9);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn add_column_drops_zero_coefficients() {
        let mut m = Model::new();
        m.add_con(&[], Relation::Ge, 1.0);
        m.add_con(&[], Relation::Ge, 2.0);
        let v = m.add_column(0.0, 0.0, 5.0, &[(0, 0.0), (1, 4.0)]);
        assert_eq!(m.vars[v.0].col, vec![(1, 4.0)]);
    }

    #[test]
    fn set_obj_changes_the_optimum() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, 3.0);
        assert!((m.solve_lp().x[0]).abs() < 1e-9);
        m.set_obj(x, -1.0);
        assert!((m.solve_lp().x[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_column_rejects_bad_constraint_index() {
        let mut m = Model::new();
        m.add_column(0.0, 0.0, 1.0, &[(0, 1.0)]);
    }
}
