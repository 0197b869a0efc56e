//! Bounded-variable dual simplex on the factorized basis: re-optimize a
//! warm basis after branching bound changes.
//!
//! A branch-and-bound child differs from its parent by exactly one
//! variable bound. The parent's optimal basis stays *dual* feasible under
//! that change (reduced costs do not involve the right-hand side), so the
//! child LP does not need a cold phase-1/phase-2 solve: translate the
//! bound change into right-hand-side deltas, push them through the
//! basis factorization (`xb = B^-1 b`), and run dual simplex pivots until
//! primal feasibility is restored. Pivot work then scales with how much
//! the bound change actually disturbed the optimum — usually a handful of
//! pivots — instead of with the whole constraint matrix. Without a bound
//! change the same entry is the warm re-solve of a column-generation
//! master: appended columns and objective edits leave the basis primal
//! feasible, and the primal clean-up pass continues phase 2.
//!
//! Representation: the primal engine ([`crate::simplex`]) keeps variable
//! bounds as shifted variables (`x' = x - lb`) plus explicit
//! `x' <= ub - lb` rows. Both kinds of bound change are RHS edits:
//!
//! * raising `lb` by `d` shifts every constraint row's RHS by `-c_j * d`
//!   and the variable's own bound row by `-d`;
//! * lowering `ub` by `d` shifts only the bound row, by `-d`.
//!
//! A variable with no finite upper bound has no bound row — the EPTAS's
//! restricted MILP declares every pattern count `[0, inf)`, and so does
//! the in-tree pricer for each column it appends — so the first
//! down-branch `x <= floor(v)` on it appends one: the row `x' <= ub - lb`
//! goes below the existing rows with its slack basic, which keeps the
//! basis square and dual feasible, and the factorization grows by one
//! exact eta when the variable is basic and by none when it is not
//! (`simplex::append_bound_rows`). If the variable sits above its new
//! bound, that slack is negative and the dual pivots below drive it out
//! like any other infeasible row.
//!
//! The deltas are applied to the stored normalized RHS `b0` and the basic
//! solution is refreshed with one FTRAN. Per dual pivot: the leaving row
//! is the most primal-infeasible basic; one sweep over the eta file
//! computes both its inverse row `rho = B^-T e_r` and the multipliers
//! `y = B^-T c_B`, which price every nonbasic column's pivot element
//! `alpha_j = rho . a_j` and reduced cost in one sparse pass; and the
//! entering column is chosen by a **Harris-style
//! two-pass ratio test**: pass one finds the minimum dual ratio within a
//! small tolerance, pass two picks the numerically largest pivot element
//! among the near-ties. A candidate set whose best pivot element is still
//! tiny means the basis is effectively singular for this change; the
//! engine reports that by returning `None` and the caller falls back to a
//! cold solve. An infeasible row with no eligible entering column is a
//! proof of primal infeasibility (the usual dual-simplex certificate).

use crate::model::{LpResult, LpStatus, Model};
use crate::simplex::{self, Core, WarmState};
use crate::TOL;

/// A row is primal-infeasible when its RHS is below `-FEAS_TOL`.
const FEAS_TOL: f64 = 1e-7;

/// Pivot elements smaller than this are numerically unusable; a dual
/// step forced onto one aborts to the cold path instead of dividing by
/// noise.
const PIV_TOL: f64 = 1e-7;

/// Candidacy threshold for entering columns: coefficients in
/// `(-PIV_TOL, -CAND_TOL]` are considered present (so infeasibility is
/// not declared over roundoff dust) but unusable as pivots.
const CAND_TOL: f64 = 1e-9;

/// Outcome of a warm dual re-optimization.
#[derive(Debug, Clone)]
pub struct DualOutcome {
    /// The re-solve result (`iterations` counts dual pivots *and* the
    /// primal clean-up pivots).
    pub lp: LpResult,
    /// Dual-simplex pivots alone — the work the bound change cost.
    pub dual_pivots: usize,
}

/// Re-optimize `model` from a previous optimal basis after variable-bound
/// changes and/or appended `[0, inf)` columns and objective edits (see
/// the module docs). Callers go through [`simplex::solve_warm`], which
/// adds the cold fallback.
///
/// A first finite upper bound on a variable that had none appends that
/// variable's bound row to `state` (its slack basic) before the dual
/// pivots run, so the state grows by one row per such variable.
///
/// Returns `None` when the change cannot be absorbed: a different
/// constraint count, a bound *relaxation* to infinity, an appended column
/// with non-`[0, inf)` bounds, or a numerically singular dual step.
/// `state` may then be partly updated, so callers must treat `None` as
/// "discard the state and solve cold".
pub fn reoptimize(model: &Model, iter_limit: usize, state: &mut WarmState) -> Option<DualOutcome> {
    if model.cons.len() != state.num_cons {
        return None;
    }
    // Collect bound deltas against the snapshot *before* grafting new
    // columns (grafted columns enter with their model bounds, delta-free).
    let n_old = state.bounds.len();
    if model.num_vars() < n_old {
        return None;
    }
    let mut changed: Vec<(usize, f64, f64)> = Vec::new(); // (var, d_lb, bound-row rhs delta)
    let mut new_rows: Vec<(usize, f64)> = Vec::new(); // (var, bound-row rhs)
    for (j, (v, &(lb_old, ub_old))) in model.vars.iter().zip(&state.bounds).enumerate() {
        if v.lb == lb_old && v.ub == ub_old {
            continue;
        }
        if v.ub < v.lb - TOL {
            // Crossed bounds: trivially infeasible, no pivots needed.
            return Some(DualOutcome {
                lp: simplex::lp_fail(LpStatus::Infeasible, 0),
                dual_pivots: 0,
            });
        }
        let d_lb = v.lb - lb_old;
        let d_range = match (ub_old.is_finite(), v.ub.is_finite()) {
            (true, true) => (v.ub - v.lb) - (ub_old - lb_old),
            (false, false) => 0.0,
            // A first finite ub — the down-branch on a `[0, inf)` column —
            // gets its bound row appended, built at the new range.
            (false, true) => {
                new_rows.push((j, (v.ub - v.lb).max(0.0)));
                0.0
            }
            // Relaxing a finite ub to infinity would need to delete a
            // row. It is not a branching move: cold path.
            (true, false) => return None,
        };
        if ub_old.is_finite() && state.bound_row_of_var.get(j).copied().flatten().is_none() {
            return None;
        }
        changed.push((j, d_lb, d_range));
    }
    // Timed as a node re-optimization when a bound changed, as a warm
    // re-solve (appended columns, objective edits) otherwise.
    let _span = bagsched_types::obs::Span::enter(if changed.is_empty() {
        "milp.simplex.warm"
    } else {
        "milp.dual"
    });

    if !simplex::graft_columns(model, state) {
        return None;
    }
    let (rf0, eu0) = state.counters();
    if !simplex::append_bound_rows(state, &new_rows) {
        return None;
    }

    // ---- Translate bound deltas into RHS deltas on `b0` and refresh
    // the basic solution with one FTRAN. ----
    if !changed.is_empty() {
        for &(j, d_lb, d_range) in &changed {
            if d_lb != 0.0 {
                for &(r, c) in &model.col_terms[j] {
                    state.c.b0[r] -= state.row_sign[r] * c * d_lb;
                }
            }
            if d_range != 0.0 {
                let br = state.bound_row_of_var[j].expect("checked above");
                // Bound rows are built with nonnegative RHS: sign = +1.
                state.c.b0[br] += d_range;
            }
        }
        state.c.xb.copy_from_slice(&state.c.b0);
        state.c.factor.ftran(&mut state.c.xb);
        for &(j, _, _) in &changed {
            state.bounds[j] = (model.vars[j].lb, model.vars[j].ub);
        }
    }

    // Costs are rebuilt from the model each call (objective edits and
    // grafted columns are picked up without dirty-tracking).
    let mut costs = vec![0.0; state.c.ncols()];
    for (col, vo) in state.var_of_col.iter().enumerate() {
        if let Some(v) = *vo {
            costs[col] = model.vars[v].obj;
        }
    }

    // ---- Dual simplex: pivot primal infeasibility away. ----
    let (art_start, art_end) = (state.art_start, state.art_end);
    let allowed = |c: usize| c < art_start || c >= art_end;
    let mut iterations = 0usize;
    let mut dual_pivots = 0usize;
    // Degenerate dual pivots (ratio 0) can cycle like primal ones; after
    // a stall streak switch to a Bland-style rule (smallest-index row and
    // column), which is finite.
    let stall_limit = 10 * state.c.rows + 50;
    let mut stalled = 0usize;
    let mut bland = false;
    let mut last_infeas = f64::INFINITY;
    // Rows whose residual infeasibility is tolerance-dust with no usable
    // entering column: skipped rather than declared infeasible.
    let mut tolerated: Vec<bool> = vec![false; state.c.rows];
    let mut rho: Vec<f64> = Vec::new();
    let mut y: Vec<f64> = Vec::new();
    let mut w: Vec<f64> = Vec::new();
    // (col, |alpha|, ratio) for every usable candidate of the leaving row.
    let mut cands: Vec<(usize, f64, f64)> = Vec::new();
    let fail = |status: LpStatus, iterations: usize, dual_pivots: usize, st: &WarmState| {
        let (rf1, eu1) = st.counters();
        Some(DualOutcome {
            lp: LpResult {
                refactorizations: (rf1 - rf0) as usize,
                eta_updates: (eu1 - eu0) as usize,
                ..simplex::lp_fail(status, iterations)
            },
            dual_pivots,
        })
    };
    loop {
        if iterations >= iter_limit {
            return fail(LpStatus::IterLimit, iterations, dual_pivots, state);
        }
        // Leaving row: most negative RHS (Bland: smallest basis index).
        let mut leave: Option<(f64, usize, usize)> = None; // (key, basis, row)
        for (r, _) in tolerated.iter().enumerate().filter(|&(_, &skip)| !skip) {
            let rhs = state.c.xb[r];
            if rhs < -FEAS_TOL {
                let b = state.c.basis[r];
                let key = if bland { (b as f64, 0, r) } else { (rhs, b, r) };
                match leave {
                    Some((kr, kb, _)) if (kr, kb) <= (key.0, key.1) => {}
                    _ => leave = Some(key),
                }
            }
        }
        let Some((_, _, prow)) = leave else { break };

        // One sweep over the eta file computes both vectors that price
        // the whole row: `alpha_j = rho . a_j` is the pivot element,
        // `costs_j - y . a_j` the reduced cost.
        state.c.btran_unit_and_costs(prow, &mut rho, &costs, &mut y);
        let mut has_candidate = false;
        let mut min_ratio = f64::INFINITY;
        cands.clear();
        for (j, col) in state.c.cols.iter().enumerate() {
            if state.c.in_basis[j] || !allowed(j) {
                continue;
            }
            let alpha = Core::dot(col, &rho);
            if alpha < -CAND_TOL {
                has_candidate = true;
                if alpha <= -PIV_TOL {
                    let rc = costs[j] - Core::dot(col, &y);
                    let ratio = rc.max(0.0) / -alpha;
                    if ratio < min_ratio {
                        min_ratio = ratio;
                    }
                    cands.push((j, -alpha, ratio));
                }
            }
        }
        if !has_candidate {
            if state.c.xb[prow] < -1e-6 {
                // Nonnegative combination of nonnegative variables equals
                // a negative number: primal infeasible, certified.
                return fail(LpStatus::Infeasible, iterations, dual_pivots, state);
            }
            // Dust-sized residual with nothing to pivot on: tolerate.
            tolerated[prow] = true;
            continue;
        }
        if min_ratio.is_infinite() {
            // Candidates exist but every usable pivot element is tiny:
            // numerically singular step; refuse, and `solve_warm` solves
            // the LP cold.
            return None;
        }
        let slack = min_ratio + 1e-9;
        let mut pcol: Option<(f64, usize)> = None; // (|alpha|, col); Bland: smallest col
        for &(j, mag, ratio) in &cands {
            if ratio <= slack {
                if bland {
                    pcol = Some((mag, j));
                    break;
                }
                match pcol {
                    Some((m, _)) if m >= mag => {}
                    _ => pcol = Some((mag, j)),
                }
            }
        }
        let (_, pcol) = pcol.expect("min_ratio finite implies a usable candidate");
        state.c.ftran_col(pcol, &mut w);
        state.c.pivot(prow, pcol, &w);
        iterations += 1;
        dual_pivots += 1;
        // A pivot can re-disturb rows previously written off as dust.
        tolerated.iter_mut().for_each(|v| *v = false);
        let infeas: f64 = state.c.xb.iter().map(|&x| (-x).max(0.0)).sum();
        if infeas < last_infeas - TOL {
            last_infeas = infeas;
            stalled = 0;
            bland = false;
        } else {
            stalled += 1;
            if stalled >= stall_limit {
                bland = true;
            }
        }
    }

    // ---- Primal clean-up: objective edits or grafted columns may have
    // left dual-infeasible (negative reduced cost) columns. ----
    let status = state.c.optimize(&costs, allowed, iter_limit, &mut iterations, &mut y);
    if status != LpStatus::Optimal {
        return fail(status, iterations, dual_pivots, state);
    }
    let (rf1, eu1) = state.counters();
    Some(DualOutcome {
        lp: simplex::extract_optimal(
            model,
            state,
            &y,
            iterations,
            (rf1 - rf0) as usize,
            (eu1 - eu0) as usize,
        ),
        dual_pivots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation::*, VarId};
    use crate::simplex::solve_with_state;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    fn warm_of(m: &Model) -> WarmState {
        let (lp, state) = solve_with_state(m, 10_000);
        assert_eq!(lp.status, LpStatus::Optimal);
        state.expect("optimal solves return a state")
    }

    #[test]
    fn ub_tightening_matches_cold() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; optimum (2, 6).
        // Branch "y <= 4": new optimum x = 10/3, y = 4, z = -30.
        let mut m = Model::new();
        let x = m.add_var(-3.0, 0.0, 10.0);
        let y = m.add_var(-5.0, 0.0, 10.0);
        m.add_con(&[(x, 1.0)], Le, 4.0);
        m.add_con(&[(y, 2.0)], Le, 12.0);
        m.add_con(&[(x, 3.0), (y, 2.0)], Le, 18.0);
        let mut state = warm_of(&m);
        m.set_bounds(y, 0.0, 4.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("bound row exists: warm path");
        assert_eq!(out.lp.status, LpStatus::Optimal);
        let cold = m.solve_lp();
        assert_close(out.lp.objective, cold.objective);
        assert_close(out.lp.x[1], 4.0);
        assert!(out.dual_pivots >= 1, "tightening past the optimum must pivot");
    }

    #[test]
    fn lb_raising_matches_cold() {
        // Same LP; branch "x >= 3": optimum x = 3, y = 4.5, z = -31.5.
        let mut m = Model::new();
        let x = m.add_var(-3.0, 0.0, 10.0);
        let y = m.add_var(-5.0, 0.0, 10.0);
        m.add_con(&[(x, 1.0)], Le, 4.0);
        m.add_con(&[(y, 2.0)], Le, 12.0);
        m.add_con(&[(x, 3.0), (y, 2.0)], Le, 18.0);
        let mut state = warm_of(&m);
        m.set_bounds(x, 3.0, 10.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("warm path");
        assert_eq!(out.lp.status, LpStatus::Optimal);
        let cold = m.solve_lp();
        assert_close(out.lp.objective, cold.objective);
        assert_close(out.lp.x[0], 3.0);
    }

    #[test]
    fn unchanged_bounds_are_a_no_op_resolve() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, 5.0);
        m.add_con(&[(x, 1.0)], Ge, 2.0);
        let mut state = warm_of(&m);
        let out = reoptimize(&m, 10_000, &mut state).expect("no change absorbs trivially");
        assert_eq!(out.lp.status, LpStatus::Optimal);
        assert_close(out.lp.objective, 2.0);
        assert_eq!(out.dual_pivots, 0, "nothing moved, nothing to pivot");
    }

    #[test]
    fn infeasible_branch_detected_without_cold_solve() {
        // x >= 3 against x <= 2 (via constraint): dual simplex must
        // certify infeasibility from the warm basis.
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, 10.0);
        m.add_con(&[(x, 1.0)], Le, 2.0);
        let mut state = warm_of(&m);
        m.set_bounds(x, 3.0, 10.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("warm path");
        assert_eq!(out.lp.status, LpStatus::Infeasible);
    }

    #[test]
    fn crossed_bounds_infeasible_immediately() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, 10.0);
        m.add_con(&[(x, 1.0)], Le, 8.0);
        let mut state = warm_of(&m);
        m.set_bounds(x, 6.0, 2.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("crossed bounds short-circuit");
        assert_eq!(out.lp.status, LpStatus::Infeasible);
        assert_eq!(out.dual_pivots, 0);
    }

    #[test]
    fn newly_finite_ub_absorbed() {
        // x is basic at 9 and never had a bound row: the engine appends
        // one (its slack basic at 4 - 9 < 0) and pivots the slack out.
        let mut m = Model::new();
        let x = m.add_var(-1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Le, 9.0);
        let mut state = warm_of(&m);
        let rows = state.c.rows;
        m.set_bounds(x, 0.0, 4.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("bound row appended: warm path");
        assert_eq!(out.lp.status, LpStatus::Optimal);
        let cold = m.solve_lp();
        assert_close(out.lp.objective, cold.objective);
        assert_close(out.lp.x[0], 4.0);
        assert!(out.dual_pivots >= 1, "x sat above its new bound: the slack must pivot out");
        assert_eq!(state.c.rows, rows + 1, "one bound row appended");
        assert_eq!(state.bound_row_of_var[0], Some(rows));
        // The appended row is an ordinary bound row from now on.
        m.set_bounds(x, 0.0, 2.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("warm path");
        assert_close(out.lp.x[0], 2.0);
        assert_eq!(state.c.rows, rows + 1, "no second row for the same variable");
    }

    #[test]
    fn newly_finite_ub_on_nonbasic_var_needs_no_pivot() {
        // y is nonbasic at 0 (x covers the row more cheaply), so its new
        // bound row starts feasible: appended with no eta, 0 pivots.
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        let y = m.add_var(2.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Ge, 2.0);
        let mut state = warm_of(&m);
        m.set_bounds(y, 0.0, 3.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("warm path");
        assert_eq!(out.lp.status, LpStatus::Optimal);
        assert_close(out.lp.objective, 2.0);
        assert_eq!(out.dual_pivots, 0, "a nonbasic variable already meets its new bound");
        assert!(state.bound_row_of_var[y.0].is_some());
    }

    #[test]
    fn finite_ub_relaxed_to_infinity_goes_cold() {
        // Dropping a bound row is not a branching move.
        let mut m = Model::new();
        let x = m.add_var(-1.0, 0.0, 4.0);
        m.add_con(&[(x, 1.0)], Le, 9.0);
        let mut state = warm_of(&m);
        m.set_bounds(x, 0.0, f64::INFINITY);
        assert!(reoptimize(&m, 10_000, &mut state).is_none());
    }

    #[test]
    fn lb_raise_on_unbounded_var_is_absorbed() {
        // No bound row needed for a pure lb raise.
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        let y = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Ge, 4.0);
        let mut state = warm_of(&m);
        m.set_bounds(x, 3.0, f64::INFINITY);
        let out = reoptimize(&m, 10_000, &mut state).expect("warm path");
        assert_eq!(out.lp.status, LpStatus::Optimal);
        assert_close(out.lp.objective, 4.0);
        assert!(out.lp.x[0] >= 3.0 - 1e-9);
    }

    #[test]
    fn bound_change_then_columns_then_more_bounds() {
        // The B&B + tree-pricing lifecycle: branch, graft a column, branch
        // again — one WarmState absorbs the whole sequence.
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, 10.0);
        let y = m.add_var(2.0, 0.0, 10.0);
        m.add_con(&[(x, 1.0), (y, 1.0)], Ge, 6.0);
        let mut state = warm_of(&m);
        m.set_bounds(x, 0.0, 2.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("warm path");
        assert_close(out.lp.objective, 2.0 + 2.0 * 4.0); // x=2, y=4
                                                         // A cheaper column arrives (cost 0.5, covers the row): the whole
                                                         // demand moves onto it.
        m.add_column(0.5, 0.0, f64::INFINITY, &[(0, 1.0)]);
        let out = reoptimize(&m, 10_000, &mut state).expect("graft + primal clean-up");
        assert_close(out.lp.objective, 0.5 * 6.0);
        // And a further branch on x.
        m.set_bounds(x, 1.0, 2.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("warm path");
        let cold = m.solve_lp();
        assert_close(out.lp.objective, cold.objective);
    }

    #[test]
    fn duals_usable_for_pricing_after_reoptimize() {
        // Covering LP: after a bound change the re-optimized duals must
        // still price every column nonnegatively (pricing relies on it).
        let mut m = Model::new();
        let a = m.add_var(1.0, 0.0, 10.0);
        let b = m.add_var(1.5, 0.0, 10.0);
        m.add_con(&[(a, 1.0), (b, 2.0)], Ge, 8.0);
        m.add_con(&[(a, 1.0)], Le, 6.0);
        let mut state = warm_of(&m);
        m.set_bounds(a, 0.0, 3.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("warm path");
        assert_eq!(out.lp.status, LpStatus::Optimal);
        for (j, v) in [(0, 1.0), (1, 1.5)] {
            let coef_sum: f64 = m
                .cons
                .iter()
                .zip(&out.lp.duals)
                .map(|(con, &y)| {
                    con.terms.iter().filter(|&&(var, _)| var == j).map(|&(_, c)| c * y).sum::<f64>()
                })
                .sum();
            assert!(v - coef_sum >= -1e-6, "column {j} prices negative after reoptimize");
        }
    }

    /// Regression for the purge/branch interaction: purging a column
    /// *below* a bounded variable shifts the variable's index, and the
    /// compacted `bound_row_of_var` must follow it — otherwise the next
    /// branching bound change lands on the wrong (or no) bound row.
    #[test]
    fn purge_then_reoptimize_keeps_bound_rows_mapped() {
        let mut m = Model::new();
        // An expensive never-basic column deliberately placed below the
        // bounded variables so a purge shifts their indices.
        let junk = m.add_var(9.0, 0.0, f64::INFINITY);
        let x = m.add_var(-3.0, 0.0, 10.0);
        let y = m.add_var(-5.0, 0.0, 10.0);
        m.add_con(&[(junk, 1.0), (x, 1.0)], Le, 4.0);
        m.add_con(&[(y, 2.0)], Le, 12.0);
        m.add_con(&[(x, 3.0), (y, 2.0)], Le, 18.0);
        let mut state = warm_of(&m);
        assert!(crate::simplex::purge_columns(&mut m, Some(&mut state), &[junk]));
        assert_eq!(m.num_vars(), 2);
        // Branch on (shifted) y: its bound row must still be the one the
        // builder created for it.
        let y2 = VarId(y.0 - 1);
        m.set_bounds(y2, 0.0, 4.0);
        let out =
            reoptimize(&m, 10_000, &mut state).expect("bound rows must stay mapped after purge");
        assert_eq!(out.lp.status, LpStatus::Optimal);
        let cold = m.solve_lp();
        assert_close(out.lp.objective, cold.objective);
        assert_close(out.lp.x[y2.0], 4.0);
        // And branch on (shifted) x too, for good measure.
        let x2 = VarId(x.0 - 1);
        m.set_bounds(x2, 1.0, 3.0);
        let out = reoptimize(&m, 10_000, &mut state).expect("warm path");
        let cold = m.solve_lp();
        assert_close(out.lp.objective, cold.objective);
    }

    /// Seeded sweep: random LPs, random bound tightenings — the warm dual
    /// re-solve must agree with a cold solve on status and objective
    /// every time. Some variables start at `ub = inf`, so the sweep also
    /// imposes first finite bounds (appended bound rows).
    #[test]
    fn random_bound_changes_match_cold() {
        struct Rng(u64);
        impl Rng {
            fn f(&mut self, lo: f64, hi: f64) -> f64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                lo + (self.0 >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
            }
            fn u(&mut self, lo: usize, hi: usize) -> usize {
                self.f(lo as f64, hi as f64 + 1.0).floor().min(hi as f64) as usize
            }
        }
        let mut first_bounds = 0usize;
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let n = rng.u(3, 6);
            let mut m = Model::new();
            let vars: Vec<_> = (0..n)
                .map(|_| {
                    let ub = if rng.f(0.0, 1.0) < 0.4 { f64::INFINITY } else { 10.0 };
                    m.add_var(rng.f(-1.0, 2.0), 0.0, ub)
                })
                .collect();
            for _ in 0..rng.u(2, 5) {
                let terms: Vec<_> = vars.iter().map(|&v| (v, rng.f(0.1, 1.5))).collect();
                m.add_con(&terms, if rng.f(0.0, 1.0) < 0.5 { Ge } else { Le }, rng.f(1.0, 12.0));
            }
            let (lp, state) = solve_with_state(&m, 10_000);
            if lp.status != LpStatus::Optimal {
                continue;
            }
            let mut state = state.unwrap();
            for round in 0..4 {
                // Tighten a random bound the way branching would; an
                // infinite ub gets its first finite value.
                let j = rng.u(0, n - 1);
                let (lb, ub) = m.bounds(vars[j]);
                let span = if ub.is_finite() { ub - lb } else { 12.0 };
                let first = !ub.is_finite() && rng.f(0.0, 1.0) < 0.5;
                if first || (ub.is_finite() && rng.f(0.0, 1.0) < 0.5) {
                    m.set_bounds(vars[j], lb, (lb + rng.f(0.0, span)).min(ub));
                } else {
                    m.set_bounds(vars[j], (lb + span - rng.f(0.0, span)).max(lb), ub);
                }
                let Some(out) = reoptimize(&m, 10_000, &mut state) else {
                    break; // singular step: cold fallback, nothing to check
                };
                first_bounds += usize::from(first);
                let cold = m.solve_lp();
                assert_eq!(
                    out.lp.status, cold.status,
                    "seed {seed} round {round}: warm status diverged"
                );
                if cold.status != LpStatus::Optimal {
                    break; // state is spent once the LP went infeasible
                }
                assert!(
                    (out.lp.objective - cold.objective).abs() < 1e-6,
                    "seed {seed} round {round}: warm {} vs cold {}",
                    out.lp.objective,
                    cold.objective
                );
                assert!(
                    m.is_feasible_point(&out.lp.x, 1e-5),
                    "seed {seed} round {round}: warm point infeasible"
                );
            }
        }
        assert!(first_bounds >= 5, "only {first_bounds} first finite bounds were absorbed");
    }
}
