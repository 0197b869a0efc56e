//! Two-phase primal simplex — *sparse revised* implementation — with
//! warm-started re-solves.
//!
//! The basis is never inverted explicitly: an eta-file factorization
//! (the crate-private `factor::Factor`) carries `B^-1` as a product of
//! per-pivot eta matrices, rebuilt from the sparse basis columns every
//! [`Model::set_refactor_interval`] pivots. Per iteration the engine
//! computes the simplex multipliers `y = B^-T c_B` (BTRAN), prices the
//! sparse nonbasic columns against them, transforms the entering column
//! `w = B^-1 a_j` (FTRAN), runs the ratio test on `w`, and appends one
//! eta — pivot work scales with the column nonzeros and the basis
//! dimension, not with `rows x columns` like the dense tableau this
//! replaced.
//!
//! Storage is flat: the columns live in one entries array with a span
//! per column (the crate-private `Columns`), and the eta file in one
//! entries array with a header per eta. Pricing, FTRAN, BTRAN and the
//! rebuild walk slices of these arrays, no column or eta holds a vector
//! of its own, and a [`WarmState`] clones in a handful of copies, which
//! is what a branch-and-bound node hands its children.
//!
//! Method: variables are shifted to `x' = x - lb >= 0`, each row's shift
//! summed over the model's columns in column order (the model stores no
//! rows); finite upper bounds become explicit `x' <= ub - lb` rows.
//! Inequalities get slack / surplus variables, rows are sign-normalized
//! to `rhs >= 0`, and rows without a natural slack basis get artificial
//! variables. Phase 1 minimizes the artificial sum (infeasible iff
//! positive), phase 2 the shifted objective. Dantzig pricing with a
//! switch to Bland's rule after a degeneracy threshold guards against
//! cycling. Duals are the simplex multipliers `y = B^-T c_B` of the
//! pricing pass that found the basis optimal, mapped back through the
//! row-sign normalization.
//!
//! **Warm starts** ([`WarmState`], [`solve_warm`]): an optimal solve can
//! return its final basis. After the caller appends columns
//! ([`Model::add_column`]), changes objective coefficients and/or changes
//! variable bounds, the re-solve continues from that basis through the
//! dual simplex ([`crate::dual::reoptimize`]) and skips phase 1 entirely.
//! Appending a column is O(column nonzeros) — the factorization is
//! untouched. A change the warm path cannot absorb — new constraints,
//! non-`[0, inf)` bounds on appended variables, a numerically singular
//! step — or an iteration-limited warm attempt falls back to a cold
//! solve. A state can also be carried to a *related* model with more
//! rows: [`WarmState::basis`] names a basis in model terms, and
//! [`WarmState::from_basis`] factorizes it for another model, the rows
//! it does not name entering with their slacks basic.
//!
//! **Column lifecycle** ([`purge_columns`]): a column-generation master
//! accumulates columns forever; nonbasic columns can be physically
//! removed again without invalidating the warm basis. The purge compacts
//! the model and the warm state coherently (column store, basis indices,
//! variable maps); the factorization and basic solution are untouched
//! because a nonbasic column never participates in either.

use crate::factor::Factor;
use crate::model::{LpResult, LpStatus, Model, Relation, VarId};
use crate::TOL;

/// A generous iteration budget scaled to model size.
pub fn default_iter_limit(model: &Model) -> usize {
    // Simplex converges in O(rows) iterations in practice; the hard cap
    // keeps a single degenerate solve on a large model from dominating
    // the branch-and-bound wall clock.
    (500 * (model.num_vars() + model.num_cons()) + 2000).min(60_000)
}

/// The sparse matrix columns over the normalized rows, stored in one
/// entries array with a `[start, end)` span per column. Column `j` lists
/// its `(row, coefficient)` entries, after sign normalization, in the
/// order they were built: model rows first, then the bound-row entry.
///
/// New columns go at the end. A column that gains an entry while another
/// column lies behind it is first copied to the end, in order; the old
/// copy stays behind as dead space, which a compaction drops once it
/// outweighs the live entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns {
    /// Every column's entries, column after column (plus dead space).
    entries: Vec<(usize, f64)>,
    /// Per column: the `[start, end)` range of its entries.
    spans: Vec<(usize, usize)>,
    /// Entries inside some column's span: `entries.len()` minus the dead
    /// space.
    live: usize,
}

impl Columns {
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Column `j`'s entries.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[(usize, f64)] {
        let (start, end) = self.spans[j];
        &self.entries[start..end]
    }

    /// Every column's entries, in column order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[(usize, f64)]> {
        self.spans.iter().map(|&(start, end)| &self.entries[start..end])
    }

    /// Stored entries of the live columns (dead space excluded).
    pub(crate) fn nnz(&self) -> usize {
        self.live
    }

    /// Append a column.
    pub(crate) fn push(&mut self, col: impl IntoIterator<Item = (usize, f64)>) {
        let start = self.entries.len();
        self.entries.extend(col);
        self.live += self.entries.len() - start;
        self.spans.push((start, self.entries.len()));
    }

    /// Append `entry` to column `j`, after its other entries.
    pub(crate) fn push_entry(&mut self, j: usize, entry: (usize, f64)) {
        if self.spans[j].1 != self.entries.len() {
            if self.entries.len() > 2 * self.live {
                self.retain(|_| true);
            }
            let (start, end) = self.spans[j];
            if end != self.entries.len() {
                self.entries.extend_from_within(start..end);
                self.spans[j] = (self.entries.len() - (end - start), self.entries.len());
            }
        }
        self.entries.push(entry);
        self.spans[j].1 += 1;
        self.live += 1;
    }

    /// Keep the columns `j` with `keep(j)`, in order, and drop the dead
    /// space.
    pub(crate) fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        let mut kept = Columns {
            entries: Vec::with_capacity(self.live),
            spans: Vec::with_capacity(self.len()),
            live: 0,
        };
        for j in (0..self.len()).filter(|&j| keep(j)) {
            kept.push(self.col(j).iter().copied());
        }
        *self = kept;
    }

    /// Release the spare capacity of both arrays.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.spans.shrink_to_fit();
    }
}

/// The revised-simplex working state: sparse columns over the normalized
/// rows, the basis with its eta-file factorization, and the current
/// basic solution.
#[derive(Debug, Clone)]
pub(crate) struct Core {
    pub(crate) cols: Columns,
    pub(crate) rows: usize,
    /// Basic column of each (pivot) row.
    pub(crate) basis: Vec<usize>,
    /// Whether each column is currently basic.
    pub(crate) in_basis: Vec<bool>,
    /// Values of the basic variables by row: `xb = B^-1 b0`.
    pub(crate) xb: Vec<f64>,
    /// Current normalized RHS (bound-change deltas are applied here, so
    /// `xb` is always recoverable as `B^-1 b0`).
    pub(crate) b0: Vec<f64>,
    pub(crate) factor: Factor,
    /// Pivot count between factorization rebuilds.
    pub(crate) refactor_interval: usize,
}

impl Core {
    #[inline]
    pub(crate) fn ncols(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    pub(crate) fn dot(col: &[(usize, f64)], y: &[f64]) -> f64 {
        col.iter().map(|&(r, c)| c * y[r]).sum()
    }

    /// `w = B^-1 a_j` into the provided scratch vector.
    pub(crate) fn ftran_col(&self, j: usize, w: &mut Vec<f64>) {
        w.clear();
        w.resize(self.rows, 0.0);
        for &(r, c) in self.cols.col(j) {
            w[r] = c;
        }
        self.factor.ftran(w);
    }

    /// `y = B^-T c_B` into the provided scratch vector.
    pub(crate) fn btran_costs(&self, costs: &[f64], y: &mut Vec<f64>) {
        self.basic_costs(costs, y);
        self.factor.btran(y);
    }

    /// `c_B`, the costs of the basic columns by row, into `y`.
    fn basic_costs(&self, costs: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.extend(self.basis.iter().map(|&b| costs[b]));
    }

    /// `rho = B^-T e_r` into the provided scratch vector.
    pub(crate) fn btran_unit(&self, r: usize, rho: &mut Vec<f64>) {
        unit(self.rows, r, rho);
        self.factor.btran(rho);
    }

    /// `rho = B^-T e_r` and `y = B^-T c_B` in one sweep over the eta
    /// file, each bit for bit what [`Core::btran_unit`] and
    /// [`Core::btran_costs`] give.
    pub(crate) fn btran_unit_and_costs(
        &self,
        r: usize,
        rho: &mut Vec<f64>,
        costs: &[f64],
        y: &mut Vec<f64>,
    ) {
        unit(self.rows, r, rho);
        self.basic_costs(costs, y);
        self.factor.btran_pair(rho, y);
    }

    fn objective(&self, costs: &[f64]) -> f64 {
        self.basis.iter().zip(&self.xb).map(|(&b, &x)| costs[b] * x).sum()
    }

    /// Basis change: column `j` (transformed column `w`) enters at pivot
    /// row `prow`. Updates `xb`, appends the pivot eta, and triggers a
    /// refactorization when the file has grown past the interval.
    pub(crate) fn pivot(&mut self, prow: usize, j: usize, w: &[f64]) {
        let theta = self.xb[prow] / w[prow];
        // One pass over `w` steps `xb` and extracts the pivot eta.
        if theta != 0.0 {
            let xb = &mut self.xb;
            self.factor.update_with(w, prow, |i, wi| xb[i] -= theta * wi);
        } else {
            self.factor.update(w, prow);
        }
        self.xb[prow] = theta;
        self.in_basis[self.basis[prow]] = false;
        self.in_basis[j] = true;
        self.basis[prow] = j;
        if self.factor.updates_since_refactor() >= self.refactor_interval {
            self.refactor();
        }
    }

    /// Rebuild the factorization off the current basis columns and
    /// recompute `xb` from `b0`. A (numerically) singular rebuild keeps
    /// the old eta file and returns `false`.
    fn refactor(&mut self) -> bool {
        let rebuilt = self.factor.refactor(|j| self.cols.col(j), &mut self.basis);
        if rebuilt {
            self.xb.copy_from_slice(&self.b0);
            self.factor.ftran(&mut self.xb);
        }
        rebuilt
    }

    /// Ratio test: leaving row for the transformed entering column `w`,
    /// or `None` if the column is unbounded. Two passes, Harris-style:
    /// the first finds the tightest ratio, the second picks — among the
    /// rows within a tolerance whisker of it — the *largest* pivot
    /// element. A bare min-ratio rule is free to pivot on an element
    /// barely above `TOL`, and the `1/a` in that eta factor amplifies
    /// roundoff by up to `1/TOL` until the factorized answers diverge
    /// from the model; on massively degenerate bases the solve then
    /// cycles numerically — "progress" each refactorization reverts.
    /// Ties on the pivot size break toward the smallest basis variable
    /// index, keeping the choice deterministic (and Bland-flavored).
    /// A slightly negative `xb` (roundoff on a degenerate row) clamps to
    /// a zero ratio rather than proposing a negative step.
    fn ratio_test(&self, w: &[f64]) -> Option<usize> {
        let mut theta = f64::INFINITY;
        for (r, &a) in w.iter().enumerate() {
            if a > TOL {
                theta = theta.min(self.xb[r].max(0.0) / a);
            }
        }
        if theta.is_infinite() {
            return None;
        }
        let cutoff = theta + 1e-9 * (1.0 + theta);
        let mut best: Option<(f64, usize, usize)> = None; // (pivot, basis var, row)
        for (r, &a) in w.iter().enumerate() {
            if a > TOL && self.xb[r].max(0.0) / a <= cutoff {
                let better = match best {
                    Some((ba, bb, _)) => a > ba || (a == ba && self.basis[r] < bb),
                    None => true,
                };
                if better {
                    best = Some((a, self.basis[r], r));
                }
            }
        }
        best.map(|(_, _, r)| r)
    }

    /// One optimization run under the given cost vector. Only nonbasic
    /// columns `c` with `allowed(c)` may enter.
    ///
    /// `y` is scratch for the simplex multipliers `B^-T c_B` of each
    /// pricing pass. An `Optimal` return comes from a pass that found no
    /// entering column, so `y` then holds the optimal basis's
    /// multipliers under `costs`.
    pub(crate) fn optimize(
        &mut self,
        costs: &[f64],
        allowed: impl Fn(usize) -> bool,
        iter_limit: usize,
        iterations: &mut usize,
        y: &mut Vec<f64>,
    ) -> LpStatus {
        // Dantzig pricing stalls on massively degenerate bases (ties upon
        // ties re-enter the same columns without moving the objective).
        // Switch to Bland's rule — guaranteed finite — once the objective
        // has not improved for a streak proportional to the row count.
        let stall_limit = 10 * self.rows + 50;
        let mut stalled = 0usize;
        let mut bland = false;
        let mut last_obj = self.objective(costs);
        let mut w: Vec<f64> = Vec::new();
        loop {
            if *iterations >= iter_limit {
                return LpStatus::IterLimit;
            }
            self.btran_costs(costs, y);
            // Entering column: reduced cost `c_j - y . a_j` below -TOL.
            let mut entering: Option<usize> = None;
            if bland {
                // Bland: smallest index with negative reduced cost.
                for (j, col) in self.cols.iter().enumerate() {
                    if !self.in_basis[j] && allowed(j) && costs[j] - Self::dot(col, y) < -TOL {
                        entering = Some(j);
                        break;
                    }
                }
            } else {
                // Dantzig: most negative reduced cost (earliest on ties).
                let mut best = -TOL;
                for (j, col) in self.cols.iter().enumerate() {
                    if self.in_basis[j] || !allowed(j) {
                        continue;
                    }
                    let rc = costs[j] - Self::dot(col, y);
                    if rc < best {
                        best = rc;
                        entering = Some(j);
                    }
                }
            }
            let Some(pcol) = entering else {
                return LpStatus::Optimal;
            };
            self.ftran_col(pcol, &mut w);
            let Some(prow) = self.ratio_test(&w) else {
                return LpStatus::Unbounded;
            };
            self.pivot(prow, pcol, &w);
            *iterations += 1;
            let obj = self.objective(costs);
            if obj < last_obj - TOL {
                // Real progress: resume Dantzig (Bland crawls). Each
                // strict improvement is final, so the alternation still
                // terminates.
                last_obj = obj;
                stalled = 0;
                bland = false;
            } else {
                stalled += 1;
                if stalled >= stall_limit {
                    bland = true;
                }
            }
        }
    }
}

/// `v = e_r` of length `rows`.
fn unit(rows: usize, r: usize, v: &mut Vec<f64>) {
    v.clear();
    v.resize(rows, 0.0);
    v[r] = 1.0;
}

/// The reusable outcome of an optimal solve: the factorized basis plus
/// the bookkeeping needed to graft new columns onto it. Opaque to
/// callers; obtain one from [`solve_with_state`] and feed it to
/// [`solve_warm`].
#[derive(Debug, Clone)]
pub struct WarmState {
    pub(crate) c: Core,
    /// Per model-constraint row: the sign normalization applied at build
    /// (bound rows always have nonnegative RHS and sign `+1`).
    pub(crate) row_sign: Vec<f64>,
    /// Artificial column range `[art_start, art_end)` (never re-enters).
    pub(crate) art_start: usize,
    pub(crate) art_end: usize,
    /// Column -> model variable (None for slack/artificial).
    pub(crate) var_of_col: Vec<Option<usize>>,
    /// Model variable -> column: the inverse of `var_of_col`, one entry
    /// per variable seen so far.
    pub(crate) col_of_var: Vec<usize>,
    /// Bounds snapshot of every variable seen so far; the dual engine
    /// turns a mismatch on re-solve into right-hand-side deltas (see
    /// [`crate::dual::reoptimize`]).
    pub(crate) bounds: Vec<(f64, f64)>,
    /// Per variable seen so far: the row carrying its `x' <= ub - lb`
    /// bound row, if the variable has a finite upper bound. The dual
    /// engine edits these rows' RHS when branching tightens bounds, and
    /// appends one ([`append_bound_rows`]) when branching first bounds a
    /// variable that had none — appended columns always start `[0, inf)`
    /// with `None`.
    pub(crate) bound_row_of_var: Vec<Option<usize>>,
    pub(crate) num_cons: usize,
}

/// A basis named in model terms: its basic variables, and the constraint
/// rows whose slack is basic (for an equality row, its artificial).
/// Bound rows are not named: [`WarmState::from_basis`] makes each bound
/// row's slack basic, and [`WarmState::basis`] leaves them out.
///
/// Both lists are in basis order: [`WarmState::basis`] reads them off by
/// pivot row, and [`WarmState::from_basis`] hands the variables and then
/// the slacks to the factorization in that order, so a basis carried from
/// one state to a related model is factorized much as it was held.
#[derive(Debug, Clone, Default)]
pub struct Basis {
    /// Basic model variables.
    pub vars: Vec<VarId>,
    /// Constraint rows with a basic slack.
    pub slack_rows: Vec<usize>,
}

impl WarmState {
    /// This state's basis in model terms, by pivot row (see [`Basis`]).
    pub fn basis(&self) -> Basis {
        let mut basis = Basis::default();
        for &col in &self.c.basis {
            match self.var_of_col[col] {
                Some(v) => basis.vars.push(VarId(v)),
                // Slacks and artificials are unit columns of their row.
                None => {
                    let r = self.c.cols.col(col)[0].0;
                    if r < self.num_cons {
                        basis.slack_rows.push(r);
                    }
                }
            }
        }
        basis
    }

    /// The state of `model` on `basis`, factorized once, ready for
    /// [`solve_warm`]: the model is built as [`solve_with_state`] builds
    /// it, the named columns and the slack of every bound row form the
    /// basis, and the basic solution is `B^-1 b`. It may be primal
    /// infeasible (the dual simplex of the re-solve repairs that) and dual
    /// infeasible (its primal clean-up does).
    ///
    /// `None` when the basis does not fit the model (a variable or row out
    /// of range, a column named twice, or not one basic column per row),
    /// when it is numerically singular, or when it leaves an equality
    /// row's artificial basic away from zero.
    pub fn from_basis(model: &Model, basis: &Basis) -> Option<WarmState> {
        let mut state = build(model).ok()?;
        let n = model.num_vars();
        let c = &mut state.c;
        // Each row's slack, or its artificial when it has none: slacks
        // precede artificials in the column layout, so the first unit
        // column of a row wins.
        let mut logical = vec![usize::MAX; c.rows];
        for col in n..state.art_end {
            let r = c.cols.col(col)[0].0;
            if logical[r] == usize::MAX {
                logical[r] = col;
            }
        }
        if basis.vars.iter().any(|v| v.0 >= n)
            || basis.slack_rows.iter().any(|&r| r >= state.num_cons)
        {
            return None;
        }
        let cols: Vec<usize> = basis
            .vars
            .iter()
            .map(|v| v.0)
            .chain(basis.slack_rows.iter().map(|&r| logical[r]))
            .chain(logical[state.num_cons..].iter().copied())
            .collect();
        if cols.len() != c.rows {
            return None;
        }
        c.in_basis.fill(false);
        for &col in &cols {
            if std::mem::replace(&mut c.in_basis[col], true) {
                return None;
            }
        }
        c.basis = cols;
        if !c.refactor() {
            return None;
        }
        let stray_artificial =
            c.basis.iter().zip(&c.xb).any(|(&b, &x)| b >= state.art_start && x.abs() > TOL);
        (!stray_artificial).then_some(state)
    }

    /// Memory-weight proxy (stored nonzeros plus per-row vectors), the
    /// sparse replacement for the dense tableau's `rows * cols` cell
    /// count. Branch & bound uses it to decide whether a node basis is
    /// cheap enough to share with both children. It counts the entries
    /// of live columns only, never the dead space a relocated column
    /// leaves in the column arena. A refactorized eta file stores no
    /// identity etas, so unit slacks weigh only their column and row
    /// entries.
    pub(crate) fn weight(&self) -> usize {
        self.c.cols.nnz() + self.c.factor.nnz() + 6 * self.c.rows
    }

    /// Release the spare capacity of the column and eta arenas, for a
    /// state parked while its children wait to be explored.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.c.cols.shrink_to_fit();
        self.c.factor.shrink_to_fit();
    }

    /// Counter snapshot `(refactorizations, eta_updates)` for computing
    /// per-solve deltas.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.c.factor.refactorizations, self.c.factor.eta_updates)
    }
}

pub(crate) fn lp_fail(status: LpStatus, iterations: usize) -> LpResult {
    LpResult {
        status,
        x: vec![],
        objective: 0.0,
        iterations,
        duals: vec![],
        refactorizations: 0,
        eta_updates: 0,
    }
}

/// Solve the LP relaxation of `model` (integrality ignored).
pub fn solve(model: &Model, iter_limit: usize) -> LpResult {
    solve_with_state(model, iter_limit).0
}

/// Like [`solve`], additionally returning a [`WarmState`] when the solve
/// reached optimality (and the model has at least one row — trivial
/// models have no basis to reuse).
pub fn solve_with_state(model: &Model, iter_limit: usize) -> (LpResult, Option<WarmState>) {
    let _span = bagsched_types::obs::Span::enter("milp.simplex");
    let mut state = match build(model) {
        Ok(state) => state,
        Err(trivial) => return (trivial, None),
    };
    let (art_start, art_end) = (state.art_start, state.art_end);
    let core = &mut state.c;
    let mut iterations = 0usize;
    let mut y: Vec<f64> = Vec::new();
    let counters = |c: &Core| (c.factor.refactorizations as usize, c.factor.eta_updates as usize);

    // ---- Phase 1: minimize the sum of artificials. ----
    if art_end > art_start {
        let mut costs1 = vec![0.0; art_end];
        costs1[art_start..art_end].iter_mut().for_each(|c| *c = 1.0);
        let status = core.optimize(&costs1, |_| true, iter_limit, &mut iterations, &mut y);
        if status == LpStatus::IterLimit {
            let (rf, eu) = counters(core);
            return (
                LpResult { refactorizations: rf, eta_updates: eu, ..lp_fail(status, iterations) },
                None,
            );
        }
        let phase1_obj = core.objective(&costs1);
        if phase1_obj > 1e-6 {
            let (rf, eu) = counters(core);
            return (
                LpResult {
                    refactorizations: rf,
                    eta_updates: eu,
                    ..lp_fail(LpStatus::Infeasible, iterations)
                },
                None,
            );
        }
        // Drive remaining artificials out of the basis. Iterate by
        // artificial column, not by row: a triggered refactorization may
        // permute the basis-to-row assignment mid-loop.
        let art_basics: Vec<usize> =
            core.basis.iter().copied().filter(|&b| b >= art_start).collect();
        let mut rho: Vec<f64> = Vec::new();
        let mut w: Vec<f64> = Vec::new();
        for a in art_basics {
            let Some(r) = core.basis.iter().position(|&b| b == a) else { continue };
            core.btran_unit(r, &mut rho);
            let pivot_col = (0..art_start)
                .find(|&j| !core.in_basis[j] && Core::dot(core.cols.col(j), &rho).abs() > 1e-6);
            if let Some(j) = pivot_col {
                core.ftran_col(j, &mut w);
                core.pivot(r, j, &w);
                iterations += 1;
            }
            // If no structural pivot exists the row is redundant
            // (all-zero); the artificial stays basic at value ~0 and we
            // simply never let artificials re-enter in phase 2.
        }
    }

    // ---- Phase 2: minimize the real objective. ----
    let mut costs2 = vec![0.0; core.ncols()];
    for (j, v) in model.vars.iter().enumerate() {
        costs2[j] = v.obj;
    }
    let status = core.optimize(&costs2, |c| c < art_start, iter_limit, &mut iterations, &mut y);
    if status != LpStatus::Optimal {
        let (rf, eu) = counters(core);
        return (
            LpResult { refactorizations: rf, eta_updates: eu, ..lp_fail(status, iterations) },
            None,
        );
    }

    let (rf, eu) = state.counters();
    let res = extract_optimal(model, &state, &y, iterations, rf as usize, eu as usize);
    (res, Some(state))
}

/// The normalized LP of `model` on its starting basis, with no pivot
/// taken: every row's slack where it has coefficient `+1`, an artificial
/// elsewhere, and the identity factorization. A model that needs no
/// basis, or whose bounds cross, is settled here and comes back as
/// `Err` with its result.
fn build(model: &Model) -> Result<WarmState, LpResult> {
    let n = model.num_vars();
    let lbs: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let ncons = model.cons.len();

    // Shifted RHS per row; rows are model constraints then bound rows.
    // Each row's shift `sum_j a_rj * lb_j` is summed in column order from
    // a float sum's neutral element, `-0.0`.
    let mut shift = vec![-0.0; ncons];
    for (v, &lb) in model.vars.iter().zip(&lbs) {
        for &(r, c) in &v.col {
            shift[r] += c * lb;
        }
    }
    let mut rhs: Vec<f64> = model.cons.iter().zip(&shift).map(|(con, s)| con.rhs - s).collect();
    let mut rel: Vec<Relation> = model.cons.iter().map(|con| con.rel).collect();
    let mut bound_row_of_var: Vec<Option<usize>> = vec![None; n];
    for (j, v) in model.vars.iter().enumerate() {
        if v.ub.is_finite() {
            let range = v.ub - v.lb;
            if range < -TOL {
                return Err(lp_fail(LpStatus::Infeasible, 0));
            }
            bound_row_of_var[j] = Some(rhs.len());
            rhs.push(range.max(0.0));
            rel.push(Relation::Le);
        }
    }

    if rhs.is_empty() {
        // No constraints at all: optimum sits at the lower bounds unless
        // some cost is negative (then x_j -> +inf is improving).
        if model.vars.iter().any(|v| v.obj < -TOL) {
            return Err(lp_fail(LpStatus::Unbounded, 0));
        }
        let obj_offset: f64 = model.vars.iter().map(|v| v.obj * v.lb).sum();
        return Err(LpResult {
            status: LpStatus::Optimal,
            x: lbs,
            objective: obj_offset,
            iterations: 0,
            duals: vec![],
            refactorizations: 0,
            eta_updates: 0,
        });
    }

    let m = rhs.len();
    let sign: Vec<f64> = rhs.iter().map(|&r| if r < 0.0 { -1.0 } else { 1.0 }).collect();
    let b0: Vec<f64> = rhs.iter().zip(&sign).map(|(&r, &s)| s * r).collect();
    let row_sign: Vec<f64> = sign[..ncons].to_vec();

    // Column layout: structural (n) | slacks | artificials. A row's slack
    // coefficient is `+-sign`; rows whose slack coefficient is not `+1`
    // (surplus rows, equalities, sign-flipped rows) get an artificial.
    let num_slacks = rel.iter().filter(|&&r| r != Relation::Eq).count();
    let art_start = n + num_slacks;
    let mut cols = Columns::default();
    for (v, &bound_row) in model.vars.iter().zip(&bound_row_of_var) {
        cols.push(
            v.col.iter().map(|&(r, c)| (r, sign[r] * c)).chain(bound_row.map(|br| (br, 1.0))),
        );
    }
    let mut basis = vec![usize::MAX; m];
    let mut art_rows: Vec<usize> = Vec::new();
    for (r, &rl) in rel.iter().enumerate() {
        let coef = match rl {
            Relation::Le => sign[r],
            Relation::Ge => -sign[r],
            Relation::Eq => {
                art_rows.push(r);
                continue;
            }
        };
        if coef > 0.0 {
            basis[r] = cols.len();
        } else {
            art_rows.push(r);
        }
        cols.push([(r, coef)]);
    }
    for r in art_rows {
        basis[r] = cols.len();
        cols.push([(r, 1.0)]);
    }
    let art_end = cols.len();

    let mut in_basis = vec![false; art_end];
    for &b in &basis {
        in_basis[b] = true;
    }
    Ok(WarmState {
        c: Core {
            cols,
            rows: m,
            basis,
            in_basis,
            xb: b0.clone(),
            b0,
            factor: Factor::identity(),
            refactor_interval: model.refactor_interval,
        },
        row_sign,
        art_start,
        art_end,
        var_of_col: (0..art_end).map(|c| (c < n).then_some(c)).collect(),
        col_of_var: (0..n).collect(),
        bounds: model.vars.iter().map(|v| (v.lb, v.ub)).collect(),
        bound_row_of_var,
        num_cons: ncons,
    })
}

/// Solve `model` warm from the basis held in `warm`, cold when there is
/// none or the warm attempt fails: the one re-solve path of the crate.
///
/// With `Some` state — the final basis of an earlier optimal solve of this
/// model, which may since have gained `[0, inf)` columns, objective edits
/// and/or bound changes — the re-solve runs [`crate::dual::reoptimize`].
/// An attempt the dual engine refuses, or one that stops at the iteration
/// limit, is dropped and the same LP is solved cold with
/// [`solve_with_state`]: the cold solve may well finish within the same
/// budget, and verdicts must not depend on which path ran. `warm` keeps
/// the final basis only when the solve reached optimality.
///
/// Returns the result and, when the warm attempt was accepted, its dual
/// pivots (`None` means the LP was solved cold). Dual pivots of a dropped
/// attempt are not reported: counted dual pivots always ship inside an
/// accepted result's `iterations`.
pub fn solve_warm(
    model: &Model,
    iter_limit: usize,
    warm: &mut Option<WarmState>,
) -> (LpResult, Option<usize>) {
    if let Some(state) = warm.as_mut() {
        if let Some(out) = crate::dual::reoptimize(model, iter_limit, state)
            .filter(|out| out.lp.status != LpStatus::IterLimit)
        {
            if out.lp.status != LpStatus::Optimal {
                *warm = None;
            }
            return (out.lp, Some(out.dual_pivots));
        }
    }
    let (lp, state) = solve_with_state(model, iter_limit);
    *warm = state;
    (lp, None)
}

/// Append the model's new columns (relative to the state's snapshot) onto
/// the warm state. Returns `false` — leaving the state untouched — when a
/// column cannot be grafted (its bounds are not `[0, inf)`, which would
/// need a fresh bound row) or the model shrank. Unlike the dense tableau
/// this is O(column nonzeros): the factorization does not change when a
/// nonbasic column appears.
pub(crate) fn graft_columns(model: &Model, state: &mut WarmState) -> bool {
    let n_old = state.bounds.len();
    let n_new = model.num_vars();
    if n_new < n_old {
        return false;
    }
    if model.vars[n_old..].iter().any(|v| v.lb != 0.0 || v.ub != f64::INFINITY) {
        return false;
    }
    for j in n_old..n_new {
        state.col_of_var.push(state.c.ncols());
        let row_sign = &state.row_sign;
        state.c.cols.push(model.vars[j].col.iter().map(|&(r, c)| (r, row_sign[r] * c)));
        state.c.in_basis.push(false);
        state.var_of_col.push(Some(j));
        state.bound_row_of_var.push(None);
        state.bounds.push((0.0, f64::INFINITY));
    }
    true
}

/// Give each listed variable `(var, ub - lb)` — one that so far had no
/// upper bound, hence no bound row — its `x' <= ub - lb` row: the row is
/// appended below the existing ones, the variable's column gains its `+1`
/// entry, and a fresh slack column enters the basis in the new row, so
/// the basis stays square and keeps its dual feasibility.
///
/// The factorization grows by at most one eta per row, with no rebuild.
/// A nonbasic variable's new entry lies outside the basis, so the row
/// belongs to its slack alone and needs no eta. A variable basic in row
/// `k` makes the grown basis `B E`, where `E` is the identity with
/// column `k` replaced by `e_k + e_r` (`Factor::append_row`); the slack
/// then reads `range - x'`. A variable already above its new bound shows
/// up as a negative slack, which the dual simplex drives out like any
/// other primal infeasibility.
///
/// Returns `false` when a variable has no column in the state; the state
/// is then unusable and the caller must solve cold.
pub(crate) fn append_bound_rows(state: &mut WarmState, rows: &[(usize, f64)]) -> bool {
    for &(v, range) in rows {
        let Some(&col) = state.col_of_var.get(v) else {
            return false;
        };
        let c = &mut state.c;
        let r = c.rows;
        let slack = c.ncols();
        let mut slack_value = range;
        if c.in_basis[col] {
            let k = c.basis.iter().position(|&b| b == col).expect("a basic column has a row");
            slack_value -= c.xb[k];
            c.factor.append_row(k, r);
        }
        c.cols.push_entry(col, (r, 1.0));
        c.cols.push([(r, 1.0)]);
        c.in_basis.push(true);
        c.basis.push(slack);
        c.b0.push(range);
        c.xb.push(slack_value);
        c.rows += 1;
        state.var_of_col.push(None);
        state.bound_row_of_var[v] = Some(r);
    }
    true
}

/// Read the optimal solution and duals off a converged warm basis.
///
/// `y` holds the simplex multipliers `B^-T c_B` of that basis, with `c_B`
/// the model objective of the basic variables and 0 for basic slacks and
/// artificials. No BTRAN runs here: both callers pass the multipliers of
/// the pricing pass in which [`Core::optimize`] found no entering column
/// and returned `Optimal`. That pass ran on the same factorization under
/// the same costs, so these are the multipliers a fresh BTRAN would give.
pub(crate) fn extract_optimal(
    model: &Model,
    state: &WarmState,
    y: &[f64],
    iterations: usize,
    refactorizations: usize,
    eta_updates: usize,
) -> LpResult {
    let c = &state.c;
    let lbs: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let mut x = lbs.clone();
    for (r, &b) in c.basis.iter().enumerate() {
        if let Some(v) = state.var_of_col[b] {
            x[v] = lbs[v] + c.xb[r].max(0.0);
        }
    }
    let objective = model.objective_value(&x);
    // The model dual of constraint i is y_i mapped back through the sign
    // normalization.
    let duals = state.row_sign.iter().zip(y).map(|(&s, &yi)| s * yi).collect();
    LpResult {
        status: LpStatus::Optimal,
        x,
        objective,
        iterations,
        duals,
        refactorizations,
        eta_updates,
    }
}

/// Physically remove nonbasic columns from a model and (when present) its
/// warm state, keeping both coherent: the column store, basis indices,
/// artificial range, and variable maps are compacted; the factorization
/// and the basic solution are untouched because a nonbasic column
/// participates in neither.
///
/// Returns `false` — mutating nothing — when a victim is currently basic,
/// owns a bound row (finite upper bound), or the model and state are out
/// of sync; the caller should then skip the purge (or drop the warm state
/// first). Variable indices above a purged column shift down; the caller
/// owns remapping any [`VarId`]s it holds (`new = old - #purged below`).
pub fn purge_columns(model: &mut Model, warm: Option<&mut WarmState>, victims: &[VarId]) -> bool {
    if victims.is_empty() {
        return true;
    }
    let n = model.num_vars();
    let mut kill_var = vec![false; n];
    for v in victims {
        if v.0 >= n || kill_var[v.0] {
            return false;
        }
        kill_var[v.0] = true;
    }
    if let Some(state) = &warm {
        if state.bounds.len() != n {
            return false; // ungrafted columns outstanding: not synced
        }
        for (col, vo) in state.var_of_col.iter().enumerate() {
            if let Some(v) = *vo {
                if kill_var[v] && (state.c.in_basis[col] || state.bound_row_of_var[v].is_some()) {
                    return false;
                }
            }
        }
    }

    // ---- Model compaction. ----
    let mut new_var = vec![usize::MAX; n];
    let mut next = 0usize;
    for (j, &kill) in kill_var.iter().enumerate() {
        if !kill {
            new_var[j] = next;
            next += 1;
        }
    }
    let mut keep = kill_var.iter().map(|&k| !k);
    model.vars.retain(|_| keep.next().unwrap());

    // ---- Warm-state compaction. ----
    let Some(state) = warm else { return true };
    let ncols = state.c.ncols();
    let mut kill_col = vec![false; ncols];
    for (col, vo) in state.var_of_col.iter().enumerate() {
        if vo.is_some_and(|v| kill_var[v]) {
            kill_col[col] = true;
        }
    }
    let mut new_col = vec![usize::MAX; ncols];
    let mut next = 0usize;
    for (c, &kill) in kill_col.iter().enumerate() {
        if !kill {
            new_col[c] = next;
            next += 1;
        }
    }
    state.c.cols.retain(|c| !kill_col[c]);
    let mut keep = kill_col.iter().map(|&k| !k);
    state.c.in_basis.retain(|_| keep.next().unwrap());
    for b in &mut state.c.basis {
        *b = new_col[*b];
    }
    // Both range ends may equal the old column count (no artificials /
    // no grafted columns): compact each by the purged columns below it.
    state.art_start -= kill_col[..state.art_start].iter().filter(|&&k| k).count();
    state.art_end -= kill_col[..state.art_end].iter().filter(|&&k| k).count();
    let mut keep = kill_col.iter().map(|&k| !k);
    state.var_of_col.retain(|_| keep.next().unwrap());
    for v in state.var_of_col.iter_mut().flatten() {
        *v = new_var[*v];
    }
    let mut keep = kill_var.iter().map(|&k| !k);
    state.col_of_var.retain(|_| keep.next().unwrap());
    for c in &mut state.col_of_var {
        *c = new_col[*c];
    }
    let mut keep = kill_var.iter().map(|&k| !k);
    state.bounds.retain(|_| keep.next().unwrap());
    let mut keep = kill_var.iter().map(|&k| !k);
    state.bound_row_of_var.retain(|_| keep.next().unwrap());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation::*};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_max_problem() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => (2, 6), z = 36.
        let mut m = Model::new();
        let x = m.add_var(-3.0, 0.0, f64::INFINITY);
        let y = m.add_var(-5.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Le, 4.0);
        m.add_con(&[(y, 2.0)], Le, 12.0);
        m.add_con(&[(x, 3.0), (y, 2.0)], Le, 18.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, -36.0);
        assert_close(r.x[0], 2.0);
        assert_close(r.x[1], 6.0);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2 => 10, e.g. (3, 7).
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        let y = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Eq, 10.0);
        m.add_con(&[(x, 1.0)], Ge, 3.0);
        m.add_con(&[(y, 1.0)], Ge, 2.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 10.0);
        assert!(r.x[0] >= 3.0 - 1e-6 && r.x[1] >= 2.0 - 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Le, 1.0);
        m.add_con(&[(x, 1.0)], Ge, 2.0);
        assert_eq!(m.solve_lp().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_var(-1.0, 0.0, f64::INFINITY);
        let y = m.add_var(0.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, -1.0)], Le, 1.0);
        assert_eq!(m.solve_lp().status, LpStatus::Unbounded);
    }

    #[test]
    fn respects_upper_bounds() {
        // min -x with x in [0, 7].
        let mut m = Model::new();
        let _x = m.add_var(-1.0, 0.0, 7.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.x[0], 7.0);
    }

    #[test]
    fn respects_shifted_lower_bounds() {
        // min x + y with x >= 2.5, y >= 1, x + y >= 5.
        let mut m = Model::new();
        let x = m.add_var(1.0, 2.5, f64::INFINITY);
        let y = m.add_var(1.0, 1.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Ge, 5.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 5.0);
    }

    #[test]
    fn no_constraints_sits_at_lb() {
        let mut m = Model::new();
        m.add_var(1.0, 2.0, f64::INFINITY);
        m.add_var(0.0, -1.0, f64::INFINITY);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 2.0);
        assert_close(r.x[1], -1.0);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut m = Model::new();
        m.add_var(-1.0, 0.0, f64::INFINITY);
        assert_eq!(m.solve_lp().status, LpStatus::Unbounded);
    }

    #[test]
    fn crossing_bounds_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 0.0, 1.0);
        m.set_bounds(x, 2.0, 1.0);
        assert_eq!(m.solve_lp().status, LpStatus::Infeasible);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: many redundant constraints through the origin.
        let mut m = Model::new();
        let x = m.add_var(-0.75, 0.0, f64::INFINITY);
        let y = m.add_var(150.0, 0.0, f64::INFINITY);
        let z = m.add_var(-0.02, 0.0, f64::INFINITY);
        let w = m.add_var(6.0, 0.0, f64::INFINITY);
        // Beale's cycling example (classic form).
        m.add_con(&[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], Le, 0.0);
        m.add_con(&[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], Le, 0.0);
        m.add_con(&[(z, 1.0)], Le, 1.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, -0.05);
    }

    #[test]
    fn transportation_lp() {
        // 2 supplies (10, 20), 2 demands (15, 15); costs [[1,2],[3,1]].
        let mut m = Model::new();
        let x11 = m.add_var(1.0, 0.0, f64::INFINITY);
        let x12 = m.add_var(2.0, 0.0, f64::INFINITY);
        let x21 = m.add_var(3.0, 0.0, f64::INFINITY);
        let x22 = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x11, 1.0), (x12, 1.0)], Eq, 10.0);
        m.add_con(&[(x21, 1.0), (x22, 1.0)], Eq, 20.0);
        m.add_con(&[(x11, 1.0), (x21, 1.0)], Eq, 15.0);
        m.add_con(&[(x12, 1.0), (x22, 1.0)], Eq, 15.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        // Optimal: x11=10, x21=5, x22=15 => 10 + 15 + 15 = 40.
        assert_close(r.objective, 40.0);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_le_rows() {
        // Same LP as `textbook_max_problem`. At optimality y·b must equal
        // the primal objective, and every dual of a `<=` row in a
        // minimization is nonpositive (raising the rhs relaxes the
        // feasible set, which can only lower the optimum).
        let mut m = Model::new();
        let x = m.add_var(-3.0, 0.0, f64::INFINITY);
        let y = m.add_var(-5.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Le, 4.0);
        m.add_con(&[(y, 2.0)], Le, 12.0);
        m.add_con(&[(x, 3.0), (y, 2.0)], Le, 18.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_eq!(r.duals.len(), 3);
        let dual_obj: f64 = r.duals.iter().zip([4.0, 12.0, 18.0]).map(|(d, b)| d * b).sum();
        assert_close(dual_obj, r.objective);
        for &d in &r.duals {
            assert!(d <= 1e-9, "Le dual must be nonpositive, got {d}");
        }
    }

    #[test]
    fn duals_satisfy_strong_duality_on_eq_and_ge_rows() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2 => optimum 10.
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        let y = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Eq, 10.0);
        m.add_con(&[(x, 1.0)], Ge, 3.0);
        m.add_con(&[(y, 1.0)], Ge, 2.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        let dual_obj: f64 = r.duals.iter().zip([10.0, 3.0, 2.0]).map(|(d, b)| d * b).sum();
        assert_close(dual_obj, 10.0);
    }

    #[test]
    fn duals_price_every_column_nonnegative_at_optimality() {
        // Transportation LP (all-equality rows). At optimality the reduced
        // cost c_j - y·A_j of every column is >= 0, and ~0 for columns
        // that are strictly positive in the solution — exactly the
        // invariant a pricing oracle relies on.
        let mut m = Model::new();
        let costs = [1.0, 2.0, 3.0, 1.0];
        let vars: Vec<_> = costs.iter().map(|&c| m.add_var(c, 0.0, f64::INFINITY)).collect();
        m.add_con(&[(vars[0], 1.0), (vars[1], 1.0)], Eq, 10.0);
        m.add_con(&[(vars[2], 1.0), (vars[3], 1.0)], Eq, 20.0);
        m.add_con(&[(vars[0], 1.0), (vars[2], 1.0)], Eq, 15.0);
        m.add_con(&[(vars[1], 1.0), (vars[3], 1.0)], Eq, 15.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        // Column j participates in its supply row and its demand row.
        let rows_of = [[0usize, 2], [0, 3], [1, 2], [1, 3]];
        for (j, rows) in rows_of.iter().enumerate() {
            let rc = costs[j] - rows.iter().map(|&i| r.duals[i]).sum::<f64>();
            assert!(rc >= -1e-6, "column {j}: negative reduced cost {rc} at optimality");
            if r.x[j] > 1e-6 {
                assert!(rc.abs() <= 1e-6, "basic column {j}: reduced cost {rc} != 0");
            }
        }
    }

    #[test]
    fn refactorization_counters_populate_on_long_solves() {
        // A model big enough to force more pivots than the refactor
        // interval; with the interval forced to 4, at least one
        // refactorization and many eta updates must be reported.
        let mut m = Model::new();
        let n = 14;
        let vars: Vec<_> =
            (0..n).map(|j| m.add_var(-((j % 5 + 1) as f64) - j as f64 * 1e-3, 0.0, 3.0)).collect();
        for k in 0..6 {
            let terms: Vec<_> =
                vars.iter().enumerate().map(|(j, &v)| (v, ((j + k) % 4 + 1) as f64)).collect();
            m.add_con(&terms, Le, 15.0 + k as f64);
        }
        m.set_refactor_interval(4);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(r.eta_updates > 0, "no eta updates recorded");
        assert!(r.refactorizations > 0, "interval 4 never triggered a refactorization");
    }

    /// A tiny deterministic PRNG (xorshift64*) so the warm-start sweep
    /// does not depend on the proptest shim's sampling strategy.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            let unit = (self.0 >> 11) as f64 / (1u64 << 53) as f64;
            lo + unit * (hi - lo)
        }
        fn next_usize(&mut self, lo: usize, hi: usize) -> usize {
            self.next_f64(lo as f64, hi as f64 + 1.0).floor().min(hi as f64) as usize
        }
    }

    /// Build a random feasible covering-style LP: minimize c x subject to
    /// a few `>=` rows and a capacity `<=` row, all satisfiable.
    fn random_master(rng: &mut Lcg, n: usize, rows: usize) -> Model {
        let mut m = Model::new();
        let vars: Vec<_> =
            (0..n).map(|_| m.add_var(rng.next_f64(0.1, 2.0), 0.0, f64::INFINITY)).collect();
        for _ in 0..rows {
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.next_f64(0.0, 1.0) < 0.7 {
                    terms.push((v, rng.next_f64(0.2, 1.5)));
                }
            }
            if terms.is_empty() {
                continue;
            }
            m.add_con(&terms, Ge, rng.next_f64(0.5, 3.0));
        }
        let all: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_con(&all, Le, 100.0);
        m
    }

    /// The warm-start contract: after `add_column`, a warm re-solve must
    /// reach the same objective as a cold solve of the extended model, to
    /// 1e-9, across a seeded sweep of random masters.
    #[test]
    fn warm_resolve_matches_cold_after_add_column() {
        for seed in 1..=20u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let n = rng.next_usize(3, 7);
            let rows = rng.next_usize(2, 5);
            let mut m = random_master(&mut rng, n, rows);
            let mut warm = None;
            let (first, was_warm) = m.solve_lp_with(&mut warm);
            assert!(!was_warm);
            if first.status != LpStatus::Optimal {
                continue; // rare unbounded/degenerate draw: nothing to compare
            }
            // Append a few columns, re-solving warm after each batch.
            for round in 0..3 {
                let ncols = rng.next_usize(1, 3);
                for _ in 0..ncols {
                    let mut coeffs: Vec<(usize, f64)> = Vec::new();
                    for r in 0..m.num_cons() {
                        if rng.next_f64(0.0, 1.0) < 0.8 {
                            coeffs.push((r, rng.next_f64(0.1, 1.5)));
                        }
                    }
                    m.add_column(rng.next_f64(0.05, 1.0), 0.0, f64::INFINITY, &coeffs);
                }
                let (w, was_warm) = m.solve_lp_with(&mut warm);
                assert!(was_warm, "seed {seed} round {round}: warm path not taken");
                let c = m.solve_lp();
                assert_eq!(w.status, c.status, "seed {seed} round {round}");
                if w.status == LpStatus::Optimal {
                    assert!(
                        (w.objective - c.objective).abs() < 1e-9,
                        "seed {seed} round {round}: warm {} vs cold {}",
                        w.objective,
                        c.objective
                    );
                    assert!(m.is_feasible_point(&w.x, 1e-6), "seed {seed}: warm point infeasible");
                    // Duals must price every column nonnegatively, like a
                    // cold optimum (the pricing loop relies on them).
                    for (j, v) in m.vars.iter().enumerate() {
                        let coef_sum: f64 = v.col.iter().map(|&(r, c)| c * w.duals[r]).sum();
                        assert!(
                            v.obj - coef_sum >= -1e-6,
                            "seed {seed}: column {j} prices negative under warm duals"
                        );
                    }
                }
            }
        }
    }

    /// The model duals of `st`'s basis from a fresh `y = B^-T c_B`,
    /// mapped through the row signs as `extract_optimal` maps them, as
    /// bits.
    fn fresh_dual_bits(m: &Model, st: &WarmState) -> Vec<u64> {
        let mut y: Vec<f64> =
            st.c.basis.iter().map(|&b| st.var_of_col[b].map_or(0.0, |v| m.vars[v].obj)).collect();
        st.c.factor.btran(&mut y);
        st.row_sign.iter().zip(&y).map(|(&s, &yi)| (s * yi).to_bits()).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// An LP result's duals come from its last pricing pass, and they are
    /// bit for bit a fresh BTRAN of the final basis: after a cold solve,
    /// after a dual re-solve of a bound change, and after a re-solve of
    /// grafted columns. A short refactorization interval makes rebuilds
    /// permute the basis rows along the way.
    #[test]
    fn duals_equal_a_fresh_btran_of_the_final_basis() {
        let (mut cold, mut bound, mut graft) = (0, 0, 0);
        for seed in 1..=30u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let n = rng.next_usize(6, 14);
            let rows = rng.next_usize(4, 9);
            let mut m = random_master(&mut rng, n, rows);
            m.set_refactor_interval(3);
            let (lp, state) = solve_with_state(&m, 10_000);
            if lp.status != LpStatus::Optimal {
                continue;
            }
            let mut state = state.unwrap();
            assert_eq!(bits(&lp.duals), fresh_dual_bits(&m, &state), "seed {seed}: cold");
            cold += 1;
            // Cut a basic variable below its value: dual pivots.
            let Some(v) = (0..m.num_vars()).find(|&v| lp.x[v] > 0.5) else { continue };
            m.set_bounds(VarId(v), 0.0, (lp.x[v] / 2.0).floor());
            let out = crate::dual::reoptimize(&m, 10_000, &mut state).expect("warm path");
            if out.lp.status != LpStatus::Optimal {
                continue;
            }
            assert_eq!(bits(&out.lp.duals), fresh_dual_bits(&m, &state), "seed {seed}: bound");
            bound += usize::from(out.dual_pivots > 0);
            // Cheap grafted columns: primal clean-up pivots.
            for _ in 0..2 {
                let coeffs: Vec<(usize, f64)> =
                    (0..m.num_cons()).map(|r| (r, rng.next_f64(0.2, 1.5))).collect();
                m.add_column(rng.next_f64(0.01, 0.1), 0.0, f64::INFINITY, &coeffs);
            }
            let out = crate::dual::reoptimize(&m, 10_000, &mut state).expect("warm path");
            assert_eq!(out.lp.status, LpStatus::Optimal, "seed {seed}: graft");
            assert_eq!(bits(&out.lp.duals), fresh_dual_bits(&m, &state), "seed {seed}: graft");
            graft += usize::from(out.lp.iterations > 0);
        }
        assert!(
            cold >= 20 && bound >= 15 && graft >= 15,
            "{cold} cold, {bound} bound, {graft} graft"
        );
    }

    #[test]
    fn warm_resolve_survives_objective_change() {
        // set_obj between solves is a legitimate warm restart (the basis
        // stays primal feasible); the re-solve must track the new optimum.
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        let y = m.add_var(2.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Ge, 4.0);
        let mut warm = None;
        let (r, _) = m.solve_lp_with(&mut warm);
        assert_close(r.objective, 4.0); // all on x
        m.set_obj(x, 3.0);
        let (r, was_warm) = m.solve_lp_with(&mut warm);
        assert!(was_warm);
        assert_close(r.objective, 8.0); // all on y
    }

    #[test]
    fn warm_state_absorbs_bound_changes() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Ge, 2.0);
        let mut warm = None;
        let _ = m.solve_lp_with(&mut warm);
        assert!(warm.is_some());
        // x <= 1.5 contradicts the row: the warm re-solve appends x's
        // bound row and reaches the cold verdict.
        let mut tight = m.clone();
        tight.set_bounds(x, 0.0, 1.5);
        let mut spent = warm.clone();
        let (r, was_warm) = tight.solve_lp_with(&mut spent);
        assert!(was_warm, "a bound change must re-solve warm");
        assert_eq!(r.status, LpStatus::Infeasible);
        assert_eq!(r.status, tight.solve_lp().status);
        assert!(spent.is_none(), "a non-optimal re-solve keeps no state");
        // A feasible tightening moves the optimum to the new bound.
        m.set_bounds(x, 2.5, f64::INFINITY);
        let (r, was_warm) = m.solve_lp_with(&mut warm);
        assert!(was_warm, "a bound change must re-solve warm");
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, m.solve_lp().objective);
        assert_close(r.objective, 2.5);
        assert!(warm.is_some(), "an optimal re-solve keeps its state");
    }

    #[test]
    fn warm_state_rejects_new_constraints_and_bounded_columns() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Ge, 2.0);
        let mut warm = None;
        let _ = m.solve_lp_with(&mut warm);
        let mut with_row = m.clone();
        with_row.add_con(&[(x, 1.0)], Le, 10.0);
        let mut warm2 = warm.clone();
        let (_, was_warm) = with_row.solve_lp_with(&mut warm2);
        assert!(!was_warm, "row count change must force a cold solve");
        // A finite-ub appended column needs a bound row: cold path.
        m.add_column(0.5, 0.0, 3.0, &[(0, 1.0)]);
        let (r, was_warm) = m.solve_lp_with(&mut warm);
        assert!(!was_warm);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 1.0); // cover the >= 2 with the cheap column
    }

    /// Appending bound rows extends the eta file instead of rebuilding
    /// it: one eta for a basic variable's row, none for a nonbasic one's,
    /// and the grown file solves with the grown basis like a fresh
    /// factorization of it.
    #[test]
    fn appended_bound_row_extends_the_eta_file() {
        // min -2x - y + z s.t. x + y + z <= 4, x - y <= 1: x = 2.5 and
        // y = 1.5 are basic, z is nonbasic at 0.
        let mut m = Model::new();
        let x = m.add_var(-2.0, 0.0, f64::INFINITY);
        let y = m.add_var(-1.0, 0.0, f64::INFINITY);
        let z = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0), (z, 1.0)], Le, 4.0);
        m.add_con(&[(x, 1.0), (y, -1.0)], Le, 1.0);
        let (lp, state) = solve_with_state(&m, 10_000);
        assert_eq!(lp.status, LpStatus::Optimal);
        let mut state = state.unwrap();
        assert!(state.c.in_basis[x.0] && state.c.in_basis[y.0] && !state.c.in_basis[z.0]);
        let refactorizations = state.c.factor.refactorizations;
        let updates = state.c.factor.updates_since_refactor();

        assert!(append_bound_rows(&mut state, &[(x.0, 2.0), (z.0, 3.0)]));
        let c = &state.c;
        assert_eq!(c.rows, 4);
        assert_eq!(c.factor.refactorizations, refactorizations, "no rebuild");
        assert_eq!(c.factor.updates_since_refactor(), updates + 1, "one eta, for x's row");
        // x sits above its new bound: its slack starts at 2 - 2.5.
        assert!((c.xb[2] + 0.5).abs() < 1e-9 && (c.xb[3] - 3.0).abs() < 1e-9);

        // B xb = b0 over the grown basis.
        let mut bx = vec![0.0; c.rows];
        for (&b, &v) in c.basis.iter().zip(&c.xb) {
            for &(i, a) in c.cols.col(b) {
                bx[i] += a * v;
            }
        }
        for (i, (&got, &want)) in bx.iter().zip(&c.b0).enumerate() {
            assert!((got - want).abs() < 1e-9, "row {i}: B xb = {got}, b0 = {want}");
        }

        // Every column transforms as through a fresh factorization.
        let mut fresh = c.clone();
        fresh.factor = Factor::identity();
        assert!(fresh.factor.refactor(|j| fresh.cols.col(j), &mut fresh.basis));
        let (mut w, mut w_fresh) = (Vec::new(), Vec::new());
        for j in 0..c.ncols() {
            c.ftran_col(j, &mut w);
            fresh.ftran_col(j, &mut w_fresh);
            for (r, &b) in c.basis.iter().enumerate() {
                let r2 = fresh.basis.iter().position(|&b2| b2 == b).expect("same basis set");
                assert!(
                    (w[r] - w_fresh[r2]).abs() < 1e-9,
                    "column {j}, basic {b}: eta file {} vs fresh {}",
                    w[r],
                    w_fresh[r2]
                );
            }
        }
    }

    /// Variable `v`'s column as the state should hold it: its model
    /// entries sign-normalized, in model order, then its bound-row entry.
    fn expected_col(m: &Model, st: &WarmState, v: usize) -> Vec<(usize, u64)> {
        let mut col: Vec<(usize, f64)> =
            m.vars[v].col.iter().map(|&(r, c)| (r, st.row_sign[r] * c)).collect();
        col.extend(st.bound_row_of_var[v].map(|br| (br, 1.0)));
        col.iter().map(|&(r, c)| (r, c.to_bits())).collect()
    }

    fn col_bits(st: &WarmState, j: usize) -> Vec<(usize, u64)> {
        st.c.cols.col(j).iter().map(|&(r, c)| (r, c.to_bits())).collect()
    }

    /// A covering LP whose columns are all `[0, inf)`: `x0..x3` cover
    /// three rows, `x4` is too expensive to ever be basic.
    fn arena_model() -> (Model, WarmState) {
        let mut m = Model::new();
        let v: Vec<_> =
            [1.0, 1.2, 1.5, 0.9, 50.0].iter().map(|&c| m.add_var(c, 0.0, f64::INFINITY)).collect();
        m.add_con(&[(v[0], 1.0), (v[1], 2.0), (v[4], 1.0)], Ge, 3.0);
        m.add_con(&[(v[1], 1.0), (v[2], 1.0), (v[4], 1.0)], Ge, 2.0);
        m.add_con(&[(v[0], 1.0), (v[2], 3.0), (v[3], 1.0), (v[4], 1.0)], Ge, 4.0);
        let (lp, state) = solve_with_state(&m, 10_000);
        assert_eq!(lp.status, LpStatus::Optimal);
        (m, state.unwrap())
    }

    /// A column that gains its bound-row entry while other columns lie
    /// behind it in the arena moves to the end with its entries in
    /// order and `(r, 1.0)` last; every other column keeps its entries.
    #[test]
    fn bound_entry_moves_a_column_to_the_arena_end_in_order() {
        let (m, mut state) = arena_model();
        for v in [0, 2, 1] {
            let col = state.col_of_var[v];
            assert_ne!(state.c.cols.spans[col].1, state.c.cols.entries.len(), "premise: not last");
            let others: Vec<_> =
                (0..state.c.ncols()).filter(|&j| j != col).map(|j| col_bits(&state, j)).collect();
            let r = state.c.rows;
            assert!(append_bound_rows(&mut state, &[(v, 1.0)]));
            assert_eq!(state.bound_row_of_var[v], Some(r));
            let got = col_bits(&state, col);
            assert_eq!(got.last(), Some(&(r, 1.0f64.to_bits())));
            assert_eq!(got, expected_col(&m, &state, v), "variable {v}");
            let after: Vec<_> = (0..state.c.ncols() - 1)
                .filter(|&j| j != col)
                .map(|j| col_bits(&state, j))
                .collect();
            assert_eq!(after, others, "variable {v}: another column moved");
            assert_eq!(col_bits(&state, state.c.ncols() - 1), vec![(r, 1.0f64.to_bits())]);
        }
        assert!(state.c.cols.entries.len() > state.c.cols.nnz(), "moves leave dead space");
    }

    /// A purge after such moves keeps every surviving column intact and
    /// drops the dead space; the basis weight counts live entries only,
    /// before and after.
    #[test]
    fn purge_after_moves_keeps_columns_and_counts_live_weight() {
        let (mut m, mut state) = arena_model();
        assert!(append_bound_rows(&mut state, &[(0, 2.0), (2, 1.0), (1, 3.0)]));
        let live_weight = |st: &WarmState| {
            let nnz: usize = st.c.cols.iter().map(|c| c.len()).sum();
            nnz + st.c.factor.nnz() + 6 * st.c.rows
        };
        assert!(state.c.cols.entries.len() > state.c.cols.nnz());
        assert_eq!(state.weight(), live_weight(&state));
        let survivors: Vec<_> = (0..state.c.ncols())
            .filter(|&j| state.var_of_col[j] != Some(4))
            .map(|j| col_bits(&state, j))
            .collect();
        assert!(!state.c.in_basis[state.col_of_var[4]], "premise: x4 is nonbasic");
        assert!(purge_columns(&mut m, Some(&mut state), &[VarId(4)]));
        let kept: Vec<_> = (0..state.c.ncols()).map(|j| col_bits(&state, j)).collect();
        assert_eq!(kept, survivors);
        for v in 0..m.num_vars() {
            assert_eq!(state.var_of_col[state.col_of_var[v]], Some(v));
            assert_eq!(col_bits(&state, state.col_of_var[v]), expected_col(&m, &state, v));
        }
        assert_eq!(state.c.cols.entries.len(), state.c.cols.nnz(), "no dead space left");
        assert_eq!(state.weight(), live_weight(&state));
    }

    /// A clone owns its storage: appending a bound row to the clone and
    /// pivoting it past a rebuild leaves the original's solves bit for
    /// bit as they were.
    #[test]
    fn a_grown_clone_leaves_its_original_alone() {
        let (m, state) = arena_model();
        let solves = |st: &WarmState| {
            let mut costs = vec![0.0; st.c.ncols()];
            for (c, v) in st.var_of_col.iter().enumerate() {
                costs[c] = v.map_or(0.0, |v| m.vars[v].obj);
            }
            let (mut w, mut y) = (Vec::new(), Vec::new());
            let mut bits: Vec<Vec<u64>> = (0..st.c.ncols())
                .map(|j| {
                    st.c.ftran_col(j, &mut w);
                    w.iter().map(|x| x.to_bits()).collect()
                })
                .collect();
            st.c.btran_costs(&costs, &mut y);
            bits.push(y.iter().map(|x| x.to_bits()).collect());
            bits
        };
        let before = solves(&state);
        let mut clone = state.clone();
        clone.c.refactor_interval = 1;
        // Pick a basic structural variable and cut it below its value.
        let (lp, _) = solve_with_state(&m, 10_000);
        let v = (0..m.num_vars())
            .find(|&v| state.c.in_basis[state.col_of_var[v]] && lp.x[v] > 0.5)
            .expect("a basic variable above 0.5");
        let mut tight = m.clone();
        tight.set_bounds(VarId(v), 0.0, (lp.x[v] - 0.5).floor().max(0.0));
        let out = crate::dual::reoptimize(&tight, 10_000, &mut clone).expect("warm path");
        assert!(out.dual_pivots >= 1, "the cut must pivot");
        assert!(clone.c.factor.refactorizations > state.c.factor.refactorizations);
        assert_eq!(clone.c.rows, state.c.rows + 1);
        assert_eq!(solves(&state), before);
    }

    #[test]
    fn purge_compacts_model_and_warm_state() {
        // Build a master, graft columns, purge a nonbasic one, and keep
        // re-solving warm: objectives must keep matching cold solves of
        // the compacted model.
        let mut m = Model::new();
        let a = m.add_var(1.0, 0.0, f64::INFINITY);
        let b = m.add_var(1.5, 0.0, f64::INFINITY);
        m.add_con(&[(a, 1.0), (b, 1.0)], Ge, 4.0);
        m.add_con(&[(a, 1.0)], Le, 3.0);
        let mut warm = None;
        let (r, _) = m.solve_lp_with(&mut warm);
        assert_eq!(r.status, LpStatus::Optimal);
        // An expensive column that will never be basic.
        let junk = m.add_column(9.0, 0.0, f64::INFINITY, &[(0, 1.0)]);
        let (r, was_warm) = m.solve_lp_with(&mut warm);
        assert!(was_warm);
        assert_close(r.x[junk.0], 0.0);
        let before = m.num_vars();
        assert!(purge_columns(&mut m, warm.as_mut(), &[junk]));
        assert_eq!(m.num_vars(), before - 1);
        let (r2, was_warm) = m.solve_lp_with(&mut warm);
        assert!(was_warm, "purge must keep the warm state usable");
        assert_close(r2.objective, r.objective);
        let cold = m.solve_lp();
        assert_close(r2.objective, cold.objective);
        // And the purged state still grafts fresh columns.
        m.add_column(0.25, 0.0, f64::INFINITY, &[(0, 1.0)]);
        let (r3, was_warm) = m.solve_lp_with(&mut warm);
        assert!(was_warm);
        assert_close(r3.objective, 0.25 * 4.0);
    }

    #[test]
    fn purge_refuses_basic_columns_and_bound_rows() {
        let mut m = Model::new();
        let a = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(a, 1.0)], Ge, 2.0);
        let mut warm = None;
        let _ = m.solve_lp_with(&mut warm);
        // `a` is basic (it carries the covering): refuse.
        assert!(!purge_columns(&mut m, warm.as_mut(), &[a]));
        assert_eq!(m.num_vars(), 1);
        // A bounded variable owns a bound row: refuse even when nonbasic.
        let mut m2 = Model::new();
        let p = m2.add_var(1.0, 0.0, f64::INFINITY);
        let q = m2.add_var(2.0, 0.0, 5.0);
        m2.add_con(&[(p, 1.0), (q, 1.0)], Ge, 2.0);
        let mut warm2 = None;
        let _ = m2.solve_lp_with(&mut warm2);
        assert!(!purge_columns(&mut m2, warm2.as_mut(), &[q]));
        // Out-of-range and duplicate victims are rejected too.
        assert!(!purge_columns(&mut m2, warm2.as_mut(), &[VarId(99)]));
        assert!(!purge_columns(&mut m2, warm2.as_mut(), &[p, p]));
    }

    /// A compact dense two-phase simplex, kept as a test oracle for the
    /// sparse revised engine (satellite 4(a)). Solve-only: no warm
    /// starts, no duals — just the optimal objective.
    mod dense_oracle {
        use crate::model::{LpStatus, Model, Relation};
        use crate::TOL;

        pub fn solve(model: &Model) -> (LpStatus, f64) {
            let n = model.num_vars();
            let lbs: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
            let mut rows: Vec<(Vec<f64>, Relation, f64)> =
                model.cons.iter().map(|con| (vec![0.0; n], con.rel, con.rhs)).collect();
            for (j, v) in model.vars.iter().enumerate() {
                for &(r, c) in &v.col {
                    rows[r].0[j] += c;
                    rows[r].2 -= c * lbs[j];
                }
            }
            for (j, v) in model.vars.iter().enumerate() {
                if v.ub.is_finite() {
                    let range = v.ub - v.lb;
                    if range < -TOL {
                        return (LpStatus::Infeasible, 0.0);
                    }
                    let mut coeffs = vec![0.0; n];
                    coeffs[j] = 1.0;
                    rows.push((coeffs, Relation::Le, range.max(0.0)));
                }
            }
            if rows.is_empty() {
                if model.vars.iter().any(|v| v.obj < -TOL) {
                    return (LpStatus::Unbounded, 0.0);
                }
                let obj = model.vars.iter().map(|v| v.obj * v.lb).sum();
                return (LpStatus::Optimal, obj);
            }
            let m = rows.len();
            let num_slacks = rows.iter().filter(|(_, rel, _)| *rel != Relation::Eq).count();
            let cols = n + num_slacks + m;
            let width = cols + 1;
            let mut a = vec![0.0; m * width];
            let mut basis = vec![usize::MAX; m];
            let mut obj = vec![0.0; width];
            let art_start = n + num_slacks;
            let mut next_slack = n;
            let mut next_art = art_start;
            for (r, (coeffs, rel, rhs)) in rows.iter().enumerate() {
                let sign = if *rhs < 0.0 { -1.0 } else { 1.0 };
                for (j, &c) in coeffs.iter().enumerate() {
                    a[r * width + j] = sign * c;
                }
                a[r * width + cols] = sign * rhs;
                let slack = match rel {
                    Relation::Le => {
                        let s = next_slack;
                        next_slack += 1;
                        a[r * width + s] = sign;
                        Some((s, sign))
                    }
                    Relation::Ge => {
                        let s = next_slack;
                        next_slack += 1;
                        a[r * width + s] = -sign;
                        Some((s, -sign))
                    }
                    Relation::Eq => None,
                };
                match slack {
                    Some((s, coef)) if coef > 0.0 => basis[r] = s,
                    _ => {
                        let art = next_art;
                        next_art += 1;
                        a[r * width + art] = 1.0;
                        basis[r] = art;
                    }
                }
            }
            let pivot = |a: &mut Vec<f64>,
                         obj: &mut Vec<f64>,
                         basis: &mut Vec<usize>,
                         prow: usize,
                         pcol: usize| {
                let inv = 1.0 / a[prow * width + pcol];
                for c in 0..width {
                    a[prow * width + c] *= inv;
                }
                for r in 0..m {
                    if r == prow {
                        continue;
                    }
                    let f = a[r * width + pcol];
                    if f.abs() > 1e-12 {
                        for c in 0..width {
                            a[r * width + c] -= f * a[prow * width + c];
                        }
                    }
                }
                let f = obj[pcol];
                if f.abs() > 1e-12 {
                    for c in 0..width {
                        obj[c] -= f * a[prow * width + c];
                    }
                }
                basis[prow] = pcol;
            };
            let optimize = |a: &mut Vec<f64>,
                            obj: &mut Vec<f64>,
                            basis: &mut Vec<usize>,
                            hi: usize|
             -> LpStatus {
                for _ in 0..20_000 {
                    // Bland's rule throughout: slow but cycle-free — it is
                    // only an oracle.
                    let Some(pcol) = (0..hi).find(|&c| obj[c] < -TOL) else {
                        return LpStatus::Optimal;
                    };
                    let mut best: Option<(f64, usize)> = None;
                    for r in 0..m {
                        let v = a[r * width + pcol];
                        if v > TOL {
                            let ratio = a[r * width + cols] / v;
                            match best {
                                Some((br, _)) if br <= ratio => {}
                                _ => best = Some((ratio, r)),
                            }
                        }
                    }
                    let Some((_, prow)) = best else { return LpStatus::Unbounded };
                    pivot(a, obj, basis, prow, pcol);
                }
                LpStatus::IterLimit
            };
            if next_art > art_start {
                for r in 0..m {
                    if basis[r] >= art_start {
                        for c in 0..width {
                            obj[c] -= a[r * width + c];
                        }
                    }
                }
                for o in &mut obj[art_start..next_art] {
                    *o += 1.0;
                }
                let st = optimize(&mut a, &mut obj, &mut basis, cols);
                if st != LpStatus::Optimal || -obj[cols] > 1e-6 {
                    return (LpStatus::Infeasible, 0.0);
                }
                for r in 0..m {
                    if basis[r] >= art_start {
                        if let Some(pcol) = (0..art_start).find(|&c| a[r * width + c].abs() > 1e-6)
                        {
                            pivot(&mut a, &mut obj, &mut basis, r, pcol);
                        }
                    }
                }
            }
            obj.iter_mut().for_each(|v| *v = 0.0);
            for (j, v) in model.vars.iter().enumerate() {
                obj[j] = v.obj;
            }
            for r in 0..m {
                let b = basis[r];
                let cost = obj[b];
                if cost.abs() > 1e-12 {
                    for c in 0..width {
                        obj[c] -= cost * a[r * width + c];
                    }
                    obj[b] = 0.0;
                }
            }
            let st = optimize(&mut a, &mut obj, &mut basis, art_start);
            if st != LpStatus::Optimal {
                return (st, 0.0);
            }
            let mut x = lbs.clone();
            for r in 0..m {
                if basis[r] < n {
                    x[basis[r]] = lbs[basis[r]] + a[r * width + cols].max(0.0);
                }
            }
            (LpStatus::Optimal, model.objective_value(&x))
        }
    }

    /// Satellite 4(a): the sparse revised engine must agree with the
    /// dense oracle on status and objective over a seeded sweep of
    /// `add_column` extensions and bound changes.
    #[test]
    fn revised_matches_dense_oracle_over_column_and_bound_sweeps() {
        for seed in 1..=30u64 {
            let mut rng = Lcg(seed.wrapping_mul(0xA24BAED4963EE407) | 1);
            let n = rng.next_usize(3, 6);
            let rows = rng.next_usize(2, 5);
            let mut m = Model::new();
            let vars: Vec<_> = (0..n)
                .map(|_| m.add_var(rng.next_f64(-1.0, 2.0), 0.0, rng.next_f64(2.0, 10.0)))
                .collect();
            for _ in 0..rows {
                let terms: Vec<_> = vars.iter().map(|&v| (v, rng.next_f64(0.1, 1.5))).collect();
                let r = if rng.next_f64(0.0, 1.0) < 0.5 { Ge } else { Le };
                m.add_con(&terms, r, rng.next_f64(1.0, 10.0));
            }
            for round in 0..4 {
                // Alternate: append a column, then tighten a bound.
                if round % 2 == 0 {
                    let coeffs: Vec<(usize, f64)> =
                        (0..m.num_cons()).map(|r| (r, rng.next_f64(0.1, 1.2))).collect();
                    m.add_column(rng.next_f64(-0.5, 1.0), 0.0, f64::INFINITY, &coeffs);
                } else {
                    let j = rng.next_usize(0, n - 1);
                    let (lb, ub) = m.bounds(vars[j]);
                    if ub.is_finite() {
                        let mid = lb + rng.next_f64(0.0, ub - lb);
                        if rng.next_f64(0.0, 1.0) < 0.5 {
                            m.set_bounds(vars[j], lb, mid);
                        } else {
                            m.set_bounds(vars[j], mid, ub);
                        }
                    }
                }
                let r = m.solve_lp();
                let (ost, oobj) = dense_oracle::solve(&m);
                assert_eq!(r.status, ost, "seed {seed} round {round}: status diverged");
                if ost == LpStatus::Optimal {
                    assert!(
                        (r.objective - oobj).abs() < 1e-6,
                        "seed {seed} round {round}: revised {} vs dense {}",
                        r.objective,
                        oobj
                    );
                    assert!(
                        m.is_feasible_point(&r.x, 1e-5),
                        "seed {seed} round {round}: revised point infeasible"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Random LPs constructed around a known feasible point: the solver
        /// must (a) report optimal, (b) return a feasible point, (c) reach
        /// an objective no worse than the seed point's.
        #[test]
        fn solves_random_feasible_lps(
            seed_x in proptest::collection::vec(0.0f64..5.0, 3..6),
            rows in proptest::collection::vec(
                proptest::collection::vec(-2.0f64..2.0, 6), 2..8),
            costs in proptest::collection::vec(-1.0f64..1.0, 6),
        ) {
            let n = seed_x.len();
            let mut m = Model::new();
            let vars: Vec<_> = (0..n).map(|j| m.add_var(costs[j], 0.0, 10.0)).collect();
            for row in &rows {
                let terms: Vec<_> = vars.iter().zip(row).map(|(&v, &c)| (v, c)).collect();
                let lhs: f64 = row.iter().take(n).zip(&seed_x).map(|(c, x)| c * x).sum();
                m.add_con(&terms[..n], Le, lhs + 0.5);
            }
            let r = m.solve_lp();
            proptest::prop_assert_eq!(r.status, LpStatus::Optimal);
            proptest::prop_assert!(m.is_feasible_point(&r.x, 1e-5));
            let seed_obj: f64 = seed_x.iter().zip(&costs).map(|(x, c)| x * c).sum();
            proptest::prop_assert!(r.objective <= seed_obj + 1e-6);
        }
    }
}
