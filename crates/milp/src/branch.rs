//! Branch & bound for mixed-integer linear programs, with warm-started
//! node LPs and an in-tree pricing hook.
//!
//! Depth-first search over LP relaxations with most-fractional branching.
//! The child closer to the relaxation value is explored first (a diving
//! strategy that finds integral incumbents quickly on the pattern MILPs
//! the EPTAS generates, where LP optima are near-integral).
//!
//! **Node warm starts**: a
//! child node differs from its parent by one variable-bound change, under
//! which the parent's optimal basis stays dual feasible. Each node hands
//! its final basis ([`crate::simplex::WarmState`]) to its children, which
//! re-optimize through [`crate::simplex::solve_warm`] (the dual simplex,
//! [`crate::dual::reoptimize`]) instead of a cold phase-1/phase-2 solve.
//! Branching down on a variable without a finite upper bound — every
//! column of the EPTAS's restricted MILP, tree-priced or not, starts
//! `[0, inf)` — appends that variable's bound row to the child's basis
//! and at most one eta to its factorization, with no rebuild, so a node
//! falls back to the cold solve only on a numerically singular step or
//! an iteration-limited warm re-solve. The root re-solves the same way
//! when the caller hands it a starting basis ([`solve_milp_with`]): the
//! EPTAS passes the pricing master's final basis
//! ([`crate::simplex::WarmState::from_basis`]), so with column generation
//! in front no node LP of the search solves cold.
//! Basis hand-off is by reference count: small bases are shared with both
//! children, large ones only with the dive child (the sibling re-solves
//! cold on backtrack) to bound memory by O(1) bases instead of O(depth).
//!
//! **In-tree pricing** ([`TreePricer`], [`solve_milp_with`]): on
//! restricted column pools the LP-feasible region at a node may be
//! missing exactly the columns that would make the dive land. A pricer
//! is consulted at fractional optimal nodes and may append columns
//! (`Model::add_column` + `set_integer`); the node LP is re-solved by
//! grafting the columns onto the warm basis and the node re-branches.
//! Columns persist for the rest of the tree. Pricing presumes
//! first-solution (feasibility) mode: nodes are never pruned against an
//! incumbent before the first incumbent exists, so columns appended
//! mid-tree cannot invalidate earlier pruning decisions. The search
//! runs on the model as given, with no presolve: the pattern MILPs carry
//! no singleton rows to turn into bounds, and a pricer addresses
//! constraint rows by index.
//!
//! Budgets (nodes, wall-clock) are explicit: exhausting one yields
//! [`MilpStatus::Feasible`] if an incumbent exists, otherwise
//! [`MilpStatus::Budget`] — never a silent wrong answer.

use crate::model::{LpResult, LpStatus, Model, VarId};
use crate::simplex::{self, WarmState};
use crate::TOL;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation probe, polled by the branch-and-bound loop
/// between nodes exactly where the node/time budgets are checked. The
/// closure must be cheap (an atomic load or two) and is shared across
/// threads — the caller races solves and trips the probe of the losers.
#[derive(Clone)]
pub struct CancelProbe(Arc<dyn Fn() -> bool + Send + Sync>);

impl CancelProbe {
    /// Wrap a predicate; `true` means "stop as soon as convenient".
    pub fn new(f: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        CancelProbe(Arc::new(f))
    }

    /// Poll the probe.
    pub fn is_cancelled(&self) -> bool {
        (self.0)()
    }
}

impl std::fmt::Debug for CancelProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CancelProbe(..)")
    }
}

/// Budgets and tolerances for [`solve_milp`].
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum branch-and-bound nodes.
    pub max_nodes: usize,
    /// Wall-clock limit.
    pub time_limit: Duration,
    /// Stop as soon as *any* integral solution is found (feasibility mode —
    /// the paper's MILP is a pure feasibility question).
    pub first_solution: bool,
    /// Consult the in-tree pricer only once this many nodes were explored
    /// (without an incumbent, in first-solution mode): a dive that lands
    /// quickly never pays for pricing, a struggling one — the symptom of
    /// a missing column — gets rescued.
    pub price_after_nodes: usize,
    /// Cooperative cancellation, polled beside the node/time budgets. A
    /// tripped probe stops the search like an exhausted budget
    /// ([`MilpStatus::Feasible`] with an incumbent, [`MilpStatus::Budget`]
    /// without) — never a silent wrong answer. `None` never cancels.
    pub cancel: Option<CancelProbe>,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            max_nodes: 50_000,
            time_limit: Duration::from_secs(60),
            first_solution: false,
            price_after_nodes: 32,
            cancel: None,
        }
    }
}

/// In-tree column generator consulted at fractional optimal nodes.
///
/// Implementations append improving columns to `model` (via
/// [`Model::add_column`], marking them integer as needed) and return the
/// new variables; an empty return means "no improving column under these
/// node duals" and ends the pricing loop at this node. The pricer is
/// responsible for its own round budget.
pub trait TreePricer {
    /// Price against the node-LP solution `lp` (duals included).
    fn price(&mut self, model: &mut Model, lp: &LpResult) -> Vec<VarId>;
}

/// Outcome status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal integral solution.
    Optimal,
    /// Integral solution found, but a budget stopped the optimality proof
    /// (or `first_solution` was set).
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// A budget was exhausted before any integral solution was found;
    /// feasibility is unknown.
    Budget,
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub struct MilpResult {
    pub status: MilpStatus,
    /// Best integral solution (empty unless `Optimal`/`Feasible`),
    /// spanning every column of the final model — tree-priced ones
    /// included (pricing only runs before the first incumbent, so the
    /// incumbent already covers them).
    pub x: Vec<f64>,
    /// Its objective value.
    pub objective: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex iterations across all LP solves (dual pivots and
    /// warm clean-up pivots included).
    pub lp_iterations: usize,
    /// Number of LP relaxations solved (one per explored node, plus
    /// re-solves after in-tree pricing).
    pub lp_solves: usize,
    /// Dual-simplex pivots spent re-optimizing warm node LPs.
    pub dual_pivots: usize,
    /// Node LPs that started from the parent basis instead of cold.
    pub node_warm_starts: usize,
    /// Columns appended by the in-tree pricer.
    pub tree_columns: usize,
    /// Basis refactorizations across all accepted LP solves.
    pub basis_refactorizations: usize,
    /// Eta updates (factorized pivots) across all accepted LP solves.
    pub eta_updates: usize,
}

impl MilpResult {
    /// Add one node-LP (re-)solve to the work counters; `dual_pivots` is
    /// `Some` when the solve was an accepted warm re-optimization.
    fn count_lp(&mut self, lp: &LpResult, dual_pivots: Option<usize>) {
        self.lp_solves += 1;
        self.lp_iterations += lp.iterations;
        self.dual_pivots += dual_pivots.unwrap_or(0);
        self.basis_refactorizations += lp.refactorizations;
        self.eta_updates += lp.eta_updates;
    }
}

/// Warm bases up to this weight (stored nonzeros plus per-row vectors,
/// see [`WarmState::weight`]) are shared with both children; larger ones
/// ride only with the dive child, so the stack never holds more than
/// O(1) large bases.
const SHARE_CELL_BUDGET: usize = 250_000;

/// A value within this distance of an integer counts as integral.
const INT_TOL: f64 = 1e-6;

struct Node {
    /// Bound overrides along the path from the root: `(var, lb, ub)`.
    bounds: Vec<(usize, f64, f64)>,
    /// Parent LP objective (a lower bound for this node), used for pruning
    /// before the LP is solved.
    parent_bound: f64,
    /// The parent's final basis, when inherited.
    warm: Option<Rc<WarmState>>,
}

/// What a processed node asks the search to do next.
enum NodeOutcome {
    /// Nothing to explore further (infeasible, dominated, or handled).
    Pruned,
    /// A budget-type LP failure (iteration limit).
    BudgetHit,
    /// Root relaxation unbounded.
    UnboundedRoot,
    /// The node LP is integral: a candidate incumbent.
    Incumbent(Vec<f64>),
    /// Branch on variable `j` at fractional value `v` with effective
    /// bounds `(lb, ub)`; `state` is this node's final basis.
    Branch { j: usize, v: f64, lb: f64, ub: f64, obj: f64, state: Option<Box<WarmState>> },
}

/// Solve `model` to integral optimality (subject to budgets).
pub fn solve_milp(model: &Model, opts: &MilpOptions) -> MilpResult {
    solve_milp_with(model, opts, None, None)
}

/// Like [`solve_milp`], with an optional in-tree pricer consulted at
/// fractional optimal nodes (see [`TreePricer`]) and an optional starting
/// basis for the root node LP, typically [`WarmState::from_basis`] of a
/// related LP's final basis. The root re-solves from it through
/// [`simplex::solve_warm`] like any other node, cold when the warm
/// attempt fails.
///
/// Claim semantics with a pricer: once any column was grafted, subtrees
/// explored *before* the graft were not re-explored, so an exhausted
/// search returns [`MilpStatus::Feasible`] (never `Optimal`), and an
/// [`MilpStatus::Infeasible`] verdict is relative to the columns each
/// subtree saw — treat it as "infeasible over this pool", exactly how a
/// restricted-pool verdict must be read anyway.
pub fn solve_milp_with(
    model: &Model,
    opts: &MilpOptions,
    mut pricer: Option<&mut dyn TreePricer>,
    root: Option<WarmState>,
) -> MilpResult {
    let _span = bagsched_types::obs::Span::enter("milp.bnb");
    let start = Instant::now();
    // The work counters accumulate here as the search runs; status and
    // solution are filled in on exit.
    let mut res = MilpResult {
        status: MilpStatus::Budget,
        x: vec![],
        objective: f64::INFINITY,
        nodes: 0,
        lp_iterations: 0,
        lp_solves: 0,
        dual_pivots: 0,
        node_warm_starts: 0,
        tree_columns: 0,
        basis_refactorizations: 0,
        eta_updates: 0,
    };
    let mut int_vars: Vec<usize> =
        (0..model.num_vars()).filter(|&j| model.is_integer(VarId(j))).collect();
    let iter_limit = simplex::default_iter_limit(model);

    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    let mut budget_hit = false;
    let mut unbounded_root = false;

    let mut stack =
        vec![Node { bounds: Vec::new(), parent_bound: f64::NEG_INFINITY, warm: root.map(Rc::new) }];
    let mut work = model.clone();

    'search: while let Some(node) = stack.pop() {
        if res.nodes >= opts.max_nodes
            || start.elapsed() > opts.time_limit
            || opts.cancel.as_ref().is_some_and(|c| c.is_cancelled())
        {
            budget_hit = true;
            break;
        }
        if let Some((_, inc_obj)) = &incumbent {
            if node.parent_bound >= *inc_obj - TOL {
                continue; // dominated before solving
            }
        }
        res.nodes += 1;
        let at_root = node.bounds.is_empty();

        // Apply node bounds on the shared work model; restored after the
        // node is fully processed (pricing re-solves run under them too).
        let saved: Vec<(usize, f64, f64)> = node
            .bounds
            .iter()
            .map(|&(j, _, _)| {
                let (lb, ub) = work.bounds(VarId(j));
                (j, lb, ub)
            })
            .collect();
        for &(j, lb, ub) in &node.bounds {
            work.set_bounds(VarId(j), lb, ub);
        }

        let outcome = 'node: {
            // ---- Node LP: warm from the parent basis, cold fallback. ----
            let mut state =
                node.warm.map(|rc| Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone()));
            let (mut lp, warm_pivots) = simplex::solve_warm(&work, iter_limit, &mut state);
            res.node_warm_starts += usize::from(warm_pivots.is_some());
            res.count_lp(&lp, warm_pivots);

            loop {
                match lp.status {
                    LpStatus::Infeasible => break 'node NodeOutcome::Pruned,
                    LpStatus::Unbounded => {
                        // Unbounded relaxation at the root means the MILP
                        // itself is unbounded or ill-posed; deeper in the
                        // tree it cannot happen (bounds only tighten), but
                        // handle it defensively.
                        break 'node if at_root {
                            NodeOutcome::UnboundedRoot
                        } else {
                            NodeOutcome::Pruned
                        };
                    }
                    LpStatus::IterLimit => break 'node NodeOutcome::BudgetHit,
                    LpStatus::Optimal => {}
                }

                if let Some((_, inc_obj)) = &incumbent {
                    if lp.objective >= *inc_obj - TOL {
                        break 'node NodeOutcome::Pruned;
                    }
                }

                // Most fractional integer variable.
                let mut branch_var: Option<(f64, usize)> = None;
                for &j in &int_vars {
                    let v = lp.x[j];
                    let frac = (v - v.round()).abs();
                    if frac > INT_TOL {
                        let score = (v.fract() - 0.5).abs(); // smaller = more fractional
                        match branch_var {
                            Some((s, _)) if s <= score => {}
                            _ => branch_var = Some((score, j)),
                        }
                    }
                }
                let Some((_, j)) = branch_var else {
                    break 'node NodeOutcome::Incumbent(lp.x.clone());
                };

                // ---- In-tree pricing: the pool may be missing columns
                // that would let this fractional node land. Only consulted
                // once the search shows signs of struggle (healthy dives
                // land within a few nodes and must not pay for pricing),
                // and only while no incumbent exists — afterwards
                // subtrees are pruned against the incumbent, which new
                // columns could not reopen (in first-solution mode the
                // first incumbent returns immediately, so the gate is
                // vacuous there).
                if let Some(p) = pricer
                    .as_deref_mut()
                    .filter(|_| res.nodes >= opts.price_after_nodes && incumbent.is_none())
                {
                    let added = p.price(&mut work, &lp);
                    if !added.is_empty() {
                        res.tree_columns += added.len();
                        int_vars.extend(added.iter().filter(|&&v| work.is_integer(v)).map(|v| v.0));
                        // Re-solve with the new columns grafted onto this
                        // node's basis (no bound deltas: the snapshot
                        // already carries the node bounds).
                        let warm_pivots;
                        (lp, warm_pivots) = simplex::solve_warm(&work, iter_limit, &mut state);
                        res.count_lp(&lp, warm_pivots);
                        continue; // statuses and branching var re-derived
                    }
                }

                let (lb, ub) = work.bounds(VarId(j));
                break 'node NodeOutcome::Branch {
                    j,
                    v: lp.x[j],
                    lb,
                    ub,
                    obj: lp.objective,
                    state: state.take().map(Box::new),
                };
            }
        };

        for &(j, lb, ub) in &saved {
            work.set_bounds(VarId(j), lb, ub);
        }

        let (j, v, lb, ub, obj, state) = match outcome {
            NodeOutcome::Pruned => continue,
            NodeOutcome::BudgetHit => {
                budget_hit = true;
                continue;
            }
            NodeOutcome::UnboundedRoot => {
                unbounded_root = true;
                break 'search;
            }
            NodeOutcome::Incumbent(mut x) => {
                for &jj in &int_vars {
                    x[jj] = x[jj].round();
                }
                let obj = work.objective_value(&x);
                let better = incumbent.as_ref().is_none_or(|(_, inc)| obj < *inc - TOL);
                if better {
                    incumbent = Some((x, obj));
                    if opts.first_solution {
                        break 'search;
                    }
                }
                continue;
            }
            NodeOutcome::Branch { j, v, lb, ub, obj, state } => (j, v, lb, ub, obj, state),
        };

        let floor = v.floor();
        let ceil = v.ceil();

        let mut down = node.bounds.clone();
        down.push((j, lb, floor.min(ub)));
        let mut up = node.bounds.clone();
        up.push((j, ceil.max(lb), ub));

        // Hand the node basis to the children: both when the tableau is
        // small, only the dive child when it is large (the sibling then
        // re-solves cold on backtrack, trading pivots for memory). A
        // parked basis keeps no spare arena capacity.
        let rc = state.map(|mut boxed| {
            boxed.shrink_to_fit();
            Rc::new(*boxed)
        });
        let share_both = rc.as_ref().is_some_and(|s| s.weight() <= SHARE_CELL_BUDGET);
        let (warm_dive, warm_other) = if share_both { (rc.clone(), rc) } else { (rc, None) };

        let dive_down = v - floor <= 0.5;
        let down_node = Node {
            bounds: down,
            parent_bound: obj,
            warm: if dive_down { warm_dive.clone() } else { warm_other.clone() },
        };
        let up_node = Node {
            bounds: up,
            parent_bound: obj,
            warm: if dive_down { warm_other } else { warm_dive },
        };
        // DFS: push the less promising child first so the child closer to
        // the LP value is explored next (diving).
        if dive_down {
            stack.push(up_node);
            stack.push(down_node);
        } else {
            stack.push(down_node);
            stack.push(up_node);
        }
    }

    if unbounded_root {
        res.status = MilpStatus::Unbounded;
        res.objective = f64::NEG_INFINITY;
        return res;
    }
    match incumbent {
        Some((mut x, objective)) => {
            // Defensive: pricing is gated on `incumbent.is_none()`, so
            // the incumbent already spans every column and this is a
            // no-op; it pins the x-covers-all-columns invariant should
            // the gate ever change (zeros are sound — an absent column
            // contributes nothing to any row).
            x.resize(work.num_vars(), 0.0);
            // An exhausted stack proves optimality only over the columns
            // each pruned subtree saw: a column grafted later could have
            // re-opened an already-pruned (dominated or infeasible)
            // subtree, so any tree-priced column degrades the claim to
            // Feasible.
            let proven = !budget_hit && stack.is_empty() && res.tree_columns == 0;
            res.status = if proven { MilpStatus::Optimal } else { MilpStatus::Feasible };
            res.x = x;
            res.objective = objective;
        }
        None => res.status = if budget_hit { MilpStatus::Budget } else { MilpStatus::Infeasible },
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation::*};
    use crate::simplex::Basis;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// Brute-force optimum of `min c x` over the integer box `[0, ub]^n`
    /// subject to `rows` (each `a x <= b`); `None` when no point fits.
    fn brute_min(c: &[f64], rows: &[(Vec<f64>, f64)], ub: u32) -> Option<f64> {
        let mut x = vec![0u32; c.len()];
        let mut best: Option<f64> = None;
        loop {
            let fits = rows.iter().all(|(a, b)| {
                a.iter().zip(&x).map(|(&aj, &xj)| aj * xj as f64).sum::<f64>() <= *b + 1e-9
            });
            if fits {
                let v: f64 = c.iter().zip(&x).map(|(&cj, &xj)| cj * xj as f64).sum();
                best = Some(best.map_or(v, |b| b.min(v)));
            }
            // Odometer step over the box.
            let Some(k) = x.iter().position(|&xj| xj < ub) else { return best };
            x[k] += 1;
            x[..k].fill(0);
        }
    }

    #[test]
    fn knapsack() {
        // max 10x1 + 13x2 + 7x3, 3x1 + 4x2 + 2x3 <= 6, x binary.
        // Best: x1 + x3 (weight 5, value 17) vs x2 + x3 (weight 6, value 20).
        let mut m = Model::new();
        let x1 = m.add_int_var(-10.0, 0.0, 1.0);
        let x2 = m.add_int_var(-13.0, 0.0, 1.0);
        let x3 = m.add_int_var(-7.0, 0.0, 1.0);
        m.add_con(&[(x1, 3.0), (x2, 4.0), (x3, 2.0)], Le, 6.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, -20.0);
        assert_close(r.x[1], 1.0);
        assert_close(r.x[2], 1.0);
    }

    #[test]
    fn integer_rounding_gap() {
        // max x s.t. 2x <= 5, x integer => x = 2 (LP gives 2.5).
        let mut m = Model::new();
        let x = m.add_int_var(-1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 2.0)], Le, 5.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.x[0], 2.0);
    }

    #[test]
    fn lp_feasible_ip_infeasible() {
        // 2x + 2y = 3 with x, y binary: LP ok (0.75, 0.75), IP impossible.
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 0.0, 1.0);
        let y = m.add_int_var(0.0, 0.0, 1.0);
        m.add_con(&[(x, 2.0), (y, 2.0)], Eq, 3.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Infeasible);
    }

    #[test]
    fn mixed_integer() {
        // min y s.t. y >= 1.3 x, x >= 2 integer, y continuous.
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 2.0, f64::INFINITY);
        let y = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(y, 1.0), (x, -1.3)], Ge, 0.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.x[0], 2.0);
        assert_close(r.objective, 2.6);
    }

    #[test]
    fn equality_assignment() {
        // Assign 2 items to 2 slots, each exactly once; cost matrix
        // [[1, 10], [10, 1]] => diagonal assignment, cost 2.
        let mut m = Model::new();
        let a = [[1.0, 10.0], [10.0, 1.0]];
        let mut v = [[VarId(0); 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                v[i][j] = m.add_int_var(a[i][j], 0.0, 1.0);
            }
        }
        for (i, row) in v.iter().enumerate() {
            m.add_con(&[(row[0], 1.0), (row[1], 1.0)], Eq, 1.0);
            m.add_con(&[(v[0][i], 1.0), (v[1][i], 1.0)], Eq, 1.0);
        }
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, 2.0);
    }

    #[test]
    fn budget_exhaustion_reported() {
        // A deliberately nasty IP with an immediate node budget.
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|_| m.add_int_var(-1.0, 0.0, 1.0)).collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        m.add_con(&terms, Le, 11.0);
        let opts = MilpOptions { max_nodes: 1, ..Default::default() };
        let r = solve_milp(&m, &opts);
        // With one node we solve only the root LP: fractional, no incumbent.
        assert_eq!(r.status, MilpStatus::Budget);
    }

    #[test]
    fn first_solution_mode_stops_early() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..6).map(|_| m.add_int_var(-1.0, 0.0, 1.0)).collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        m.add_con(&terms, Le, 7.0);
        let opts = MilpOptions { first_solution: true, ..Default::default() };
        let r = solve_milp(&m, &opts);
        assert_eq!(r.status, MilpStatus::Feasible);
        assert!(!r.x.is_empty());
        assert!(m.is_feasible_point(&r.x, 1e-6));
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer vars: B&B reduces to a single LP solve.
        let mut m = Model::new();
        let _x = m.add_var(-1.0, 0.0, 3.5);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.x[0], 3.5);
        assert_eq!(r.nodes, 1);
    }

    #[test]
    fn unbounded_root_reported() {
        let mut m = Model::new();
        m.add_int_var(-1.0, 0.0, f64::INFINITY);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Unbounded);
    }

    /// A branching IP small enough to enumerate: the warm tree must reach
    /// the brute-force optimum, and every node but the root must start
    /// from its parent's basis.
    #[test]
    fn warm_nodes_match_bruteforce_on_a_branching_ip() {
        let mut m = Model::new();
        let n = 7;
        let c: Vec<f64> = (0..n).map(|j| -((j % 5 + 1) as f64) - j as f64 * 1e-9).collect();
        let vars: Vec<_> = c.iter().map(|&cj| m.add_int_var(cj, 0.0, 3.0)).collect();
        let mut rows = Vec::new();
        for k in 0..3 {
            let a: Vec<f64> = (0..n).map(|j| ((j + k) % 4 + 1) as f64).collect();
            let b = 9.0 + k as f64;
            let terms: Vec<_> = vars.iter().zip(&a).map(|(&v, &aj)| (v, aj)).collect();
            m.add_con(&terms, Le, b);
            rows.push((a, b));
        }
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, brute_min(&c, &rows, 3).expect("x = 0 fits"));
        assert!(r.nodes > 1, "the IP must branch ({} nodes)", r.nodes);
        assert!(r.dual_pivots > 0, "dual engine never pivoted");
        assert_eq!(r.node_warm_starts, r.nodes - 1, "a non-root node solved cold");
    }

    /// In-tree pricing: a covering IP whose initial pool admits only a
    /// fractional cover; the pricer supplies the missing unit column at
    /// the first fractional node and the solve must land on it.
    #[test]
    fn tree_pricer_rescues_restricted_pool() {
        // Cover exactly 3 units with a pool of one double-unit column:
        // 2x = 3 has the fractional LP optimum x = 1.5 and no integer
        // solution. The missing single-unit column fixes it (x=1, y=1).
        let mut m = Model::new();
        let x = m.add_int_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 2.0)], Eq, 3.0);

        struct UnitPricer {
            fired: bool,
        }
        impl TreePricer for UnitPricer {
            fn price(&mut self, model: &mut Model, lp: &LpResult) -> Vec<VarId> {
                assert!(!lp.duals.is_empty(), "pricer must see node duals");
                if self.fired {
                    return vec![];
                }
                self.fired = true;
                let v = model.add_column(1.0, 0.0, f64::INFINITY, &[(0, 1.0)]);
                model.set_integer(v, true);
                vec![v]
            }
        }

        let opts = MilpOptions { first_solution: true, price_after_nodes: 0, ..Default::default() };
        // Without the pricer the restricted pool is integrally infeasible.
        let plain = solve_milp(&m, &opts);
        assert_eq!(plain.status, MilpStatus::Infeasible);
        // With it the unit column completes the cover.
        let mut pricer = UnitPricer { fired: false };
        let priced = solve_milp_with(&m, &opts, Some(&mut pricer), None);
        assert_eq!(priced.status, MilpStatus::Feasible);
        assert_eq!(priced.tree_columns, 1);
        assert_eq!(priced.x.len(), 2, "result must cover the priced column");
        assert_close(2.0 * priced.x[0] + priced.x[1], 3.0);
        assert!(priced.x[1] > 0.5, "the priced column must carry load");
    }

    /// Branching down on a tree-priced `[0, inf)` column imposes its first
    /// finite upper bound; the dual engine appends the bound row, so that
    /// child — like every other non-root node — starts warm.
    #[test]
    fn down_branch_on_tree_priced_column_starts_warm() {
        // 2x + 3y = 5 over integers has the one solution x = y = 1. The
        // pool starts with x alone (LP x = 2.5); the pricer adds y, whose
        // lower cost per unit moves the LP to y = 5/3. The up child
        // y >= 2 is infeasible, the down child y <= 1 lands on (1, 1).
        let mut m = Model::new();
        let x = m.add_int_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 2.0)], Eq, 5.0);

        struct CheapColumn {
            fired: bool,
        }
        impl TreePricer for CheapColumn {
            fn price(&mut self, model: &mut Model, _lp: &LpResult) -> Vec<VarId> {
                if self.fired {
                    return vec![];
                }
                self.fired = true;
                let v = model.add_column(1.2, 0.0, f64::INFINITY, &[(0, 3.0)]);
                model.set_integer(v, true);
                vec![v]
            }
        }

        let opts = MilpOptions { first_solution: true, price_after_nodes: 0, ..Default::default() };
        let warm = solve_milp_with(&m, &opts, Some(&mut CheapColumn { fired: false }), None);
        assert_eq!(warm.tree_columns, 1);
        assert_eq!(warm.status, MilpStatus::Feasible);
        assert_close(warm.x[1], 1.0);
        assert!(warm.nodes >= 3, "the down child must be explored ({} nodes)", warm.nodes);
        assert_eq!(warm.node_warm_starts, warm.nodes - 1, "a non-root node solved cold");
    }

    /// A column priced before the incumbent is part of the result's
    /// index space even when the incumbent never uses it.
    #[test]
    fn result_spans_pre_incumbent_priced_columns() {
        let mut m = Model::new();
        let x = m.add_int_var(-1.0, 0.0, 5.0);
        let y = m.add_int_var(-1.0, 0.0, 5.0);
        m.add_con(&[(x, 2.0), (y, 2.0)], Le, 5.0);

        // Fires once at the first fractional node; the added column is
        // useless (cost 10) so the incumbent never includes it.
        struct NoisePricer {
            fired: bool,
        }
        impl TreePricer for NoisePricer {
            fn price(&mut self, model: &mut Model, _lp: &LpResult) -> Vec<VarId> {
                if self.fired {
                    return vec![];
                }
                self.fired = true;
                let v = model.add_column(10.0, 0.0, f64::INFINITY, &[(0, 1.0)]);
                model.set_integer(v, true);
                vec![v]
            }
        }
        let mut pricer = NoisePricer { fired: false };
        let opts = MilpOptions { first_solution: true, price_after_nodes: 0, ..Default::default() };
        let r = solve_milp_with(&m, &opts, Some(&mut pricer), None);
        assert_eq!(r.status, MilpStatus::Feasible);
        assert_eq!(r.x.len(), 3);
        assert_close(r.x[2], 0.0);
    }

    /// xorshift64*, so the seeded-root sweeps do not depend on the
    /// proptest shim's sampling.
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

    /// A random covering LP over `[0, inf)` variables, and the same LP
    /// with `extra` more rows below: `<=` rows set under the first LP's
    /// optimal activity and `>=` rows above it, so each extra row is
    /// violated at that optimum with probability one half. `None` when
    /// the first LP has no optimum.
    fn lp_and_extension(rng: &mut Rng, extra: usize) -> Option<(Model, Model)> {
        let n = rng.u(4, 9);
        let mut sub = Model::new();
        let vars: Vec<_> =
            (0..n).map(|_| sub.add_var(rng.f(0.1, 2.0), 0.0, f64::INFINITY)).collect();
        for _ in 0..rng.u(2, 6) {
            let terms: Vec<_> = vars.iter().map(|&v| (v, rng.f(0.0, 1.5))).collect();
            sub.add_con(&terms, Ge, rng.f(0.5, 3.0));
        }
        let all: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        sub.add_con(&all, Le, 100.0);
        let lp = sub.solve_lp();
        if lp.status != LpStatus::Optimal {
            return None;
        }
        let mut full = sub.clone();
        for _ in 0..extra {
            let terms: Vec<_> = vars.iter().map(|&v| (v, rng.f(0.0, 1.5))).collect();
            let activity: f64 = terms.iter().map(|&(v, a)| a * lp.x[v.0]).sum();
            let violate = rng.f(0.0, 1.0) < 0.5;
            if rng.f(0.0, 1.0) < 0.5 {
                let slack = rng.f(0.1, 1.0);
                full.add_con(&terms, Le, if violate { activity - slack } else { activity + slack });
            } else {
                let slack = rng.f(0.1, 1.0);
                full.add_con(&terms, Ge, if violate { activity + slack } else { activity - slack });
            }
        }
        Some((sub, full))
    }

    /// A root seeded from the optimal basis of a sub-LP, the rows the
    /// sub-LP lacks entering with their slacks basic, reaches the cold
    /// root's status and objective, and counts as a warm node. Some of
    /// the extra rows are violated at the seed, so the root's dual
    /// simplex has work to do; some extensions are infeasible.
    #[test]
    fn a_root_seeded_from_a_sub_lp_basis_matches_the_cold_root() {
        let opts = MilpOptions::default();
        let (mut seeded, mut infeasible, mut repaired) = (0, 0, 0);
        for seed in 1..=60u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let extra = rng.u(1, 4);
            let Some((sub, full)) = lp_and_extension(&mut rng, extra) else { continue };
            let (_, state) = simplex::solve_with_state(&sub, 10_000);
            let mut basis = state.expect("an optimal solve keeps its state").basis();
            basis.slack_rows.extend(sub.num_cons()..full.num_cons());
            let root = WarmState::from_basis(&full, &basis)
                .expect("a basis with slack-basic extra rows is nonsingular");
            let warm = solve_milp_with(&full, &opts, None, Some(root));
            let cold = solve_milp(&full, &opts);
            assert_eq!(warm.status, cold.status, "seed {seed}");
            assert_eq!((warm.nodes, warm.node_warm_starts), (1, 1), "seed {seed}: root not warm");
            match cold.status {
                MilpStatus::Optimal => {
                    assert!(
                        (warm.objective - cold.objective).abs() < 1e-9,
                        "seed {seed}: seeded {} vs cold {}",
                        warm.objective,
                        cold.objective
                    );
                    assert!(full.is_feasible_point(&warm.x, 1e-6), "seed {seed}");
                    repaired += usize::from(warm.dual_pivots > 0);
                }
                MilpStatus::Infeasible => infeasible += 1,
                other => panic!("seed {seed}: {other:?}"),
            }
            seeded += 1;
        }
        assert!(
            seeded >= 40 && infeasible >= 3 && repaired >= 10,
            "{seeded} seeded, {infeasible} infeasible, {repaired} repaired by dual pivots"
        );
    }

    /// A basis that does not fit the model, or is singular, yields no
    /// state; a state of another model hands the root to the cold solve.
    #[test]
    fn a_mismatched_or_singular_seed_falls_back_to_the_cold_root() {
        let opts = MilpOptions::default();
        let mut rng = Rng(7);
        let (sub, full) = std::iter::repeat_with(|| lp_and_extension(&mut rng, 2))
            .flatten()
            .next()
            .expect("an optimal draw");
        let (_, state) = simplex::solve_with_state(&sub, 10_000);
        let state = state.unwrap();
        let mut basis = state.basis();
        basis.slack_rows.extend(sub.num_cons()..full.num_cons());
        assert!(WarmState::from_basis(&full, &basis).is_some());

        // One basic column too few, one too many, and a row out of range.
        let mut short = basis.clone();
        short.slack_rows.pop();
        assert!(WarmState::from_basis(&full, &short).is_none());
        let mut long = basis.clone();
        long.vars
            .extend((0..full.num_vars()).map(VarId).filter(|v| !basis.vars.contains(v)).take(1));
        assert!(WarmState::from_basis(&full, &long).is_none());
        let mut beyond = short.clone();
        beyond.slack_rows.push(full.num_cons());
        assert!(WarmState::from_basis(&full, &beyond).is_none());

        // Two equal columns cannot both be basic.
        let mut twin = Model::new();
        let x = twin.add_var(1.0, 0.0, f64::INFINITY);
        let y = twin.add_var(1.0, 0.0, f64::INFINITY);
        twin.add_con(&[(x, 1.0), (y, 1.0)], Ge, 1.0);
        twin.add_con(&[(x, 2.0), (y, 2.0)], Le, 5.0);
        let singular = Basis { vars: vec![x, y], slack_rows: vec![] };
        assert!(WarmState::from_basis(&twin, &singular).is_none());

        // The sub-LP's own state has fewer rows than the full LP.
        let warm = solve_milp_with(&full, &opts, None, Some(state));
        let cold = solve_milp(&full, &opts);
        assert_eq!(warm.node_warm_starts, 0, "a state of another model must not be used");
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    }

    proptest::proptest! {
        /// On random bounded pure-binary knapsacks the B&B optimum must
        /// match brute-force enumeration.
        #[test]
        fn matches_bruteforce_knapsack(
            values in proptest::collection::vec(1u32..20, 3..9),
            weights in proptest::collection::vec(1u32..10, 9),
            cap in 5u32..30,
        ) {
            let n = values.len();
            let mut m = Model::new();
            let vars: Vec<_> = (0..n).map(|j| m.add_int_var(-(values[j] as f64), 0.0, 1.0)).collect();
            let terms: Vec<_> = vars.iter().enumerate().map(|(j, &v)| (v, weights[j] as f64)).collect();
            m.add_con(&terms, Le, cap as f64);
            let r = solve_milp(&m, &MilpOptions::default());
            proptest::prop_assert_eq!(r.status, MilpStatus::Optimal);

            let mut best = 0i64;
            for mask in 0u32..(1 << n) {
                let w: u32 = (0..n).filter(|&j| mask >> j & 1 == 1).map(|j| weights[j]).sum();
                if w <= cap {
                    let v: i64 = (0..n).filter(|&j| mask >> j & 1 == 1).map(|j| values[j] as i64).sum();
                    best = best.max(v);
                }
            }
            proptest::prop_assert!((r.objective + best as f64).abs() < 1e-6,
                "bb={} brute={}", -r.objective, best);
        }

        /// On random knapsacks over `[0, 2]^n` (general integers, so
        /// branching tightens bounds on both sides) the warm-started tree
        /// must reach the brute-force optimum.
        #[test]
        fn warm_tree_matches_bruteforce_on_random_ips(
            values in proptest::collection::vec(1u32..20, 4..8),
            weights in proptest::collection::vec(1u32..10, 8),
            cap in 5u32..30,
        ) {
            let n = values.len();
            let c: Vec<f64> = values.iter().map(|&v| -(v as f64)).collect();
            let a: Vec<f64> = weights[..n].iter().map(|&w| w as f64).collect();
            let mut m = Model::new();
            let vars: Vec<_> = c.iter().map(|&cj| m.add_int_var(cj, 0.0, 2.0)).collect();
            let terms: Vec<_> = vars.iter().zip(&a).map(|(&v, &aj)| (v, aj)).collect();
            m.add_con(&terms, Le, cap as f64);
            let r = solve_milp(&m, &MilpOptions::default());
            proptest::prop_assert_eq!(r.status, MilpStatus::Optimal);
            let best = brute_min(&c, &[(a, cap as f64)], 2).expect("x = 0 fits");
            proptest::prop_assert!((r.objective - best).abs() < 1e-6,
                "bb={} brute={}", r.objective, best);
        }
    }
}
