//! Column generation for the pattern LP: the pricing subsystem.
//!
//! The configuration MILP does not require materializing every machine
//! pattern (Definition 3) up front — which is exactly what blows the
//! enumeration budget on tight clustered instances. Instead, a *master
//! LP* over a small pool of patterns is solved and new columns are priced
//! in against its duals until no pattern has negative reduced cost:
//!
//! * **master rows:** row 0 the machine-count cap (constraint (1)), rows
//!   `1..=S` one covering equality per slot symbol (constraint (2)), and
//!   row `S + 1` an aggregate small-area cut (the x-projection of
//!   constraint (4)), so guesses without room for the small jobs are
//!   refuted here instead of by the branch-and-bound. Every
//!   pattern column comes from `Pattern::column`; the restricted MILP
//!   keeps these rows first and appends its class cuts below them, so a
//!   node LP's first `S + 2` duals are the master's, in this layout;
//! * **pricing oracle:** the max-reduced-cost pattern is a bounded
//!   knapsack over symbol multiplicities — DFS in density order with a
//!   fractional upper bound, the one-slot-per-priority-bag rule, and
//!   canonical-form dedup (symbols of symmetric priority bags may only be
//!   used as a prefix of their equivalence class, so bag-symmetric
//!   patterns are priced once);
//! * **two phases:** a feasibility phase minimizes two artificial
//!   overflow variables (machine overflow and area shortfall). Because
//!   the seed pool holds a singleton pattern per symbol, the feasibility
//!   master is structurally feasible, and converging with positive
//!   overflow *proves* that no pattern multiset — enumerated or not —
//!   satisfies rows (1), (2) and the area cut: the guess is infeasible.
//!   An optimality phase then minimizes the machine count to enrich the
//!   pool around the LP optimum before the integral MILP runs on it; it
//!   stops after `ENRICH_ROUNDS` (8) rounds unless the caller lets a
//!   narrow master run to convergence ([`Enrichment`]);
//! * **one cold LP:** only the first master solve of phase A starts
//!   cold. Every later master solve re-optimizes the previous basis
//!   (`solve_warm` itself falls back cold on a refused or
//!   iteration-limited attempt), phase B continues from phase A's basis,
//!   and [`Pricing::Converged`] hands the master's final basis to the
//!   restricted MILP, whose root LP starts from it. The driver's retry of
//!   a failed guess restarts phase B and the root cold.
//!
//! The pool is seeded with the empty pattern, one singleton per symbol,
//! and LPT-packed patterns, and holds orders of magnitude fewer patterns
//! than eager enumeration. Every master solve is counted in
//! [`Stats::lp_solves`] (where it diverges from `milp_nodes`), every round in
//! [`Stats::pricing_rounds`], every DFS node in
//! [`Stats::pricing_dfs_nodes`], and every priced column in
//! [`Stats::columns_generated`].

use crate::classes::BagClasses;
use crate::classify::JobClass;
use crate::config::EptasConfig;
use crate::milp_model::ClassCtx;
use crate::par::{run_indexed, CancelToken};
use crate::pattern::{Pattern, SlotBag, Symbol};
use crate::report::Stats;
use crate::transform::Transformed;
use bagsched_milp::{Basis, LpResult, LpStatus, Model, Relation, VarId, WarmState};
use bagsched_types::{obs, JobId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Outcome of the column-generation loop.
#[derive(Debug)]
pub enum Pricing {
    /// A pool whose LP relaxation matches the full pattern LP (pricing
    /// converged with zero overflow), `pool[0]` the empty pattern, and the
    /// master's final basis over it when its last solve was optimal: the
    /// basic patterns as pool indices in `vars` (the restricted MILP's
    /// variable of pattern `p` is `VarId(p)`) and the master rows with a
    /// basic slack in `slack_rows`. The MILP seeds its root LP from it.
    Converged(Vec<Pattern>, Option<Basis>),
    /// The master LP — a relaxation of the configuration MILP over *all*
    /// patterns — is infeasible: no schedule of height `T` exists.
    Infeasible,
    /// Over the master-size budget, or out of rounds or DFS nodes before
    /// convergence: inconclusive, the caller tries its next partition.
    Stalled,
    /// The cancellation token tripped between rounds: the solve is being
    /// abandoned (speculation loser or deadline). Unlike [`Stalled`]
    /// this is no verdict at all — the caller unwinds as
    /// [`GuessFailure::Cancelled`].
    ///
    /// [`Stalled`]: Pricing::Stalled
    /// [`GuessFailure::Cancelled`]: crate::report::GuessFailure::Cancelled
    Cancelled,
}

/// Columns added per pricing round: the DFS collects the top-K improving
/// leaves rather than only the single best, to cut master re-solves.
/// Warm starts make extra re-solves cheap, while every admitted column
/// stays in the master for good: on the sparse revised simplex it is one
/// more column to price at every pivot, and if it survives into the
/// restricted MILP one more integer column in every node LP (with a bound
/// row only below a down-branch on it). K = 4 beat the
/// old 16 on n=400 tight clustered (~20% fewer total pivots), measured
/// on the dense tableau the sparse engine replaced; it has not been
/// re-measured since.
const COLS_PER_ROUND: usize = 4;

/// Consecutive master re-solves a nonbasic column must price above
/// [`EptasConfig::column_purge_threshold`] before it is purged.
const PURGE_PATIENCE: u32 = 3;

/// Pricing rounds (master LP solve + pricing DFS) per guess before the
/// loop declares a stall.
const MAX_ROUNDS: usize = 400;

/// DFS node budget per pricing round (per shard when sharded); exceeding
/// it makes the round inexact (no infeasibility proofs, possible stall).
const DFS_NODE_BUDGET: usize = 200_000;

/// Round cap of the enrichment phase (phase B). The pool is
/// feasibility-complete when phase B starts, so every extra round trades
/// a marginal pool improvement for a permanently wider master and more
/// integer columns for the restricted MILP to branch on — the classic
/// column-generation tailing-off, measured at >90% of the n=1600 tight
/// cell before the cap existed. Re-measured on the sparse engine over the
/// 62 tight n=120/m=40 shapes of the daemon benchmark, all narrow
/// masters: priced to convergence they take 59–85 rounds, 16–337
/// branch-and-bound nodes and a 208 ms median cold solve, against 8
/// rounds, 1–29 nodes and 2.3 ms at this cap, with no worse makespan. A
/// short enrichment is safe because a column the integral search turns
/// out to miss is priced in the branch-and-bound tree on demand
/// ([`TreePriceDriver`]), and a guess that still fails over a capped
/// narrow master is retried uncapped ([`Enrichment`]).
const ENRICH_ROUNDS: usize = 8;

/// Converged pools larger than this are pruned to the master's optimal
/// support and basic columns (plus the empty pattern and the singleton
/// seeds) before the restricted MILP runs: every unused column widens
/// every branch-and-bound node LP. Smaller pools pass through untouched.
const POOL_CAP: usize = 600;

/// Total in-tree pricing rounds (one knapsack DFS each) per MILP solve;
/// bounds the extra work [`TreePriceDriver`] may add to a solve.
const TREE_ROUND_CAP: usize = 16;

/// Phase-B enrichment of one pattern solve, seen from the caller: which
/// of two paths it takes and what [`generate_columns`] did to *narrow*
/// masters (at most [`EptasConfig::pricing_symbol_budget`] pattern
/// columns when phase B starts). By default every master stops at
/// `ENRICH_ROUNDS`, phase B continues from phase A's basis, and the
/// restricted MILP's root starts from the master's final basis.
///
/// The driver runs a guess whose first attempt failed once more with
/// `retry` set, but only when `narrow_cut` says the cap cut a narrow
/// master short. The retry path enriches narrow masters until pricing
/// converges and starts phase B and the root cold. Its pools and trees
/// differ from the fast path's, and on small `priority_cap = 1` shapes
/// it settles guesses whose fast attempt fails the swap repair.
#[derive(Debug, Default)]
pub struct Enrichment {
    /// Input: take the retry path (narrow masters uncapped, phase B cold,
    /// no root basis).
    pub retry: bool,
    /// Output: a narrow master stopped at `ENRICH_ROUNDS` with its last
    /// master solve optimal, so pricing had not been seen to converge.
    pub narrow_cut: bool,
}

/// Canonical identity of a pattern: its sorted `(symbol, multiplicity)`
/// entries.
pub(crate) type PatternKey = Vec<(usize, u16)>;

/// The master LP and its column lifecycle, threaded through the pricing
/// rounds of both phases.
///
/// `cols[i]` is pattern `i`'s current model variable, `None` while purged
/// (the pattern itself never leaves the pool or the dedup key set, so
/// pricing cannot re-propose it and the re-admission guard can bring it
/// back). `streak[i]` counts the consecutive re-solves it spent nonbasic
/// above the purge threshold. The warm-start basis rides along.
struct Master {
    model: Model,
    /// The overflow variables of phase A: machine overflow and area
    /// shortfall.
    overflow: [VarId; 2],
    pool: Vec<Pattern>,
    keys: HashSet<PatternKey>,
    cols: Vec<Option<VarId>>,
    streak: Vec<u32>,
    /// Slot symbols `S`: rows `1..=S` cover them, row `S + 1` (the last)
    /// is the aggregate small-area cut.
    num_symbols: usize,
    /// Height bound `T`.
    t: f64,
    /// Objective coefficient of a nonempty pattern column: 0 under the
    /// feasibility objective (phase A), 1 under the machine count
    /// (phase B).
    col_cost: f64,
    purge_threshold: f64,
    warm: Option<WarmState>,
}

impl Master {
    /// The feasibility master (phase A): rows 0 = machines (1), `1..=S`
    /// = symbol coverings (2), `S + 1` = aggregate small area; the two
    /// overflow variables, which together with the singleton seed columns
    /// make it structurally feasible; and one column per seed pattern.
    /// Priced columns are appended in place via `Model::add_column`; the
    /// model is never rebuilt.
    fn new(trans: &Transformed, symbols: &[Symbol], pool: Vec<Pattern>, cfg: &EptasConfig) -> Self {
        let small_area: f64 = (0..trans.tinst.num_jobs())
            .filter(|&j| trans.tclass[j] == JobClass::Small)
            .map(|j| trans.tinst.size(JobId(j as u32)))
            .sum();
        let mut model = Model::new();
        let z_machines = model.add_var(1.0, 0.0, f64::INFINITY);
        let z_area = model.add_var(1.0, 0.0, f64::INFINITY);
        model.add_con(&[(z_machines, -1.0)], Relation::Le, trans.tinst.num_machines() as f64);
        for sym in symbols {
            model.add_con(&[], Relation::Eq, sym.avail as f64);
        }
        model.add_con(&[(z_area, 1.0)], Relation::Ge, small_area);
        let mut master = Master {
            cols: Vec::with_capacity(pool.len()),
            keys: pool.iter().map(|p| p.entries.clone()).collect(),
            streak: vec![0; pool.len()],
            num_symbols: symbols.len(),
            model,
            overflow: [z_machines, z_area],
            pool,
            t: trans.t,
            col_cost: 0.0,
            purge_threshold: cfg.column_purge_threshold,
            warm: None,
        };
        for i in 0..master.pool.len() {
            let v = master.add_column(i);
            master.cols.push(Some(v));
        }
        master
    }

    /// Append pool pattern `i`'s column ([`Pattern::column`]; the master
    /// has no class cuts) at the current column cost.
    fn add_column(&mut self, i: usize) -> VarId {
        let col = self.pool[i].column(self.num_symbols, self.t, &[]);
        self.model.add_column(self.col_cost, 0.0, f64::INFINITY, &col)
    }

    /// One master LP solve: warm when a basis is available, cold
    /// otherwise. Counts the solve, its pivots and its basis updates.
    ///
    /// The basis is never dropped for numerical hygiene: the engine
    /// refactorizes every 32 pivots (the `Model` default) and recomputes
    /// the basic solution from the right-hand side when it does, as
    /// branch-and-bound relies on for its chains of warm node re-solves.
    fn solve_once(&mut self, stats: &mut Stats) -> LpResult {
        let _span = obs::Span::enter("pricing.master_lp");
        stats.lp_solves += 1;
        let (lp, _) = self.model.solve_lp_with(&mut self.warm);
        stats.simplex_pivots += lp.iterations as u64;
        stats.basis_refactorizations += lp.refactorizations as u64;
        stats.eta_updates += lp.eta_updates as u64;
        lp
    }

    /// Solve the master behind the re-admission guard: a purged column
    /// that prices negative under the new duals would make the optimum
    /// under-informed (the purge is a restriction, not a relaxation).
    /// Re-admit and re-solve to a fixpoint, so every optimum acted on — the
    /// exit tests, the purge decision, the pricing round — is optimal
    /// over the *full* pool, exactly as if no column had ever been purged.
    fn solve(&mut self, stats: &mut Stats) -> LpResult {
        let mut lp = self.solve_once(stats);
        while lp.status == LpStatus::Optimal {
            let mut readmitted = false;
            for i in 0..self.pool.len() {
                if self.cols[i].is_none()
                    && pattern_rc(&self.pool[i], &lp.duals, self.t, self.col_cost) < -1e-7
                {
                    self.cols[i] = Some(self.add_column(i));
                    self.streak[i] = 0;
                    stats.columns_readmitted += 1;
                    readmitted = true;
                }
            }
            if !readmitted {
                break;
            }
            lp = self.solve_once(stats);
        }
        lp
    }

    /// Purge decision: a nonbasic column priced above the threshold for
    /// [`PURGE_PATIENCE`] consecutive re-solves is physically removed from
    /// the master (pattern and key stay pooled; the re-admission guard
    /// re-admits it if it ever prices negative again). The empty pattern
    /// and the singleton seeds are exempt — they are the
    /// structural-feasibility floor the final pruning also preserves.
    /// Purging remaps the surviving `VarId`s, so `lp.x` is stale after it.
    fn purge(&mut self, lp: &LpResult, stats: &mut Stats) {
        if !self.purge_threshold.is_finite() {
            return;
        }
        let mut victims: Vec<VarId> = Vec::new();
        let mut victim_idx: Vec<usize> = Vec::new();
        for (i, pat) in self.pool.iter().enumerate() {
            let Some(v) = self.cols[i] else { continue };
            if pat.is_empty() || pat.num_slots() == 1 {
                continue;
            }
            let rc = pattern_rc(pat, &lp.duals, self.t, self.col_cost);
            if lp.x[v.0] <= 1e-9 && rc > self.purge_threshold {
                self.streak[i] += 1;
                if self.streak[i] >= PURGE_PATIENCE {
                    victims.push(v);
                    victim_idx.push(i);
                }
            } else {
                self.streak[i] = 0;
            }
        }
        if !victims.is_empty()
            && bagsched_milp::purge_columns(&mut self.model, self.warm.as_mut(), &victims)
        {
            stats.columns_purged += victims.len() as u64;
            for &i in &victim_idx {
                self.cols[i] = None;
            }
            // Surviving variables shift down past the purged ones.
            for c in self.cols.iter_mut().flatten() {
                c.0 -= victims.iter().filter(|w| w.0 < c.0).count();
            }
        }
        // Reset the victims' streaks either way: on a refused purge (a
        // degenerate basic victim) retrying next solve is fine, but
        // hot-looping on the same set every solve is not.
        for &i in &victim_idx {
            self.streak[i] = 0;
        }
    }

    /// Switch to the optimality objective (phase B). The overflow
    /// variables pin to zero and the pattern columns take the
    /// machine-count objective. The mutation is by `VarId`, so it applies
    /// to the purge-compacted model exactly as to an untouched one, and
    /// columns purged in phase A stay out — the re-admission guard brings
    /// any of them back the moment it prices negative under the new
    /// objective's duals (purged columns are never the empty seed, so
    /// their coefficient is 1). Streaks reset: a reduced cost under the
    /// feasibility objective says nothing about the machine-count one.
    ///
    /// With `cold` unset phase B continues from phase A's basis: the
    /// warm re-solve appends the bound rows the overflow variables' new
    /// `[0, 0]` bounds need, the dual simplex drives out whatever overflow
    /// is left, and the primal clean-up prices the new objective.
    fn start_phase_b(&mut self, cold: bool) {
        for z in self.overflow {
            self.model.set_bounds(z, 0.0, 0.0);
            self.model.set_obj(z, 0.0);
        }
        self.col_cost = 1.0;
        for (pat, c) in self.pool.iter().zip(&self.cols) {
            if let Some(v) = *c {
                self.model.set_obj(v, if pat.is_empty() { 0.0 } else { self.col_cost });
            }
        }
        self.streak.iter_mut().for_each(|s| *s = 0);
        if cold {
            self.warm = None;
        }
    }

    /// The basis of the last master solve over the pool, or `None` when
    /// it kept no state: pool indices for the basic pattern columns and
    /// the master rows with a basic slack.
    ///
    /// The restricted MILP has no overflow variables, so a basic one
    /// (degenerate at zero once phase B pins it) stands in for its row's
    /// slack: `z_machines` is `-1` in row 0 alone and `z_area` `+1` in
    /// row `S + 1` alone, each a multiple of that row's unit column. That
    /// slack is nonbasic while the overflow variable is basic, so the
    /// swap keeps the basis square and nonsingular.
    fn pool_basis(&self) -> Option<Basis> {
        let mut basis = self.warm.as_ref()?.basis();
        let mut pool_of_var = vec![usize::MAX; self.model.num_vars()];
        for (i, c) in self.cols.iter().enumerate() {
            if let Some(v) = c {
                pool_of_var[v.0] = i;
            }
        }
        let [z_machines, z_area] = self.overflow;
        let mut vars = Vec::with_capacity(basis.vars.len());
        for v in basis.vars {
            if v == z_machines {
                basis.slack_rows.push(0);
            } else if v == z_area {
                basis.slack_rows.push(self.num_symbols + 1);
            } else {
                vars.push(VarId(pool_of_var[v.0]));
            }
        }
        Some(Basis { vars, slack_rows: basis.slack_rows })
    }

    /// Admit priced patterns: each joins the pool, the dedup key set and
    /// the master model.
    fn admit(&mut self, cands: Vec<Pattern>, stats: &mut Stats) {
        for pat in cands {
            self.keys.insert(pat.entries.clone());
            self.pool.push(pat);
            let v = self.add_column(self.pool.len() - 1);
            self.cols.push(Some(v));
            self.streak.push(0);
            stats.columns_generated += 1;
        }
    }
}

/// Run the generate→solve→price loop for one guess. `symbols` must be
/// keyed consistently with `classes` (see
/// [`crate::pattern::collect_symbols_classed`]); per-bag pricing is the
/// singleton-classes special case. `enrich` sets how far phase B runs
/// and records whether the cap cut a narrow master short.
pub fn generate_columns(
    trans: &Transformed,
    symbols: &[Symbol],
    classes: &BagClasses,
    cfg: &EptasConfig,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
    enrich: &mut Enrichment,
) -> Pricing {
    let (mut master, mut rounds) =
        match feasibility_phase(trans, symbols, classes, cfg, stats, cancel) {
            Ok(phase_a) => phase_a,
            Err(verdict) => return verdict,
        };
    let px = PriceCtx { symbols, classes, t: trans.t };

    // ---- Phase B: minimize machines used to enrich the pool. ----
    // Only the retry path restarts it cold (see [`Enrichment`]).
    master.start_phase_b(enrich.retry);
    // Enrichment stops at [`ENRICH_ROUNDS`], not at convergence: late
    // rounds trade dust-sized master improvements for ever-wider masters
    // (each admitted column raises the per-pivot cost of every later
    // re-solve) and fuller pools for the restricted MILP to branch over.
    // The pool is feasibility-complete either way, and a column the
    // integral search turns out to miss is priced *in the tree*
    // ([`TreePriceDriver`]) instead of speculatively at the root. Only a
    // narrow master of a retry runs to convergence.
    let narrow = master.pool.len() <= cfg.pricing_symbol_budget;
    let capped = !(narrow && enrich.retry);
    let mut enrich_rounds = 0usize;
    // Every exit happens right after a master solve of the final,
    // unmodified model, so the last LP doubles as the pruning input and
    // the master's basis as the restricted MILP's root basis.
    let final_lp = loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Pricing::Cancelled;
        }
        let lp = master.solve(stats);
        // Stopping the optimality phase early is always safe; it only
        // bounds the enrichment.
        if lp.status != LpStatus::Optimal || rounds >= MAX_ROUNDS {
            break lp;
        }
        if capped && enrich_rounds >= ENRICH_ROUNDS {
            enrich.narrow_cut |= narrow;
            break lp;
        }
        enrich_rounds += 1;
        rounds += 1;
        stats.pricing_rounds += 1;
        let (cands, _) = price(&px, &lp.duals, master.col_cost, cfg, stats, &master.keys);
        if cands.is_empty() {
            break lp;
        }
        // Deliberately *after* the exits above: purging remaps surviving
        // `VarId`s, so it must never sit between computing an optimum
        // and exiting with it (`final_lp.x` is indexed by the live
        // column ids).
        master.purge(&lp, stats);
        master.admit(cands, stats);
    };
    let mut basis = if enrich.retry { None } else { master.pool_basis() };

    // ---- Final pruning: the restricted MILP pays per column. ----
    // On large instances the converged pool carries hundreds of columns
    // that the master's optimum never uses; in the restricted MILP every
    // one of them is an integer variable, one more column to price at
    // every pivot of *each* branch-and-bound node LP downstream, and a
    // candidate to branch on (a down-branch appends its bound row to
    // the subtree below). Keep the LP
    // support (the columns that matter), the basic columns (at zero only
    // when degenerate, and needed for the root basis), the empty pattern
    // and the singleton seeds (structural feasibility); drop the rest.
    // Small pools are passed through untouched — pre-aggregation
    // behaviour. `POOL_CAP` dates from the dense tableau and has not
    // been re-measured on the sparse engine.
    let Master { pool, cols, .. } = master;
    if pool.len() > POOL_CAP && final_lp.status == LpStatus::Optimal {
        let mut basic = vec![false; pool.len()];
        for v in basis.iter().flat_map(|b| &b.vars) {
            basic[v.0] = true;
        }
        // A column still purged at exit is nonbasic by construction (the
        // guard would have re-admitted a useful one), so it falls to the
        // same support filter as an in-model column at zero.
        let mut new_index = vec![usize::MAX; pool.len()];
        let mut pruned: Vec<Pattern> = Vec::new();
        for (i, (pat, c)) in pool.iter().zip(&cols).enumerate() {
            if pat.is_empty()
                || pat.num_slots() == 1
                || basic[i]
                || c.is_some_and(|v| final_lp.x[v.0] > 1e-9)
            {
                new_index[i] = pruned.len();
                pruned.push(pat.clone());
            }
        }
        for v in basis.iter_mut().flat_map(|b| &mut b.vars) {
            v.0 = new_index[v.0];
        }
        return Pricing::Converged(pruned, basis);
    }
    Pricing::Converged(pool, basis)
}

/// Phase A of [`generate_columns`]: build the feasibility master over the
/// seed pool and price until its overflow is zero. Returns the master and
/// the pricing rounds spent, or the verdict phase A reached instead.
fn feasibility_phase(
    trans: &Transformed,
    symbols: &[Symbol],
    classes: &BagClasses,
    cfg: &EptasConfig,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
) -> Result<(Master, usize), Pricing> {
    // Safety valve on the master size: on the per-bag path the row count
    // is the symbol count (the pre-aggregation gate, byte-for-byte);
    // classed symbols are already collapsed, so the aggregated path is
    // gated on its class count instead — the quantity that stays small
    // when thousands of per-bag symbols share a few profiles. Each
    // symbol is a master row, so past the budget every pivot factors and
    // prices against a basis that many rows tall, and the master LP
    // dominates everything pricing saves: declare a stall, and the caller
    // tries its next partition or fails the guess. The budget's default
    // was set on the dense tableau and has not been re-measured on the
    // sparse engine.
    let master_size = if classes.all_singletons() { symbols.len() } else { classes.num_classes() };
    if master_size > cfg.pricing_symbol_budget {
        return Err(Pricing::Stalled);
    }
    let pool = seed_pool(trans, symbols, classes);
    stats.patterns_enumerated += pool.len() as u64;
    let mut master = Master::new(trans, symbols, pool, cfg);
    let [z_machines, z_area] = master.overflow;
    let px = PriceCtx { symbols, classes, t: trans.t };
    let mut rounds = 0usize;
    loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(Pricing::Cancelled);
        }
        let lp = master.solve(stats);
        if lp.status != LpStatus::Optimal {
            // The overflow variables make the master feasible and the
            // objective nonnegative; anything else is numerical distress.
            return Err(Pricing::Stalled);
        }
        let overflow = lp.x[z_machines.0] + lp.x[z_area.0];
        if overflow <= 1e-7 {
            return Ok((master, rounds));
        }
        if rounds >= MAX_ROUNDS {
            return Err(Pricing::Stalled);
        }
        master.purge(&lp, stats);
        rounds += 1;
        stats.pricing_rounds += 1;
        let (cands, complete) = price(&px, &lp.duals, master.col_cost, cfg, stats, &master.keys);
        if cands.is_empty() {
            // With an exhaustive pricing round, "no improving column"
            // certifies the master optimum equals the full-pattern
            // optimum *up to the pricing tolerance* (each skipped column
            // improves by at most 1e-7). Only an overflow clearly above
            // that slack is an infeasibility proof — real infeasibilities
            // are of integral size (a job or machine unit of the scaled
            // instance). A hair-above-zero overflow is numerical noise:
            // stall instead of refuting the guess.
            return Err(if complete && overflow > 1e-4 {
                Pricing::Infeasible
            } else {
                Pricing::Stalled
            });
        }
        master.admit(cands, stats);
    }
}

/// Reduced cost of `pat`'s master column (objective coefficient `obj`)
/// under row duals laid out `[machine, symbols..., area]` — the column of
/// [`Pattern::column`] priced, used by the column lifecycle.
fn pattern_rc(pat: &Pattern, duals: &[f64], t: f64, obj: f64) -> f64 {
    let mut rc = obj - duals[0] - duals[duals.len() - 1] * (t - pat.height);
    for &(s, mult) in &pat.entries {
        rc -= duals[1 + s] * mult as f64;
    }
    rc
}

/// The heuristic seed pool: the empty pattern (index 0, as the MILP layer
/// expects), one singleton per symbol (these make the feasibility master
/// structurally feasible), and the patterns of an LPT packing of the
/// non-small transformed jobs. The packing places concrete jobs, so the
/// one-job-per-bag rule per machine automatically respects the class
/// multiplicity caps of aggregated symbols.
fn seed_pool(trans: &Transformed, symbols: &[Symbol], classes: &BagClasses) -> Vec<Pattern> {
    let t = trans.t;
    let mut pool = vec![Pattern { entries: Vec::new(), height: 0.0 }];
    for (s, sym) in symbols.iter().enumerate() {
        if sym.size <= t + 1e-9 {
            pool.push(Pattern { entries: vec![(s, 1)], height: sym.size });
        }
    }

    // Symbol lookup for the LPT packing (priority bags key by class rep).
    let mut sym_index: HashMap<(crate::rounding::SizeExp, SlotBag), usize> = HashMap::new();
    for (s, sym) in symbols.iter().enumerate() {
        sym_index.insert((sym.exp, sym.bag), s);
    }
    let mut jobs: Vec<usize> =
        (0..trans.tinst.num_jobs()).filter(|&j| trans.tclass[j] != JobClass::Small).collect();
    jobs.sort_by(|&a, &b| {
        trans
            .tinst
            .size(JobId(b as u32))
            .total_cmp(&trans.tinst.size(JobId(a as u32)))
            .then(a.cmp(&b))
    });
    let m = trans.tinst.num_machines();
    let mut height = vec![0.0f64; m];
    // The machines ordered by `(height bits, machine)`, which is height
    // order with the lowest index first on ties (heights are sums of
    // positive finite sizes), as in `lpt::conflict_aware_lpt`.
    let mut by_height: BTreeSet<(u64, u32)> =
        (0..m as u32).map(|i| (0.0f64.to_bits(), i)).collect();
    let mut counts: Vec<HashMap<usize, u16>> = vec![HashMap::new(); m];
    // The machines already holding a job of each priority bag, and one
    // machine mask reused per job: nothing here is sized `m × bags`.
    let mut bag_machines: Vec<Vec<u32>> = vec![Vec::new(); trans.tinst.num_bags()];
    let mut blocked = vec![false; m];
    for j in jobs {
        let tbag = trans.tinst.bag_of(JobId(j as u32));
        let bag = if trans.is_priority_tbag[tbag.idx()] {
            SlotBag::Priority(classes.rep(classes.of(tbag).expect("priority bags are classed")))
        } else {
            SlotBag::X
        };
        let Some(&s) = sym_index.get(&(trans.texp[j], bag)) else { continue };
        let size = symbols[s].size;
        // The conflict check runs on the *concrete* bag: a machine may
        // hold several slots of one class (distinct member bags) but
        // never two jobs of one bag. Wildcard slots block nothing.
        let held: &[u32] =
            if matches!(bag, SlotBag::Priority(_)) { &bag_machines[tbag.idx()] } else { &[] };
        for &i in held {
            blocked[i as usize] = true;
        }
        // The lowest unblocked machine is the only candidate: if the job
        // does not fit on it, it fits on no higher one.
        let lowest = by_height.iter().find(|&&(_, i)| !blocked[i as usize]).copied();
        for &i in held {
            blocked[i as usize] = false;
        }
        let Some((key, i)) = lowest.filter(|&(_, i)| height[i as usize] + size <= t + 1e-9) else {
            continue; // heuristic: skipping is fine
        };
        by_height.remove(&(key, i));
        let i = i as usize;
        height[i] += size;
        by_height.insert((height[i].to_bits(), i as u32));
        *counts[i].entry(s).or_insert(0) += 1;
        if matches!(bag, SlotBag::Priority(_)) {
            bag_machines[tbag.idx()].push(i as u32);
        }
    }
    let mut seen: HashSet<PatternKey> = pool.iter().map(|p| p.entries.clone()).collect();
    for (i, c) in counts.iter().enumerate() {
        if c.is_empty() {
            continue;
        }
        let mut entries: Vec<(usize, u16)> = c.iter().map(|(&s, &n)| (s, n)).collect();
        entries.sort_unstable();
        if seen.insert(entries.clone()) {
            pool.push(Pattern { entries, height: height[i] });
        }
    }
    pool
}

/// The branch-and-price driver: prices pattern columns *inside* the
/// branch-and-bound tree of the restricted MILP.
///
/// The root pool converges against the master LP's duals, but the
/// integral search explores bound combinations under which different
/// columns matter; a dive can fail only because the pool is missing a
/// pattern the node LP would price in immediately. This driver implements
/// [`bagsched_milp::TreePricer`]: at fractional optimal nodes it re-runs
/// the bounded-knapsack pricing DFS against the *node* duals (machine
/// row, covering rows, area cut — the per-class cuts are not
/// modelled in the knapsack profit and make priced columns conservative
/// estimates, which is sound: a non-improving column is dead weight, not
/// an error) and appends improving patterns as integer columns, which the
/// B&B grafts onto the warm node basis. The round cap
/// ([`TREE_ROUND_CAP`]) bounds the total extra work per MILP solve.
pub(crate) struct TreePriceDriver<'a> {
    symbols: &'a [Symbol],
    /// The class cuts of the restricted MILP (rows `S + 2` on).
    ctx: &'a ClassCtx<'a>,
    /// Height bound `T`.
    t: f64,
    cfg: &'a EptasConfig,
    /// Pool + already-priced pattern keys (dedup).
    keys: HashSet<PatternKey>,
    /// Patterns appended to the model, in column order.
    pub new_patterns: Vec<Pattern>,
    rounds_left: usize,
    /// Local counter accumulation (pricing DFS nodes), merged into the
    /// run stats by the caller after the MILP solve.
    pub stats: Stats,
    /// Continues the x-column objective perturbation (`1 + i * 1e-9`)
    /// past the root pool so priced columns stay symmetry-broken.
    next_obj_index: usize,
}

impl<'a> TreePriceDriver<'a> {
    pub(crate) fn new(
        symbols: &'a [Symbol],
        ctx: &'a ClassCtx<'a>,
        t: f64,
        cfg: &'a EptasConfig,
        pool: &[Pattern],
    ) -> Self {
        TreePriceDriver {
            symbols,
            ctx,
            t,
            cfg,
            keys: pool.iter().map(|p| p.entries.clone()).collect(),
            new_patterns: Vec::new(),
            rounds_left: TREE_ROUND_CAP,
            stats: Stats::default(),
            next_obj_index: pool.len(),
        }
    }
}

impl bagsched_milp::TreePricer for TreePriceDriver<'_> {
    fn price(&mut self, model: &mut Model, lp: &LpResult) -> Vec<VarId> {
        // The node LP's first rows are the master's, in its layout:
        // `[machine, symbols..., area]`.
        let master_rows = self.symbols.len() + 2;
        if self.rounds_left == 0 || lp.duals.len() < master_rows {
            return vec![];
        }
        let _span = obs::Span::enter("pricing.tree");
        self.rounds_left -= 1;
        let classes = self.ctx.classes;
        let px = PriceCtx { symbols: self.symbols, classes, t: self.t };
        // New x-columns cost ~1 in the restricted MILP.
        let duals = &lp.duals[..master_rows];
        let (cands, _) = price(&px, duals, 1.0, self.cfg, &mut self.stats, &self.keys);
        let mut added = Vec::with_capacity(cands.len());
        for pat in cands {
            let free = self.ctx.free_caps(&pat.class_multiplicities(self.symbols, classes));
            let col = pat.column(self.symbols.len(), self.t, &free);
            let obj = 1.0 + self.next_obj_index as f64 * 1e-9;
            self.next_obj_index += 1;
            let v = model.add_column(obj, 0.0, f64::INFINITY, &col);
            model.set_integer(v, true);
            self.keys.insert(pat.entries.clone());
            self.new_patterns.push(pat);
            added.push(v);
        }
        added
    }
}

/// One pricing-DFS item: a symbol with positive effective value under the
/// current duals.
struct PriceItem {
    sym: usize,
    size: f64,
    /// Effective value `y_s - y_area * size_s`.
    value: f64,
    /// `value / size` — the fractional-knapsack bound density.
    density: f64,
    max_mult: u32,
    /// Bag-class index, if priority: the per-pattern slot count of a
    /// class is capped jointly across sizes by the class cardinality
    /// (one slot per member bag — the one-slot-per-bag rule, lifted).
    class: Option<usize>,
    /// Position of the previous item of the same symmetry class; this
    /// item may only be used when that one is (canonical-form dedup).
    twin_prev: Option<usize>,
}

/// The fixed inputs of a pricing round.
struct PriceCtx<'a> {
    symbols: &'a [Symbol],
    classes: &'a BagClasses,
    /// Height bound `T`.
    t: f64,
}

/// Find up to [`COLS_PER_ROUND`] patterns with reduced cost below
/// `-tol` under `duals`, for a column cost of `col_cost` per nonempty
/// pattern. Returns the patterns and whether the search was exhaustive
/// (false once the node budget is hit).
fn price(
    px: &PriceCtx<'_>,
    duals: &[f64],
    col_cost: f64,
    cfg: &EptasConfig,
    stats: &mut Stats,
    pool_keys: &HashSet<PatternKey>,
) -> (Vec<Pattern>, bool) {
    let PriceCtx { symbols, classes, t } = *px;
    let y_machines = duals[0];
    let y_area = duals[duals.len() - 1];
    // rc(p) = col_cost - y_machines - y_area*(T - h(p)) - sum_s y_s*mult_s
    //       = (col_cost - y_machines - y_area*T)
    //         + sum_s (y_area*size_s - y_s) * mult_s,
    // so a pattern improves iff its knapsack profit under the effective
    // values v_s = y_s - y_area*size_s exceeds `needed`.
    let needed = col_cost - y_machines - y_area * t + 1e-7;

    let mut items: Vec<PriceItem> = symbols
        .iter()
        .enumerate()
        .filter_map(|(s, sym)| {
            let value = duals[1 + s] - y_area * sym.size;
            if value <= 1e-12 || sym.size > t + 1e-9 || sym.size <= 1e-12 {
                return None;
            }
            let by_height = (t / sym.size + 1e-9).floor() as u32;
            let class = match sym.bag {
                SlotBag::Priority(rep) => Some(classes.of(rep).expect("symbol reps are classed")),
                SlotBag::X => None,
            };
            let max_mult = match class {
                Some(c) => (classes.size(c) as u32).min(sym.avail).min(by_height),
                None => sym.avail.min(by_height).min(u16::MAX as u32),
            };
            (max_mult > 0).then(|| PriceItem {
                sym: s,
                size: sym.size,
                value,
                density: value / sym.size,
                max_mult,
                class,
                twin_prev: None,
            })
        })
        .collect();
    items.sort_by(|a, b| b.density.total_cmp(&a.density).then(a.sym.cmp(&b.sym)));
    // Symmetry classes: priority symbols of the same size class whose
    // duals agree up to LP tolerance belong to interchangeable
    // (bag-symmetric) bags — swapping one for another changes a pattern's
    // profit by at most the tolerance. Chain each to the previous member
    // of its class so the DFS only explores class *prefixes*: symmetric
    // patterns are priced once instead of C(bags, k) times.
    let mut last_of_exp: HashMap<crate::rounding::SizeExp, usize> = HashMap::new();
    for i in 0..items.len() {
        if items[i].class.is_none() {
            continue;
        }
        let exp = symbols[items[i].sym].exp;
        if let Some(&prev) = last_of_exp.get(&exp) {
            // Equal per-pattern capacity is required on top of equal
            // value: swapping usage between the chained items must always
            // be possible, or the prefix rule would prune patterns with
            // no explored counterpart.
            if (items[prev].value - items[i].value).abs() <= 1e-9
                && items[prev].max_mult == items[i].max_mult
            {
                items[i].twin_prev = Some(prev);
            }
        }
        last_of_exp.insert(exp, i);
    }

    let num_classes = classes.num_classes();
    let class_cap: Vec<u16> = (0..num_classes).map(|c| classes.size(c) as u16).collect();

    // Sharded DFS: shard `s` of `S` explores exactly the patterns whose
    // first used item index is `≡ s (mod S)` (the empty pattern belongs
    // to shard 0), so the shards partition the pattern space and their
    // candidate sets are disjoint by construction. Each shard carries
    // the *full* node budget — sharding never explores less than the
    // single DFS would — and a private top-K threshold, which is exact
    // per shard (a weaker threshold only prunes less). `S = 1` is the
    // classic single DFS, decision for decision.
    let shards = cfg.pricing_shards.max(1);
    let run_shard = |s: usize| {
        // Timed inside the closure so each shard's DFS is attributed to
        // the worker thread that actually ran it.
        let _span = obs::Span::enter("pricing.dfs");
        let mut dfs = PriceDfs {
            items: &items,
            needed,
            budget: DFS_NODE_BUDGET,
            nodes: 0,
            complete: true,
            used: vec![0u16; items.len()],
            class_used: vec![0u16; num_classes],
            class_cap: class_cap.clone(),
            cands: Vec::new(),
            threshold: needed,
            pool_keys,
            shard: s,
            shard_count: shards,
            used_any: false,
        };
        dfs.run(0, t, 0.0);
        (dfs.cands, dfs.complete, dfs.nodes)
    };
    // The thread count only places the shards; the merge below is a
    // deterministic function of the shard results, so output is
    // byte-identical at any `solver_threads`.
    let threads = if shards > 1 { cfg.solver_threads } else { 1 };
    let results = run_indexed(shards, threads, run_shard);
    if shards > 1 {
        stats.pricing_shards_run += shards as u64;
    }
    let total_nodes: usize = results.iter().map(|r| r.2).sum();
    stats.pricing_dfs_nodes += total_nodes.max(1) as u64;
    let complete = results.iter().all(|r| r.1);
    let mut cands: Vec<(f64, PatternKey)> = results.into_iter().flat_map(|r| r.0).collect();

    // Best columns first; key order as a deterministic tiebreak. The
    // shards together may hold up to `S * COLS_PER_ROUND` candidates;
    // the master admits the same per-round column count as the single
    // DFS.
    cands.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    cands.truncate(COLS_PER_ROUND);
    let patterns = cands
        .into_iter()
        .map(|(_, entries)| {
            let height = entries.iter().map(|&(s, c)| symbols[s].size * c as f64).sum();
            Pattern { entries, height }
        })
        .collect();
    (patterns, complete)
}

/// The bounded-knapsack pricing DFS.
struct PriceDfs<'a> {
    items: &'a [PriceItem],
    /// Minimum profit for an improving column.
    needed: f64,
    budget: usize,
    nodes: usize,
    complete: bool,
    /// Multiplicity chosen per item along the current path.
    used: Vec<u16>,
    /// Class slots used along the current path, capped by `class_cap`
    /// (one slot per member bag).
    class_used: Vec<u16>,
    class_cap: Vec<u16>,
    /// Improving leaves found so far: `(profit, canonical entries)`.
    cands: Vec<(f64, PatternKey)>,
    /// Cached pruning threshold: `needed` until the candidate list is
    /// full, then the worst kept profit (see [`PriceDfs::reprice`]).
    threshold: f64,
    pool_keys: &'a HashSet<PatternKey>,
    /// This DFS explores only patterns whose first used item index is
    /// `≡ shard (mod shard_count)`; the empty pattern counts as shard 0.
    /// `(0, 1)` is the unsharded classic DFS.
    shard: usize,
    shard_count: usize,
    /// Whether any item has nonzero multiplicity along the current path
    /// (the shard constraint binds only the *first* used item).
    used_any: bool,
}

impl PriceDfs<'_> {
    /// Recompute the cached threshold after the candidate list changed.
    fn reprice(&mut self) {
        self.threshold = if self.cands.len() < COLS_PER_ROUND {
            self.needed
        } else {
            self.cands.iter().map(|c| c.0).fold(f64::INFINITY, f64::min).max(self.needed)
        };
    }

    /// Fractional-knapsack completion bound (Martello–Toth): the best
    /// profit reachable from item `i` with `cap` height left, ignoring
    /// the bag and symmetry constraints. Items are in density order, so
    /// greedily filling by density is the exact LP bound.
    fn bound(&self, i: usize, mut cap: f64) -> f64 {
        let mut b = 0.0;
        for item in &self.items[i..] {
            if cap <= 1e-12 {
                break;
            }
            let take = (item.max_mult as f64 * item.size).min(cap);
            b += take * item.density;
            cap -= take;
        }
        b
    }

    fn run(&mut self, i: usize, cap: f64, profit: f64) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.complete = false;
            return;
        }
        if i == self.items.len() {
            self.leaf(profit);
            return;
        }
        // No completion from here (including stopping early) can beat the
        // threshold once the fractional bound fails.
        if profit + self.bound(i, cap) <= self.threshold {
            return;
        }
        let item = &self.items[i];
        let by_cap = ((cap + 1e-9) / item.size).floor().max(0.0) as u32;
        let mut max_mult = item.max_mult.min(by_cap);
        if let Some(c) = item.class {
            max_mult = max_mult.min((self.class_cap[c] - self.class_used[c]) as u32);
        }
        if let Some(tp) = item.twin_prev {
            if self.used[tp] == 0 {
                max_mult = 0;
            }
        }
        // Shard constraint: until some item is used, only items of this
        // DFS's residue class may open a pattern (multiplicity 0 always
        // stays allowed — later items of the right residue may still
        // open it).
        if !self.used_any && i % self.shard_count != self.shard {
            max_mult = 0;
        }
        // Dense multiplicities first: good leaves early tighten pruning.
        for mult in (0..=max_mult).rev() {
            self.used[i] = mult as u16;
            if let Some(c) = item.class {
                self.class_used[c] += mult as u16;
            }
            let was_used_any = self.used_any;
            self.used_any = was_used_any || mult > 0;
            self.run(i + 1, cap - mult as f64 * item.size, profit + mult as f64 * item.value);
            self.used_any = was_used_any;
            if let Some(c) = item.class {
                self.class_used[c] -= mult as u16;
            }
            if !self.complete {
                break;
            }
        }
        self.used[i] = 0;
    }

    fn leaf(&mut self, profit: f64) {
        // The all-zero leaf (the empty pattern) belongs to shard 0; it
        // is in every pool anyway, so this only keeps the partition
        // clean.
        if !self.used_any && self.shard != 0 {
            return;
        }
        if profit <= self.threshold {
            return;
        }
        let mut entries: PatternKey = self
            .items
            .iter()
            .zip(&self.used)
            .filter(|(_, &u)| u > 0)
            .map(|(item, &u)| (item.sym, u))
            .collect();
        entries.sort_unstable();
        if self.pool_keys.contains(&entries) || self.cands.iter().any(|c| c.1 == entries) {
            return;
        }
        if self.cands.len() == COLS_PER_ROUND {
            let worst = self
                .cands
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                .map(|(i, _)| i)
                .expect("candidate list is full, hence nonempty");
            self.cands[worst] = (profit, entries);
        } else {
            self.cands.push((profit, entries));
        }
        self.reprice();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::pattern::{collect_symbols, enumerate_patterns};
    use crate::priority::select_priority;
    use crate::rounding::scale_and_round;
    use crate::transform::transform;
    use bagsched_types::Instance;

    fn transformed(jobs: &[(f64, u32)], m: usize, eps: f64) -> Transformed {
        let inst = Instance::new(jobs, m);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, eps).unwrap();
        let c = classify(&r, m);
        let cfg = EptasConfig::with_epsilon(eps);
        let p = select_priority(&inst, &r, &c, &cfg);
        transform(&inst, &r, &c, &p)
    }

    #[test]
    fn seed_pool_has_empty_and_singletons() {
        let t = transformed(&[(0.9, 0), (0.9, 1), (0.4, 2)], 3, 0.5);
        let symbols = collect_symbols(&t);
        let pool = seed_pool(&t, &symbols, &crate::classes::BagClasses::singletons(&t));
        assert!(pool[0].is_empty());
        for s in 0..symbols.len() {
            assert!(
                pool.iter().any(|p| p.entries == vec![(s, 1)]),
                "missing singleton for symbol {s}"
            );
        }
        // Every seed pattern is valid: height bound and one slot per
        // priority bag.
        for p in &pool {
            assert!(p.height <= t.t + 1e-9);
        }
    }

    /// The seed pool as built with the `m × bags` table
    /// `bag_used[machine][bag]` that per-bag machine lists replaced.
    fn table_seed_pool(
        trans: &Transformed,
        symbols: &[Symbol],
        classes: &BagClasses,
    ) -> Vec<Pattern> {
        let t = trans.t;
        let mut pool = vec![Pattern { entries: Vec::new(), height: 0.0 }];
        for (s, sym) in symbols.iter().enumerate() {
            if sym.size <= t + 1e-9 {
                pool.push(Pattern { entries: vec![(s, 1)], height: sym.size });
            }
        }
        let sym_index: HashMap<_, usize> =
            symbols.iter().enumerate().map(|(s, sym)| ((sym.exp, sym.bag), s)).collect();
        let size = |j: usize| trans.tinst.size(JobId(j as u32));
        let mut jobs: Vec<usize> =
            (0..trans.tinst.num_jobs()).filter(|&j| trans.tclass[j] != JobClass::Small).collect();
        jobs.sort_by(|&a, &b| size(b).total_cmp(&size(a)).then(a.cmp(&b)));
        let m = trans.tinst.num_machines();
        let mut height = vec![0.0f64; m];
        let mut counts: Vec<HashMap<usize, u16>> = vec![HashMap::new(); m];
        let mut bag_used = vec![vec![false; trans.tinst.num_bags()]; m];
        for j in jobs {
            let tbag = trans.tinst.bag_of(JobId(j as u32));
            let bag = if trans.is_priority_tbag[tbag.idx()] {
                SlotBag::Priority(classes.rep(classes.of(tbag).unwrap()))
            } else {
                SlotBag::X
            };
            let Some(&s) = sym_index.get(&(trans.texp[j], bag)) else { continue };
            let is_prio = matches!(bag, SlotBag::Priority(_));
            let target = (0..m)
                .filter(|&i| height[i] + symbols[s].size <= t + 1e-9)
                .filter(|&i| !(is_prio && bag_used[i][tbag.idx()]))
                .min_by(|&a, &b| height[a].total_cmp(&height[b]).then(a.cmp(&b)));
            let Some(i) = target else { continue };
            height[i] += symbols[s].size;
            *counts[i].entry(s).or_insert(0) += 1;
            bag_used[i][tbag.idx()] |= is_prio;
        }
        let mut seen: HashSet<PatternKey> = pool.iter().map(|p| p.entries.clone()).collect();
        for (i, c) in counts.iter().enumerate() {
            let mut entries: Vec<(usize, u16)> = c.iter().map(|(&s, &n)| (s, n)).collect();
            entries.sort_unstable();
            if !c.is_empty() && seen.insert(entries.clone()) {
                pool.push(Pattern { entries, height: height[i] });
            }
        }
        pool
    }

    #[test]
    fn seed_pool_picks_the_same_machines_as_a_bag_table() {
        use crate::pattern::collect_symbols_classed;
        use bagsched_types::{gen, lowerbound::lower_bounds};
        let cfg = EptasConfig::with_epsilon(0.5);
        let (mut packed, mut shared_bags) = (0usize, 0usize);
        for family in gen::Family::ALL {
            for (n, m) in [(40, 4), (60, 20), (90, 30), (2000, 700)] {
                let inst = family.generate(n, m, 3);
                let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
                let lb = lower_bounds(&inst).combined();
                for step in 0..3 {
                    let t0 = lb * (1.0 + 0.2 * step as f64);
                    let Some(r) = scale_and_round(&sizes, t0, 0.5) else { continue };
                    let c = classify(&r, m);
                    let p = select_priority(&inst, &r, &c, &cfg);
                    let t = transform(&inst, &r, &c, &p);
                    for classes in [BagClasses::singletons(&t), BagClasses::compute(&t)] {
                        let symbols = collect_symbols_classed(&t, &classes);
                        let pool = seed_pool(&t, &symbols, &classes);
                        assert_eq!(
                            pool,
                            table_seed_pool(&t, &symbols, &classes),
                            "{} n={n} m={m} step {step}",
                            family.name()
                        );
                        packed += pool.iter().filter(|p| p.num_slots() > 1).count();
                    }
                    // Priority bags with two non-small jobs: the mask has
                    // something to block.
                    let mut per_bag = vec![0u32; t.tinst.num_bags()];
                    for j in (0..t.tinst.num_jobs()).filter(|&j| t.tclass[j] != JobClass::Small) {
                        per_bag[t.tinst.bag_of(JobId(j as u32)).idx()] += 1;
                    }
                    shared_bags += (0..per_bag.len())
                        .filter(|&b| t.is_priority_tbag[b] && per_bag[b] > 1)
                        .count();
                }
            }
        }
        assert!(packed > 0 && shared_bags > 0, "{packed} packed patterns, {shared_bags} bags");
    }

    /// Phase B continued from phase A's basis solves the same LPs as
    /// phase B restarted cold: at the switch and after every enrichment
    /// round, the master re-solves warm and its objective matches a cold
    /// solve of the same master LP within 1e-9. Checked over the two
    /// `tight-milp` cells and a sample of every generator family, at the
    /// first guess of the grid `lb * (1 + 0.1 k)` whose feasibility phase
    /// succeeds, on the partition the ladder would open with.
    #[test]
    fn warm_phase_b_reaches_the_cold_phase_b_objective() {
        use crate::pattern::collect_symbols_classed;
        use bagsched_types::{gen, lowerbound::lower_bounds};
        let cfg = EptasConfig::with_epsilon(0.5);
        let mut cells =
            vec![gen::clustered(300, 100, 100, 5, 2), gen::clustered(450, 150, 150, 5, 2)];
        cells.extend(gen::Family::ALL.iter().map(|f| f.generate(60, 20, 4)));
        let mut solves = 0;
        for (cell, inst) in cells.iter().enumerate() {
            let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
            let lb = lower_bounds(inst).combined();
            let phase_a = (0..10).find_map(|k| {
                let r = scale_and_round(&sizes, lb * (1.0 + 0.1 * k as f64), 0.5)?;
                let c = classify(&r, inst.num_machines());
                let p = select_priority(inst, &r, &c, &cfg);
                let t = transform(inst, &r, &c, &p);
                let singles = BagClasses::singletons(&t);
                let classes =
                    if collect_symbols_classed(&t, &singles).len() > cfg.pricing_symbol_budget {
                        BagClasses::compute(&t)
                    } else {
                        singles
                    };
                let symbols = collect_symbols_classed(&t, &classes);
                let mut stats = Stats::default();
                let (master, _) =
                    feasibility_phase(&t, &symbols, &classes, &cfg, &mut stats, None).ok()?;
                Some((t, classes, symbols, master))
            });
            let (t, classes, symbols, mut master) =
                phase_a.expect("a guess on the grid is feasible");
            let px = PriceCtx { symbols: &symbols, classes: &classes, t: t.t };
            let mut stats = Stats::default();
            master.start_phase_b(false);
            for round in 0..=ENRICH_ROUNDS {
                let (lp, warm) = master.model.solve_lp_with(&mut master.warm);
                let reference = master.model.solve_lp();
                assert!(warm, "cell {cell} round {round}: the re-solve went cold");
                assert_eq!(lp.status, LpStatus::Optimal, "cell {cell} round {round}");
                assert_eq!(reference.status, LpStatus::Optimal, "cell {cell} round {round}");
                assert!(
                    (lp.objective - reference.objective).abs() < 1e-9,
                    "cell {cell} round {round}: warm {} vs cold {}",
                    lp.objective,
                    reference.objective
                );
                solves += 1;
                let (cands, _) =
                    price(&px, &lp.duals, master.col_cost, &cfg, &mut stats, &master.keys);
                if cands.is_empty() {
                    break;
                }
                master.purge(&lp, &mut stats);
                master.admit(cands, &mut stats);
            }
        }
        assert!(solves >= 30, "{solves} phase-B solves compared");
    }

    #[test]
    fn converges_to_feasible_pool_on_feasible_guess() {
        let t = transformed(&[(0.9, 0), (0.9, 1), (0.4, 2), (0.05, 0), (0.05, 3)], 3, 0.5);
        let symbols = collect_symbols(&t);
        let cfg = EptasConfig::with_epsilon(0.5);
        let mut stats = Stats::default();
        match generate_columns(
            &t,
            &symbols,
            &crate::classes::BagClasses::singletons(&t),
            &cfg,
            &mut stats,
            None,
            &mut Enrichment::default(),
        ) {
            Pricing::Converged(pool, _) => {
                assert!(pool[0].is_empty());
                // The pool stays far below eager enumeration on any
                // nontrivial instance and every pattern is valid.
                let full = enumerate_patterns(&t, 100_000).unwrap();
                assert!(pool.len() <= full.patterns.len());
                for p in &pool {
                    assert!(p.height <= t.t + 1e-9, "pattern higher than T");
                }
            }
            other => panic!("expected convergence, got {other:?}"),
        }
        assert!(stats.lp_solves > 0, "master LP solves must be counted");
        assert!(stats.pricing_rounds > 0, "terminal pricing round must be counted");
        assert!(stats.pricing_dfs_nodes > 0);
    }

    #[test]
    fn proves_infeasibility_when_jobs_cannot_fit() {
        // Five unit jobs on two machines at guess 1: every pattern holds
        // at most two unit slots (T = 2.25), so the covering rows need
        // more than two machines — pricing must refute the guess.
        let t = transformed(&[(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3), (1.0, 4)], 2, 0.5);
        let symbols = collect_symbols(&t);
        let cfg = EptasConfig::with_epsilon(0.5);
        let mut stats = Stats::default();
        assert!(matches!(
            generate_columns(
                &t,
                &symbols,
                &crate::classes::BagClasses::singletons(&t),
                &cfg,
                &mut stats,
                None,
                &mut Enrichment::default()
            ),
            Pricing::Infeasible
        ));
    }

    #[test]
    fn priced_patterns_respect_priority_bag_rule() {
        // Two large jobs of one priority bag: no pattern may hold both.
        let t = transformed(&[(0.9, 0), (0.9, 0), (0.05, 0), (0.9, 1)], 3, 0.5);
        let symbols = collect_symbols(&t);
        let cfg = EptasConfig::with_epsilon(0.5);
        let mut stats = Stats::default();
        let Pricing::Converged(pool, _) = generate_columns(
            &t,
            &symbols,
            &crate::classes::BagClasses::singletons(&t),
            &cfg,
            &mut stats,
            None,
            &mut Enrichment::default(),
        ) else {
            panic!("expected convergence");
        };
        for p in &pool {
            let mut bags = Vec::new();
            for &(s, mult) in &p.entries {
                if let SlotBag::Priority(b) = symbols[s].bag {
                    assert_eq!(mult, 1, "priority slot multiplicity must be 1");
                    assert!(!bags.contains(&b), "two slots of one priority bag");
                    bags.push(b);
                }
            }
        }
    }

    #[test]
    fn pool_is_deterministic() {
        let jobs: Vec<(f64, u32)> = (0..14).map(|i| (0.3 + 0.05 * (i % 7) as f64, i)).collect();
        let t = transformed(&jobs, 5, 0.5);
        let symbols = collect_symbols(&t);
        let cfg = EptasConfig::with_epsilon(0.5);
        let run = || {
            let mut stats = Stats::default();
            match generate_columns(
                &t,
                &symbols,
                &crate::classes::BagClasses::singletons(&t),
                &cfg,
                &mut stats,
                None,
                &mut Enrichment::default(),
            ) {
                Pricing::Converged(pool, _) => (pool, stats),
                other => panic!("expected convergence, got {other:?}"),
            }
        };
        let (pool_a, stats_a) = run();
        let (pool_b, stats_b) = run();
        assert_eq!(pool_a.len(), pool_b.len());
        for (a, b) in pool_a.iter().zip(&pool_b) {
            assert_eq!(a.entries, b.entries);
        }
        assert_eq!(stats_a, stats_b);
    }
}
