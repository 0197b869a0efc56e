//! The configuration MILP (paper §3), restricted to a pattern pool.
//!
//! Only the large jobs' pattern counts must be integral, so they are the
//! only variables: `x_p` (integer) machines run pattern `p` — constraint
//! (6). The rows:
//! * (1) `sum_p x_p <= m`;
//! * (2) per slot symbol: `sum_p x_p * mult_p(symbol) = avail` on the
//!   per-bag path (the paper writes `>=`; equality is equally valid — an
//!   optimal schedule uses each job exactly once — and prunes the
//!   search). The class-aggregated path uses the paper's `>=` instead,
//!   because class multiplicities make every up-dive of the
//!   branch-and-bound overshoot an equality; [`crate::declass`] trims
//!   the surplus slots afterwards;
//! * the *area cut* `sum_p x_p * (T - height(p)) >= ` the total small
//!   area, priority and non-priority — the capacity rows (4) summed over
//!   patterns;
//! * per bag class `C` owning priority small jobs, a *count cut*
//!   `sum_p x_p * free_C(p) >= ` its small-job count and an *area cut*
//!   `sum_{p : free_C(p) > 0} x_p * (T - height(p)) >= ` its small area —
//!   rows (3)–(5) of the class summed over patterns. `free_C(p) = |C| -
//!   mult_C(p)` counts the member bags without a large slot on a machine
//!   of pattern `p`; singleton classes recover the paper's boolean `chi`
//!   exclusion.
//!
//! The rows come in this order, the pricing master's three kinds first
//! and the class cuts in pairs below them. The model is built as column
//! generation builds it: the rows with their right-hand sides, then one
//! `Pattern::column` per pattern, the same column rule the pricing
//! master and the in-tree pricer use.
//!
//! The small jobs' `y` is then realized greedily over the solved `x`
//! (`greedy_small_y`): priority pairs per pattern, fractional
//! throughout (constraint (7)'s integral `y` is replaced by the
//! Corollary-1 merge in [`crate::small`], the same `O(eps)` error at
//! practical constants). Non-priority small jobs enter by area alone,
//! since Lemma 9 re-places them from scratch.
//!
//! The one departure from the paper: the cuts are necessary for a
//! fractional `y` but not sufficient, and the greedy is not exact, so a
//! failed realization does not refute the guess. It is reported as
//! inconclusive ([`GuessFailure::SmallPlacement`]) and the driver raises
//! the guess, as for every budget-type failure.
//!
//! ## Pattern generation: one pipeline over a bag-partition ladder
//!
//! [`PatternSolve::run`] runs one pipeline — the [`crate::pricing`]
//! subsystem grows a small pattern pool by column generation against the
//! master-LP duals, the restricted MILP runs on that pool with in-tree
//! pricing, and [`crate::declass`] maps class-keyed solutions back to
//! concrete bags — over a ladder of bag partitions: exact classes, then
//! coarse classes (both only when the per-bag master is over its symbol
//! budget), then per-bag. Eager [`crate::pattern::enumerate_patterns`]
//! with [`solve_with_patterns`] is the cross-validation oracle of the
//! tests and benches; no solve runs it.

use crate::classes::BagClasses;
use crate::classify::JobClass;
use crate::config::EptasConfig;
use crate::par::CancelToken;
use crate::pattern::{collect_symbols_classed, Pattern, PatternSet, Symbol};
use crate::pricing::{generate_columns, Enrichment, Pricing, TreePriceDriver};
use crate::report::{GuessFailure, Stats};
use crate::rounding::SizeExp;
use crate::transform::Transformed;
use bagsched_milp::{
    solve_milp_with, Basis, MilpOptions, MilpResult, MilpStatus, Model, Relation, WarmState,
};
use bagsched_types::{BagId, JobId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A priority size-restricted bag of small jobs: `B_l^s` with `l` priority.
#[derive(Debug, Clone)]
pub struct SmallPair {
    /// The (transformed) priority bag.
    pub tbag: BagId,
    /// Size exponent.
    pub exp: SizeExp,
    /// Rounded size.
    pub size: f64,
    /// The jobs of this pair.
    pub jobs: Vec<JobId>,
}

/// Solution of the MILP phase.
#[derive(Debug, Clone)]
pub struct MilpOutcome {
    /// Machines per pattern (integral), indexed over the solved pool —
    /// including any tree-priced patterns appended at its tail (the
    /// extended [`PatternSet`] returned alongside by the solve).
    pub x: Vec<u32>,
    /// Fractional job counts per `(pair index, pattern index)`.
    pub y: HashMap<(usize, usize), f64>,
    /// The priority small pairs (index space of `y`).
    pub pairs: Vec<SmallPair>,
    /// Branch-and-bound nodes.
    pub nodes: usize,
    /// Simplex iterations.
    pub lp_iterations: usize,
}

/// The bag partition one rung of the pattern ladder runs over. Every rung
/// runs the same pipeline — pricing, the restricted MILP, de-classing —
/// keyed on a different [`BagClasses`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Partition {
    /// One class per priority bag: the per-bag master, nothing to
    /// de-class.
    PerBag,
    /// Exact interchangeability classes ([`BagClasses::compute`]).
    Exact,
    /// Template-quantized classes ([`BagClasses::compute_coarse`]),
    /// priced at the per-size member minimum; the de-class repair pass
    /// re-places each member's surplus jobs.
    Coarse,
}

impl Partition {
    /// This partition of the transformed instance's priority bags.
    fn classes(self, trans: &Transformed, cfg: &EptasConfig) -> BagClasses {
        match self {
            Partition::PerBag => BagClasses::singletons(trans),
            Partition::Exact => BagClasses::compute(trans),
            Partition::Coarse => BagClasses::compute_coarse(trans, cfg.coarse_tolerance),
        }
    }
}

/// Solution of one [`PatternSolve::run`], and the seed that replays it:
/// the pool the downstream placement phases consume (tree-priced tail
/// included) and the MILP outcome over it, plus the partition the solve
/// ran over, the rounded guess and the symbol table.
///
/// Replaying ([`PatternSolution::replay`]) skips the whole pattern phase —
/// pricing rounds and the restricted MILP — and hands the solution
/// straight to placement. Validation is structural: the rounded guess and
/// the symbol table of the rebuilt partition (sizes, bags *and*
/// availabilities) must match bit-exactly, so replaying against a
/// mismatched instance (a fingerprint collision upstream) fails with
/// [`GuessFailure::SeedMismatch`] instead of mis-scheduling.
#[derive(Debug, Clone)]
pub struct PatternSolution {
    /// The final (post-extension, post-declass) pattern set the placement
    /// phases consume (`outcome.x`'s index space).
    pub patterns: PatternSet,
    /// The integral outcome over `patterns`.
    pub outcome: MilpOutcome,
    partition: Partition,
    /// `trans.t` of the solve; replay requires a bit-exact match.
    t: f64,
    /// The symbol table the solve priced over (replay validation).
    symbols: Vec<Symbol>,
}

/// Builder for one guess's pattern phase: generate patterns and solve the
/// MILP when [`run`](PatternSolve::run). A cached solution replays
/// through [`PatternSolution::replay`] instead.
///
/// ```
/// use bagsched_core::classify::classify;
/// use bagsched_core::priority::select_priority;
/// use bagsched_core::rounding::scale_and_round;
/// use bagsched_core::transform::transform;
/// use bagsched_core::{EptasConfig, PatternSolution, PatternSolve, Stats};
/// use bagsched_types::Instance;
///
/// // Two large jobs and a medium one in bags of their own, small jobs
/// // beside them, on three machines; guess makespan 1.
/// let inst = Instance::new(&[(0.9, 0), (0.9, 1), (0.4, 2), (0.05, 0), (0.05, 3)], 3);
/// let cfg = EptasConfig::with_epsilon(0.5);
/// let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
/// let rounded = scale_and_round(&sizes, 1.0, cfg.epsilon).unwrap();
/// let class = classify(&rounded, inst.num_machines());
/// let priority = select_priority(&inst, &rounded, &class, &cfg);
/// let trans = transform(&inst, &rounded, &class, &priority);
///
/// let mut stats = Stats::default();
/// let sol = PatternSolve::new(&trans, &cfg).run(&mut stats).expect("the guess fits");
/// let seed = std::sync::Arc::new(sol);
/// let again = PatternSolution::replay(&seed, &trans, &cfg).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&again, &seed));
/// ```
#[derive(Debug)]
pub struct PatternSolve<'a> {
    trans: &'a Transformed,
    cfg: &'a EptasConfig,
    cancel: Option<&'a CancelToken>,
    enrich: Option<&'a mut Enrichment>,
}

impl<'a> PatternSolve<'a> {
    /// Start a pattern solve for one guess.
    pub fn new(trans: &'a Transformed, cfg: &'a EptasConfig) -> Self {
        PatternSolve { trans, cfg, cancel: None, enrich: None }
    }

    /// Observe a cancellation token: the pricing loop polls it per
    /// round and the branch-and-bound between nodes, unwinding as
    /// [`GuessFailure::Cancelled`]. The solve's results are only valid
    /// while the token has not tripped — a racing caller must discard
    /// the output of a cancelled solve.
    pub fn cancel_token(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Run every rung's phase-B enrichment as `enrich` asks and record
    /// into it whether the round cap cut a narrow master short (see
    /// [`Enrichment`]). Without it every master stops at the cap.
    pub fn enrichment(mut self, enrich: &'a mut Enrichment) -> Self {
        self.enrich = Some(enrich);
        self
    }

    /// Run the solve: climb the ladder of bag partitions, each rung one
    /// `solve_over`. Work
    /// counters are recorded into `stats` whatever the outcome. Verdict
    /// soundness:
    ///
    /// * pricing-proven infeasibility ([`Pricing::Infeasible`]) refutes a
    ///   relaxation of the full MILP, so `Err(MilpInfeasible)` is exact
    ///   on every rung: every per-bag pattern multiset maps to a
    ///   class-level one covering at least the (minimum) availabilities,
    ///   so an aggregated master only relaxes;
    /// * a rung that cannot settle the guess — pricing stalled
    ///   ([`GuessFailure::PatternBudget`]), the restricted MILP failed, or
    ///   de-classing failed — hands it to the next rung, so aggregation
    ///   never worsens a verdict;
    /// * the per-bag rung closes the ladder, and its failure is the
    ///   solve's: inconclusive, so the driver raises the guess.
    pub fn run(self, stats: &mut Stats) -> Result<PatternSolution, GuessFailure> {
        let (trans, cfg, cancel) = (self.trans, self.cfg, self.cancel);
        let mut capped = Enrichment::default();
        let enrich = self.enrich.unwrap_or(&mut capped);
        // The ladder always ends on the per-bag rung, whose failure wins.
        let mut failure = GuessFailure::PatternBudget;
        for (partition, classes) in ladder(trans, cfg) {
            match solve_over(trans, cfg, partition, &classes, stats, cancel, enrich) {
                Ok(sol) => return Ok(sol),
                Err(Unsolved::Final(fail)) => return Err(fail),
                Err(Unsolved::Inconclusive(fail)) => failure = fail,
            }
        }
        Err(failure)
    }
}

/// Collect the priority small pairs of the transformed instance, one per
/// concrete `(priority bag, size)`.
pub fn priority_small_pairs(trans: &Transformed) -> Vec<SmallPair> {
    priority_small_pairs_classed(trans, &BagClasses::singletons(trans))
}

/// Priority small pairs keyed on `(bag class, size)`: the pair's `tbag`
/// is the class representative and its jobs are the union over all
/// member bags (identical profiles guarantee identical small multisets).
/// Singleton classes reproduce [`priority_small_pairs`] exactly.
pub fn priority_small_pairs_classed(trans: &Transformed, classes: &BagClasses) -> Vec<SmallPair> {
    let epsilon = trans.t.sqrt() - 1.0;
    let mut map: HashMap<(BagId, SizeExp), Vec<JobId>> = HashMap::new();
    for j in 0..trans.tinst.num_jobs() {
        if trans.tclass[j] != JobClass::Small {
            continue;
        }
        let tbag = trans.tinst.bag_of(JobId(j as u32));
        if trans.is_priority_tbag[tbag.idx()] {
            let rep = classes.rep(classes.of(tbag).expect("priority bags are classed"));
            map.entry((rep, trans.texp[j])).or_default().push(JobId(j as u32));
        }
    }
    let mut pairs: Vec<SmallPair> = map
        .into_iter()
        .map(|((tbag, exp), jobs)| SmallPair {
            tbag,
            exp,
            size: crate::rounding::exp_size(exp, epsilon),
            jobs,
        })
        .collect();
    // Deterministic order, large sizes first (the greedy path packs big
    // pieces while area is plentiful).
    pairs.sort_by(|a, b| b.size.total_cmp(&a.size).then(a.tbag.cmp(&b.tbag)));
    pairs
}

/// Total rounded area of non-priority small jobs (fillers included).
pub fn nonpriority_small_area(trans: &Transformed) -> f64 {
    (0..trans.tinst.num_jobs())
        .filter(|&j| {
            trans.tclass[j] == JobClass::Small
                && !trans.is_priority_tbag[trans.tinst.bag_of(JobId(j as u32)).idx()]
        })
        .map(|j| trans.tinst.size(JobId(j as u32)))
        .sum()
}

/// The rungs a fresh solve climbs, in order. The class-aggregated rungs
/// are the scale path: they engage only when the per-bag master would be
/// over [`EptasConfig::pricing_symbol_budget`]; below it the per-bag path
/// is proven, fast and byte-for-byte deterministic. Exact classes come
/// first; coarse classes follow only when coarsening merged something the
/// exact partition keeps apart (equal class counts mean the same
/// partition, as always at [`EptasConfig::coarse_tolerance`] `= 0.0`).
/// Per-bag always closes the ladder.
fn ladder(trans: &Transformed, cfg: &EptasConfig) -> Vec<(Partition, BagClasses)> {
    let per_bag = Partition::PerBag.classes(trans, cfg);
    let mut rungs = Vec::new();
    if collect_symbols_classed(trans, &per_bag).len() > cfg.pricing_symbol_budget {
        let exact = Partition::Exact.classes(trans, cfg);
        let coarse = Some(Partition::Coarse.classes(trans, cfg))
            .filter(|c| !c.all_singletons() && c.num_classes() < exact.num_classes());
        if !exact.all_singletons() {
            rungs.push((Partition::Exact, exact));
        }
        rungs.extend(coarse.map(|c| (Partition::Coarse, c)));
    }
    rungs.push((Partition::PerBag, per_bag));
    rungs
}

/// How a rung of the ladder ended without a solution.
enum Unsolved {
    /// A final verdict: a pricing infeasibility proof or a cancellation.
    Final(GuessFailure),
    /// Pricing stalled before convergence
    /// ([`GuessFailure::PatternBudget`]), the MILP restricted to the
    /// priced pool failed, or de-classing its solution did.
    Inconclusive(GuessFailure),
}

/// One rung of the ladder: price a pool over the partition's symbols,
/// solve the restricted MILP over it with in-tree pricing, and de-class
/// the result unless the partition is per-bag.
fn solve_over(
    trans: &Transformed,
    cfg: &EptasConfig,
    partition: Partition,
    classes: &BagClasses,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
    enrich: &mut Enrichment,
) -> Result<PatternSolution, Unsolved> {
    if partition == Partition::Coarse {
        stats.coarse_classes_formed += classes.num_classes() as u64;
    }
    stats.bag_classes += classes.num_classes() as u64;
    let symbols = collect_symbols_classed(trans, classes);
    stats.symbols_after_aggregation += symbols.len() as u64;
    let (pool, basis) = match generate_columns(trans, &symbols, classes, cfg, stats, cancel, enrich)
    {
        Pricing::Converged(pool, basis) => (pool, basis),
        Pricing::Infeasible => return Err(Unsolved::Final(GuessFailure::MilpInfeasible)),
        Pricing::Cancelled => return Err(Unsolved::Final(GuessFailure::Cancelled)),
        Pricing::Stalled => return Err(Unsolved::Inconclusive(GuessFailure::PatternBudget)),
    };
    let ps = PatternSet::from_parts(symbols, pool);
    let ladder = Ladder { cancel, root: basis.as_ref() };
    let (out, ext) = solve_restricted(trans, &ps, classes, cfg, stats, Some(ladder))
        .map_err(Unsolved::Inconclusive)?;
    let ps = ext.unwrap_or(ps);
    let symbols = ps.symbols.clone();
    let (patterns, outcome) = if partition == Partition::PerBag {
        (ps, out)
    } else {
        crate::declass::declass(trans, classes, &ps, &out, stats).map_err(Unsolved::Inconclusive)?
    };
    Ok(PatternSolution { patterns, outcome, partition, t: trans.t, symbols })
}

impl PatternSolution {
    /// Replay a cached solution for `trans`: rebuild the recorded
    /// partition, compare its symbol table with the seed's, and hand the
    /// seed itself (shared, not copied) to placement.
    pub fn replay(
        seed: &Arc<PatternSolution>,
        trans: &Transformed,
        cfg: &EptasConfig,
    ) -> Result<Arc<PatternSolution>, GuessFailure> {
        // The rounded guess pins the whole size geometry; a drifted `t`
        // means the seed belongs to a different guess grid.
        if trans.t.to_bits() != seed.t.to_bits() {
            return Err(GuessFailure::SeedMismatch);
        }
        let classes = seed.partition.classes(trans, cfg);
        if (seed.partition != Partition::PerBag && classes.all_singletons())
            || collect_symbols_classed(trans, &classes) != seed.symbols
        {
            return Err(GuessFailure::SeedMismatch);
        }
        // The symbol table (availabilities included) matched bit-exactly, so
        // the cached multiplicities place this instance's large/priority
        // jobs decision for decision. Anything the outcome cannot cover
        // (e.g. a drifted small-job area on a colliding fingerprint) fails
        // in a placement phase as an ordinary `GuessFailure` and the driver
        // solves cold.
        Ok(Arc::clone(seed))
    }
}

/// The one place pattern sets grow a tree-priced tail: patterns append in
/// column order, the `chi` table is rebuilt. Built once per tree-priced
/// solve and handed up to the caller alongside the outcome.
fn extend_patterns(ps: PatternSet, extra: &[Pattern]) -> PatternSet {
    let mut patterns = ps.patterns;
    patterns.extend(extra.iter().cloned());
    PatternSet::from_parts(ps.symbols, patterns)
}

/// Build and solve the MILP for one guess over a *given* per-bag pattern
/// set — the eager oracle's surface, tree pricing off. Simplex/branch-
/// and-bound work counters are recorded into `stats` whatever the
/// outcome, so infeasible and budget-exhausted guesses still account for
/// their cost.
pub fn solve_with_patterns(
    trans: &Transformed,
    ps: &PatternSet,
    cfg: &EptasConfig,
    stats: &mut Stats,
) -> Result<MilpOutcome, GuessFailure> {
    let singles = BagClasses::singletons(trans);
    solve_restricted(trans, ps, &singles, cfg, stats, None).map(|(out, _)| out)
}

/// What a rung of the ladder adds to a restricted MILP over its priced
/// pool: in-tree pricing, the solve's cancellation token, and the pricing
/// master's final basis ([`Pricing::Converged`]) for the root.
#[derive(Clone, Copy)]
struct Ladder<'a> {
    cancel: Option<&'a CancelToken>,
    root: Option<&'a Basis>,
}

/// The restricted configuration MILP over a (priced or enumerated) pool,
/// keyed on `classes`: the covering rows run over whatever symbols `ps`
/// carries, and the small-job cuts run per class with the per-pattern
/// free capacity `|C| - mult_C(p)` (see the module docs). Singleton
/// classes reproduce the per-bag model term for term. Small jobs are then
/// realized by [`greedy_small_y`].
///
/// With `ladder` set, fractional node LPs of the branch-and-bound consult
/// the knapsack pricing DFS against the node duals and graft improving
/// patterns as new integer columns (see [`TreePriceDriver`]). Only the
/// ladder's priced pools enable it — the oracle's enumerated pools are
/// complete by construction. Tree columns enter every row, so small jobs
/// are realized on their machines too. When tree columns were generated
/// the second return value carries the extended pattern set (`x`'s index
/// space), built exactly once.
///
/// The ladder's root basis names pool patterns and master rows; the rows
/// the master does not have, the class cuts, enter with their slacks
/// basic. A cut the master's point violates is left to the root's dual
/// simplex, and a basis that does not fit the model leaves the root to
/// solve cold.
fn solve_restricted(
    trans: &Transformed,
    ps: &PatternSet,
    classes: &BagClasses,
    cfg: &EptasConfig,
    stats: &mut Stats,
    ladder: Option<Ladder<'_>>,
) -> Result<(MilpOutcome, Option<PatternSet>), GuessFailure> {
    let pairs = priority_small_pairs_classed(trans, classes);
    let w_nonprio = nonpriority_small_area(trans);
    let ctx = ClassCtx::new(classes, ps, &pairs);
    let model = restricted_model(trans, ps, &ctx, &pairs, w_nonprio);
    let cancel = ladder.and_then(|l| l.cancel);
    let root = ladder.and_then(|l| l.root).and_then(|basis| {
        let mut basis = basis.clone();
        basis.slack_rows.extend(ps.symbols.len() + 2..model.num_cons());
        WarmState::from_basis(&model, &basis)
    });
    let driver =
        ladder.map(|_| TreePriceDriver::new(&ps.symbols, &ctx, trans.t, cfg, &ps.patterns));
    let (res, tree_patterns) = run_milp(&model, stats, driver, cancel, root);
    record_milp(stats, &res);
    // `res.x` spans every column: the pool's, then the tree-priced ones
    // in the order they were appended.
    let xs: Vec<u32> = match res.status {
        MilpStatus::Optimal | MilpStatus::Feasible => {
            res.x.iter().map(|&v| v.round() as u32).collect()
        }
        MilpStatus::Infeasible => return Err(GuessFailure::MilpInfeasible),
        // A budget stop under a tripped token is a cancellation, not a
        // verdict: the driver must not raise the search on it.
        MilpStatus::Budget | MilpStatus::Unbounded => {
            return Err(if cancel.is_some_and(CancelToken::is_cancelled) {
                GuessFailure::Cancelled
            } else {
                GuessFailure::MilpBudget
            });
        }
    };

    // The greedy `y` must see the same index space as `xs`: extend the
    // pattern set (and its class context) with the tree columns, once —
    // the same extended set rides up to the caller.
    let ext = (!tree_patterns.is_empty()).then(|| extend_patterns(ps.clone(), &tree_patterns));
    let y = match &ext {
        None => greedy_small_y(trans, ps, &xs, &pairs, w_nonprio, &ctx)?,
        Some(ext) => {
            let ext_ctx = ClassCtx::new(classes, ext, &pairs);
            greedy_small_y(trans, ext, &xs, &pairs, w_nonprio, &ext_ctx)?
        }
    };
    Ok((MilpOutcome { x: xs, y, pairs, nodes: res.nodes, lp_iterations: res.lp_iterations }, ext))
}

/// The restricted MILP over `ps`: its rows (1), (2), the aggregate area
/// cut and the per-class count and area cuts of `ctx` (see the module
/// docs), then one integer column per pattern by [`Pattern::column`].
/// Singleton classes reproduce the per-bag model term for term.
fn restricted_model(
    trans: &Transformed,
    ps: &PatternSet,
    ctx: &ClassCtx<'_>,
    pairs: &[SmallPair],
    w_nonprio: f64,
) -> Model {
    // The per-bag path keeps the equality covering (2) — it prunes the
    // search and downstream consumes counts exactly. The aggregated path
    // uses the paper's original `>=`: with class multiplicities the
    // branch-and-bound dive constantly overshoots an equality when it
    // rounds up, turning every up-child infeasible; under `>=` dives
    // land, and [`crate::declass`] trims the surplus slots (a sub-multiset
    // of a pattern is itself a valid pattern).
    let covering = if ctx.classes.all_singletons() { Relation::Eq } else { Relation::Ge };
    let mut model = Model::new();
    // (1)
    model.add_con(&[], Relation::Le, trans.tinst.num_machines() as f64);
    // (2) per symbol.
    for sym in &ps.symbols {
        model.add_con(&[], covering, sym.avail as f64);
    }
    // Aggregate area cut: all small jobs must fit above the patterns.
    let w_prio: f64 = pairs.iter().map(|p| p.size * p.jobs.len() as f64).sum();
    model.add_con(&[], Relation::Ge, w_prio + w_nonprio);
    // Per class with smalls: count and area cuts over the free member
    // capacity (singleton classes: chi = 0 patterns with weight 1).
    for &c in &ctx.with_smalls {
        let rep = ctx.classes.rep(c);
        let count: f64 =
            pairs.iter().filter(|pr| pr.tbag == rep).map(|pr| pr.jobs.len() as f64).sum();
        let area: f64 =
            pairs.iter().filter(|pr| pr.tbag == rep).map(|pr| pr.size * pr.jobs.len() as f64).sum();
        model.add_con(&[], Relation::Ge, count);
        model.add_con(&[], Relation::Ge, area);
    }
    // x_p: integer in [0, inf); empty pattern costs nothing. Row (1)
    // already caps every x_p at m, so the variables carry no upper bound
    // of their own: the LP engine would turn each finite one into an
    // explicit row of every node LP. Only branching adds bound rows. The
    // tiny index-dependent perturbation breaks the column symmetry of
    // bag-symmetric patterns — without it the simplex stalls in degenerate
    // pivots on the covering equalities and the B&B dive cannot reach an
    // incumbent within budget.
    for (p, pat) in ps.patterns.iter().enumerate() {
        let obj = if p == 0 { 0.0 } else { 1.0 + p as f64 * 1e-9 };
        let col = pat.column(ps.symbols.len(), trans.t, &ctx.free_caps(&ctx.class_mult[p]));
        let v = model.add_column(obj, 0.0, f64::INFINITY, &col);
        model.set_integer(v, true);
    }
    model
}

/// The class context of a restricted MILP over one pattern set: which
/// classes own priority small jobs, and how many member bags of each
/// class every pattern leaves without a large slot.
pub(crate) struct ClassCtx<'a> {
    pub(crate) classes: &'a BagClasses,
    /// `[pattern][class]` slot counts: how many slots of class `c`
    /// pattern `p` holds, summed over sizes. The class-keyed
    /// generalization of `chi`: with singleton classes the entries are
    /// 0/1 and `class_mult[p][c] == 1` iff `chi_p(rep_c)`.
    class_mult: Vec<Vec<u32>>,
    /// Classes that own priority small jobs, in pair order.
    with_smalls: Vec<usize>,
}

impl<'a> ClassCtx<'a> {
    /// The context of `ps` under `classes`, for the small pairs `pairs`.
    pub(crate) fn new(classes: &'a BagClasses, ps: &PatternSet, pairs: &[SmallPair]) -> Self {
        let mut with_smalls = Vec::new();
        for pair in pairs {
            let c = classes.of(pair.tbag).expect("pair reps are classed");
            if !with_smalls.contains(&c) {
                with_smalls.push(c);
            }
        }
        let class_mult =
            ps.patterns.iter().map(|pat| pat.class_multiplicities(&ps.symbols, classes)).collect();
        ClassCtx { classes, class_mult, with_smalls }
    }

    /// Per-machine capacity pattern `p` leaves for small jobs of class
    /// `c`: member bags without a large slot on the machine.
    fn free_cap(&self, p: usize, c: usize) -> u32 {
        self.free_cap_of(&self.class_mult[p], c)
    }

    /// `|C| - mult_C(p)` for a pattern with class multiplicities
    /// `class_mult`.
    fn free_cap_of(&self, class_mult: &[u32], c: usize) -> u32 {
        (self.classes.size(c) as u32).saturating_sub(class_mult[c])
    }

    /// The free capacities of a pattern with class multiplicities
    /// `class_mult`, one per class cut pair in row order: the `free`
    /// argument of [`Pattern::column`].
    pub(crate) fn free_caps(&self, class_mult: &[u32]) -> Vec<u32> {
        self.with_smalls.iter().map(|&c| self.free_cap_of(class_mult, c)).collect()
    }
}

/// Fold one MILP solve's counters into the run-wide stats.
fn record_milp(stats: &mut Stats, res: &bagsched_milp::MilpResult) {
    stats.simplex_pivots += res.lp_iterations as u64;
    stats.lp_solves += res.lp_solves as u64;
    stats.milp_nodes += res.nodes as u64;
    stats.dual_pivots += res.dual_pivots as u64;
    stats.node_warm_starts += res.node_warm_starts as u64;
    stats.tree_columns_generated += res.tree_columns as u64;
    stats.basis_refactorizations += res.basis_refactorizations as u64;
    stats.eta_updates += res.eta_updates as u64;
}

/// Wall-clock budget per restricted-MILP solve.
const MILP_TIME_LIMIT: Duration = Duration::from_secs(20);

/// Branch-and-bound node budget per restricted-MILP solve.
const MILP_MAX_NODES: usize = 20_000;

fn milp_options(cancel: Option<&CancelToken>) -> MilpOptions {
    MilpOptions {
        max_nodes: MILP_MAX_NODES,
        time_limit: MILP_TIME_LIMIT,
        first_solution: true,
        price_after_nodes: 32,
        cancel: cancel.map(CancelToken::probe),
    }
}

/// Run the restricted MILP from the root basis `root`, with the in-tree
/// pricer attached when `tree` is set. Returns the raw result plus the
/// tree-priced patterns, in column order.
fn run_milp(
    model: &Model,
    stats: &mut Stats,
    tree: Option<TreePriceDriver<'_>>,
    cancel: Option<&CancelToken>,
    root: Option<WarmState>,
) -> (MilpResult, Vec<Pattern>) {
    match tree {
        Some(mut driver) => {
            let res = solve_milp_with(model, &milp_options(cancel), Some(&mut driver), root);
            stats.add(&driver.stats);
            (res, driver.new_patterns)
        }
        None => (solve_milp_with(model, &milp_options(cancel), None, root), Vec::new()),
    }
}

/// Greedy fractional y over a solved `x`: big pieces first, onto the
/// pattern with the most free area per machine, respecting the
/// per-(pattern, class) count cap `free_cap * x_p` and the area budgets;
/// non-priority area `w_nonprio` must still fit afterwards. Shared by the
/// restricted MILP and the de-classer (which re-realizes the small jobs on
/// the concrete patterns).
pub(crate) fn greedy_small_y(
    trans: &Transformed,
    ps: &PatternSet,
    xs: &[u32],
    pairs: &[SmallPair],
    w_nonprio: f64,
    ctx: &ClassCtx<'_>,
) -> Result<HashMap<(usize, usize), f64>, GuessFailure> {
    let np = ps.patterns.len();
    let mut area_left: Vec<f64> = ps
        .patterns
        .iter()
        .enumerate()
        .map(|(p, pat)| xs[p] as f64 * (trans.t - pat.height))
        .collect();
    let mut class_cap: HashMap<(usize, usize), f64> = HashMap::new();
    for &c in &ctx.with_smalls {
        for (p, &xp) in xs.iter().enumerate() {
            let free = ctx.free_cap(p, c);
            if free > 0 {
                class_cap.insert((c, p), free as f64 * xp as f64);
            }
        }
    }
    let mut y: HashMap<(usize, usize), f64> = HashMap::new();
    for (i, pair) in pairs.iter().enumerate() {
        let c = ctx.classes.of(pair.tbag).expect("pair reps are classed");
        let mut remaining = pair.jobs.len() as f64;
        while remaining > 1e-9 {
            // Pattern with maximal free area per machine among those with
            // cap and area left.
            let best = (0..np)
                .filter(|&p| xs[p] > 0 && ctx.free_cap(p, c) > 0)
                .filter(|&p| class_cap.get(&(c, p)).copied().unwrap_or(0.0) > 1e-9)
                .filter(|&p| area_left[p] > 1e-9)
                .max_by(|&a, &b| {
                    (area_left[a] / xs[a] as f64).total_cmp(&(area_left[b] / xs[b] as f64))
                });
            let Some(p) = best else {
                return Err(GuessFailure::SmallPlacement);
            };
            let cap = class_cap[&(c, p)];
            let by_area = area_left[p] / pair.size;
            let take = remaining.min(cap).min(by_area);
            if take <= 1e-9 {
                return Err(GuessFailure::SmallPlacement);
            }
            *y.entry((i, p)).or_insert(0.0) += take;
            area_left[p] -= take * pair.size;
            *class_cap.get_mut(&(c, p)).unwrap() -= take;
            remaining -= take;
        }
    }
    let total_area_left: f64 = area_left.iter().sum();
    if total_area_left + 1e-6 < w_nonprio {
        return Err(GuessFailure::SmallPlacement);
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::pattern::enumerate_patterns;
    use crate::priority::select_priority;
    use crate::rounding::scale_and_round;
    use crate::transform::transform;
    use bagsched_types::Instance;

    fn pipeline(
        jobs: &[(f64, u32)],
        m: usize,
        cfg: &EptasConfig,
    ) -> (Transformed, PatternSet, Result<MilpOutcome, GuessFailure>) {
        let inst = Instance::new(jobs, m);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, cfg.epsilon).unwrap();
        let c = classify(&r, m);
        let p = select_priority(&inst, &r, &c, cfg);
        let t = transform(&inst, &r, &c, &p);
        let ps = enumerate_patterns(&t, 20_000).unwrap();
        let out = solve_with_patterns(&t, &ps, cfg, &mut Stats::default());
        (t, ps, out)
    }

    #[test]
    fn feasible_guess_covers_all_slots() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let jobs = [(0.9, 0), (0.9, 1), (0.4, 2), (0.05, 0), (0.05, 3)];
        let (t, ps, out) = pipeline(&jobs, 3, &cfg);
        let out = out.expect("guess T covers this instance");
        // (1): machines.
        let total: u32 = out.x.iter().sum();
        assert!(total as usize <= t.tinst.num_machines());
        // (2): every symbol exactly covered.
        for (si, sym) in ps.symbols.iter().enumerate() {
            let covered: u32 = ps
                .patterns
                .iter()
                .enumerate()
                .map(|(p, pat)| {
                    pat.entries
                        .iter()
                        .find(|&&(s, _)| s == si)
                        .map_or(0, |&(_, mult)| out.x[p] * mult as u32)
                })
                .sum();
            assert_eq!(covered, sym.avail, "symbol {si} mis-covered");
        }
        // (3): y sums to counts.
        for (i, pair) in out.pairs.iter().enumerate() {
            let sum: f64 = (0..ps.patterns.len()).filter_map(|p| out.y.get(&(i, p))).sum();
            assert!(
                (sum - pair.jobs.len() as f64).abs() < 1e-6,
                "pair {i}: y sums to {sum}, want {}",
                pair.jobs.len()
            );
        }
    }

    #[test]
    fn infeasible_guess_detected() {
        // Five unit jobs on two machines: each pattern holds at most two
        // slots of size ~1 (T = 2.25), so two machines cover at most four.
        let cfg = EptasConfig::with_epsilon(0.5);
        let jobs = [(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3), (1.0, 4)];
        let (_, _, out) = pipeline(&jobs, 2, &cfg);
        assert_eq!(out.unwrap_err(), GuessFailure::MilpInfeasible);
    }

    #[test]
    fn y_respects_chi_exclusion() {
        let cfg = EptasConfig::with_epsilon(0.5);
        // Priority bag 0 has a large job and small jobs: no y of bag 0 may
        // sit on a pattern containing bag 0's large slot.
        let jobs = [(0.9, 0), (0.05, 0), (0.05, 0), (0.9, 1)];
        let (_, ps, out) = pipeline(&jobs, 3, &cfg);
        let out = out.unwrap();
        for ((i, p), &v) in &out.y {
            if v > 1e-9 {
                assert!(
                    !ps.chi(*p, out.pairs[*i].tbag),
                    "y of bag {:?} placed on conflicting pattern {p}",
                    out.pairs[*i].tbag
                );
            }
        }
    }

    #[test]
    fn area_constraint_respected() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let jobs = [(0.9, 0), (0.9, 1), (0.05, 2), (0.05, 3), (0.05, 4)];
        let (t, ps, out) = pipeline(&jobs, 2, &cfg);
        let out = out.unwrap();
        // Reconstruct per-pattern small load and check (4) in aggregate:
        // priority y-load must fit in the x-weighted free area.
        for p in 0..ps.patterns.len() {
            let yload: f64 = out
                .y
                .iter()
                .filter(|((_, pp), _)| *pp == p)
                .map(|((i, _), &v)| v * out.pairs[*i].size)
                .sum();
            let budget = out.x[p] as f64 * (t.t - ps.patterns[p].height);
            assert!(yload <= budget + 1e-6, "pattern {p}: {yload} > {budget}");
        }
    }

    /// The restricted MILP as the paper writes it, row by row: every
    /// `x_p` first, then each row over the whole pool. The reference the
    /// column-built [`restricted_model`] is pinned against.
    fn row_wise_model(trans: &Transformed, ps: &PatternSet, classes: &BagClasses) -> Model {
        use bagsched_milp::VarId;
        let pairs = priority_small_pairs_classed(trans, classes);
        let w_nonprio = nonpriority_small_area(trans);
        let ctx = ClassCtx::new(classes, ps, &pairs);
        let covering = if classes.all_singletons() { Relation::Eq } else { Relation::Ge };
        let np = ps.patterns.len();
        let mut model = Model::new();
        let x: Vec<VarId> = (0..np)
            .map(|p| {
                let obj = if p == 0 { 0.0 } else { 1.0 + p as f64 * 1e-9 };
                model.add_int_var(obj, 0.0, f64::INFINITY)
            })
            .collect();
        let ones: Vec<(VarId, f64)> = x.iter().map(|&v| (v, 1.0)).collect();
        model.add_con(&ones, Relation::Le, trans.tinst.num_machines() as f64);
        for (si, sym) in ps.symbols.iter().enumerate() {
            let mut terms = Vec::new();
            for (p, pat) in ps.patterns.iter().enumerate() {
                if let Some(&(_, mult)) = pat.entries.iter().find(|&&(s, _)| s == si) {
                    terms.push((x[p], mult as f64));
                }
            }
            model.add_con(&terms, covering, sym.avail as f64);
        }
        let w_prio: f64 = pairs.iter().map(|p| p.size * p.jobs.len() as f64).sum();
        let area_terms: Vec<(VarId, f64)> =
            ps.patterns.iter().enumerate().map(|(p, pat)| (x[p], trans.t - pat.height)).collect();
        model.add_con(&area_terms, Relation::Ge, w_prio + w_nonprio);
        for &c in &ctx.with_smalls {
            let rep = classes.rep(c);
            let of_class = || pairs.iter().filter(|pr| pr.tbag == rep);
            let count: f64 = of_class().map(|pr| pr.jobs.len() as f64).sum();
            let area: f64 = of_class().map(|pr| pr.size * pr.jobs.len() as f64).sum();
            let free = |p: usize| ctx.free_cap(p, c);
            let count_terms: Vec<(VarId, f64)> =
                (0..np).filter(|&p| free(p) > 0).map(|p| (x[p], free(p) as f64)).collect();
            model.add_con(&count_terms, Relation::Ge, count);
            let area_terms: Vec<(VarId, f64)> = (0..np)
                .filter(|&p| free(p) > 0)
                .map(|p| (x[p], trans.t - ps.patterns[p].height))
                .collect();
            model.add_con(&area_terms, Relation::Ge, area);
        }
        model
    }

    /// The first guess on the grid `lb * (1 + 0.1 k)` at which pricing
    /// over the ladder's first rung converges: the transformed instance,
    /// the rung's classes and the priced pool. `budget` sets the symbol
    /// budget from the transformed instance.
    fn priced_rung(
        inst: &Instance,
        budget: impl Fn(&Transformed) -> usize,
    ) -> (Transformed, BagClasses, PatternSet) {
        let mut cfg = EptasConfig::with_epsilon(0.5);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let lb = bagsched_types::lowerbound::lower_bounds(inst).combined();
        for k in 0..10 {
            let Some(r) = scale_and_round(&sizes, lb * (1.0 + 0.1 * k as f64), 0.5) else {
                continue;
            };
            let c = classify(&r, inst.num_machines());
            let p = select_priority(inst, &r, &c, &cfg);
            let t = transform(inst, &r, &c, &p);
            cfg.pricing_symbol_budget = budget(&t);
            let (_, classes) = ladder(&t, &cfg).swap_remove(0);
            let symbols = collect_symbols_classed(&t, &classes);
            let mut stats = Stats::default();
            if let Pricing::Converged(pool, _) = generate_columns(
                &t,
                &symbols,
                &classes,
                &cfg,
                &mut stats,
                None,
                &mut Enrichment::default(),
            ) {
                return (t, classes, PatternSet::from_parts(symbols, pool));
            }
        }
        panic!("no guess on the grid converged");
    }

    /// The column-built restricted MILP and the row-wise reference give
    /// the same root LP, bit for bit: per bag and class-aggregated, with
    /// and without small-job class cuts.
    #[test]
    fn column_built_model_matches_the_row_wise_reference() {
        let default_budget = EptasConfig::with_epsilon(0.5).pricing_symbol_budget;
        // A budget between the exact class count and the per-bag symbol
        // count: the ladder opens on exact classes.
        let between = |t: &Transformed| {
            let exact = BagClasses::compute(t).num_classes();
            (exact + collect_symbols_classed(t, &BagClasses::singletons(t)).len()) / 2
        };
        // Twelve priority bags of two profiles, each bag a large job and
        // small jobs: every class owns priority small jobs, so both
        // models carry count and area cuts.
        let mut jobs: Vec<(f64, u32)> = Vec::new();
        for bag in 0..12 {
            let large = if bag < 8 { 0.9 } else { 0.6 };
            jobs.extend([(large, bag), (0.05, bag), (0.05, bag)]);
        }
        let smalls = Instance::new(&jobs, 12);
        let tight = bagsched_types::gen::clustered(240, 80, 80, 5, 2);
        let cases = [
            priced_rung(&smalls, |_| default_budget),
            priced_rung(&smalls, between),
            priced_rung(&tight, between),
        ];
        for (i, (t, classes, ps)) in cases.iter().enumerate() {
            let pairs = priority_small_pairs_classed(t, classes);
            let ctx = ClassCtx::new(classes, ps, &pairs);
            assert_eq!(classes.all_singletons(), i == 0, "case {i}");
            assert_eq!(ctx.with_smalls.is_empty(), i == 2, "case {i}");
            let model = restricted_model(t, ps, &ctx, &pairs, nonpriority_small_area(t));
            let reference = row_wise_model(t, ps, classes);
            assert_eq!(model.num_vars(), reference.num_vars());
            assert_eq!(model.num_cons(), reference.num_cons());
            let (a, b) = (model.solve_lp(), reference.solve_lp());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(a.status, bagsched_milp::LpStatus::Optimal, "case {i}");
            assert_eq!(a.status, b.status, "case {i}");
            assert_eq!(a.iterations, b.iterations, "case {i}");
            assert_eq!(bits(&a.x), bits(&b.x), "case {i}");
            assert_eq!(bits(&a.duals), bits(&b.duals), "case {i}");
        }
    }

    #[test]
    fn small_pairs_extraction() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let inst = Instance::new(&[(0.9, 0), (0.05, 0), (0.05, 0), (0.01, 0)], 2);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, 0.5).unwrap();
        let c = classify(&r, 2);
        let p = select_priority(&inst, &r, &c, &cfg);
        let t = transform(&inst, &r, &c, &p);
        let pairs = priority_small_pairs(&t);
        // Bag 0 is priority (has the only large job); two small sizes.
        let total_jobs: usize = pairs.iter().map(|p| p.jobs.len()).sum();
        assert_eq!(total_jobs, 3);
        // Sorted by size descending.
        for w in pairs.windows(2) {
            assert!(w[0].size >= w[1].size);
        }
    }
}
