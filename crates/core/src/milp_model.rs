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
//! master-LP duals, the restricted MILP runs on that pool, and
//! [`crate::declass`] maps class-keyed solutions back to concrete bags —
//! over a ladder of bag partitions: exact classes, then coarse classes
//! (both only when the per-bag master is over its symbol budget), then
//! per-bag. Eager [`enumerate_patterns`] closes the ladder as the
//! cross-validation oracle: it is consulted (with a reduced budget) when
//! the per-bag MILP over the priced pool fails inconclusively, and it is
//! the full fallback when pricing stalls or is disabled
//! ([`EptasConfig::column_generation`]).

use crate::classes::BagClasses;
use crate::classify::JobClass;
use crate::config::EptasConfig;
use crate::par::CancelToken;
use crate::pattern::{collect_symbols_classed, enumerate_patterns, Pattern, PatternSet, Symbol};
use crate::pricing::{generate_columns, MilpRow, Pricing, TreePriceDriver};
use crate::report::{GuessFailure, Stats};
use crate::rounding::SizeExp;
use crate::transform::Transformed;
use bagsched_milp::{solve_milp_with, MilpOptions, MilpResult, MilpStatus, Model, Relation, VarId};
use bagsched_types::{BagId, JobId};
use std::collections::HashMap;
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

/// Replayable state of one successful pattern solve, captured by
/// [`PatternSolve::run`] and consumed by [`PatternSolve::replay`]: the
/// partition the solve ran over, the rounded guess, the symbol table and
/// the solution the placement phases consumed.
///
/// Replaying skips the whole pattern phase — pricing rounds, enumeration
/// and the restricted MILP — and hands the captured solution straight to
/// placement. Validation is structural: the rounded guess and the symbol
/// table of the rebuilt partition (sizes, bags *and* availabilities) must
/// match bit-exactly, so replaying against a mismatched instance (a
/// fingerprint collision upstream) fails with
/// [`GuessFailure::SeedMismatch`] instead of mis-scheduling.
#[derive(Debug, Clone)]
pub struct ReplaySeed {
    partition: Partition,
    /// `trans.t` at capture; replay requires a bit-exact match.
    t: f64,
    /// The symbol table the solve priced over (replay validation).
    symbols: Vec<Symbol>,
    /// The final (post-extension, post-declass) pattern set the
    /// placement phases consumed.
    patterns: PatternSet,
    /// The integral outcome over `patterns`.
    outcome: MilpOutcome,
}

/// Solution of one [`PatternSolve::run`]: the pool the downstream
/// placement phases consume (tree-priced tail included), the MILP
/// outcome over it, and the replay seed for the next identical solve.
#[derive(Debug, Clone)]
pub struct PatternSolution {
    /// The solved pattern set (`outcome.x`'s index space).
    pub patterns: PatternSet,
    /// The MILP solution over `patterns`.
    pub outcome: MilpOutcome,
    /// Replayable state of this solve.
    pub seed: ReplaySeed,
}

impl PatternSolution {
    /// Wrap a solved pattern set together with the seed that replays it.
    fn capture(
        partition: Partition,
        trans: &Transformed,
        symbols: Vec<Symbol>,
        patterns: PatternSet,
        outcome: MilpOutcome,
    ) -> Self {
        let seed = ReplaySeed {
            partition,
            t: trans.t,
            symbols,
            patterns: patterns.clone(),
            outcome: outcome.clone(),
        };
        PatternSolution { patterns, outcome, seed }
    }
}

/// Builder for one guess's pattern phase: generate patterns and solve the
/// MILP, or replay a cached [`ReplaySeed`]; then
/// [`run`](PatternSolve::run).
///
/// ```ignore
/// let sol = PatternSolve::new(&trans, &cfg).run(&mut stats)?;
/// let sol = PatternSolve::new(&trans, &cfg).replay(&seed).run(&mut stats)?;
/// ```
#[derive(Debug)]
pub struct PatternSolve<'a> {
    trans: &'a Transformed,
    cfg: &'a EptasConfig,
    replay: Option<&'a ReplaySeed>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> PatternSolve<'a> {
    /// Start a pattern solve for one guess.
    pub fn new(trans: &'a Transformed, cfg: &'a EptasConfig) -> Self {
        PatternSolve { trans, cfg, replay: None, cancel: None }
    }

    /// Replay a cached seed instead of generating patterns.
    pub fn replay(mut self, seed: &'a ReplaySeed) -> Self {
        self.replay = Some(seed);
        self
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

    /// Run the solve: replay the seed when one is set, otherwise climb
    /// the ladder of bag partitions — each rung one `solve_over` — and
    /// close it with the eager oracle. Work counters are recorded into `stats` whatever
    /// the outcome. Verdict soundness:
    ///
    /// * pricing-proven infeasibility ([`Pricing::Infeasible`]) refutes a
    ///   relaxation of the full MILP, so `Err(MilpInfeasible)` is exact
    ///   on every rung: every per-bag pattern multiset maps to a
    ///   class-level one covering at least the (minimum) availabilities,
    ///   so an aggregated master only relaxes;
    /// * a class-aggregated rung that cannot settle the guess — pricing
    ///   stalled, the restricted MILP failed, or de-classing failed —
    ///   hands it to the next rung, so aggregation never worsens a
    ///   verdict;
    /// * a failure of the per-bag MILP restricted to the priced pool is
    ///   inconclusive, so the eager oracle runs with the (small)
    ///   [`EptasConfig::pricing_fallback_budget`]; if even that budget is
    ///   exceeded the restricted verdict stands — the driver raises the
    ///   guess, as for every other budget-type failure;
    /// * a per-bag pricing stall falls back to full eager enumeration,
    ///   which may fail with [`GuessFailure::PatternBudget`].
    ///
    /// With [`EptasConfig::column_generation`] off the eager rung runs
    /// alone.
    pub fn run(self, stats: &mut Stats) -> Result<PatternSolution, GuessFailure> {
        let (trans, cfg, cancel) = (self.trans, self.cfg, self.cancel);
        if let Some(seed) = self.replay {
            return replay(trans, cfg, seed);
        }
        // The per-bag rung always closes the ladder, so how it ended
        // picks the eager rung's budget and over-budget verdict.
        let mut eager = (cfg.max_patterns, GuessFailure::PatternBudget);
        if cfg.column_generation {
            for (partition, classes) in ladder(trans, cfg) {
                match solve_over(trans, cfg, partition, &classes, stats, cancel) {
                    Ok(sol) => return Ok(sol),
                    Err(Unsolved::Final(fail)) => return Err(fail),
                    Err(Unsolved::Stalled) => {
                        eager = (cfg.max_patterns, GuessFailure::PatternBudget);
                    }
                    Err(Unsolved::Inconclusive(restricted)) => {
                        eager = (cfg.max_patterns.min(cfg.pricing_fallback_budget), restricted);
                    }
                }
            }
        }
        solve_eager(trans, cfg, eager.0, eager.1, stats, cancel)
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
/// partition). Per-bag always closes the ladder.
fn ladder(trans: &Transformed, cfg: &EptasConfig) -> Vec<(Partition, BagClasses)> {
    let per_bag = Partition::PerBag.classes(trans, cfg);
    let mut rungs = Vec::new();
    if cfg.class_aggregation
        && collect_symbols_classed(trans, &per_bag).len() > cfg.pricing_symbol_budget
    {
        let exact = Partition::Exact.classes(trans, cfg);
        let coarse = cfg
            .class_coarsening
            .then(|| Partition::Coarse.classes(trans, cfg))
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
    /// Pricing stalled before convergence.
    Stalled,
    /// The MILP restricted to the priced pool failed, or de-classing its
    /// solution did.
    Inconclusive(GuessFailure),
}

/// One rung of the ladder: price a pool over the partition's symbols,
/// solve the restricted MILP over it with in-tree pricing, de-class the
/// result unless the partition is per-bag, and capture the replay seed.
fn solve_over(
    trans: &Transformed,
    cfg: &EptasConfig,
    partition: Partition,
    classes: &BagClasses,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
) -> Result<PatternSolution, Unsolved> {
    if partition == Partition::Coarse {
        stats.coarse_classes_formed += classes.num_classes() as u64;
    }
    stats.bag_classes += classes.num_classes() as u64;
    let symbols = collect_symbols_classed(trans, classes);
    stats.symbols_after_aggregation += symbols.len() as u64;
    let pool = match generate_columns(trans, &symbols, classes, cfg, stats, cancel) {
        Pricing::Converged(pool) => pool,
        Pricing::Infeasible => return Err(Unsolved::Final(GuessFailure::MilpInfeasible)),
        Pricing::Cancelled => return Err(Unsolved::Final(GuessFailure::Cancelled)),
        Pricing::Stalled => return Err(Unsolved::Stalled),
    };
    let ps = PatternSet::from_parts(symbols, pool);
    let (out, ext) = solve_restricted(trans, &ps, classes, cfg, stats, true, cancel)
        .map_err(Unsolved::Inconclusive)?;
    let ps = ext.unwrap_or(ps);
    let symbols = ps.symbols.clone();
    let (ps, out) = if partition == Partition::PerBag {
        (ps, out)
    } else {
        crate::declass::declass(trans, classes, &ps, &out, stats).map_err(Unsolved::Inconclusive)?
    };
    Ok(PatternSolution::capture(partition, trans, symbols, ps, out))
}

/// The eager rung: enumerate the whole per-bag pattern space under
/// `budget`, then solve the MILP over it. Tree pricing stays off — the
/// pool is complete by construction. Exceeding the budget fails with
/// `over_budget`.
fn solve_eager(
    trans: &Transformed,
    cfg: &EptasConfig,
    budget: usize,
    over_budget: GuessFailure,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
) -> Result<PatternSolution, GuessFailure> {
    let ps = enumerate_patterns(trans, budget).map_err(|e| {
        // The DFS aborts after generating exactly `budget` patterns.
        stats.patterns_enumerated += e.budget as u64;
        over_budget
    })?;
    stats.patterns_enumerated += ps.patterns.len() as u64;
    let singles = Partition::PerBag.classes(trans, cfg);
    let (out, _) = solve_restricted(trans, &ps, &singles, cfg, stats, false, cancel)?;
    let symbols = ps.symbols.clone();
    Ok(PatternSolution::capture(Partition::PerBag, trans, symbols, ps, out))
}

/// Replay a cached seed: rebuild the recorded partition, compare its
/// symbol table with the seed's, and hand the captured solution to
/// placement.
fn replay(
    trans: &Transformed,
    cfg: &EptasConfig,
    seed: &ReplaySeed,
) -> Result<PatternSolution, GuessFailure> {
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
    // the captured multiplicities place this instance's large/priority
    // jobs decision for decision. Anything the outcome cannot cover
    // (e.g. a drifted small-job area on a colliding fingerprint) fails
    // in a placement phase as an ordinary `GuessFailure` and the driver
    // solves cold.
    Ok(PatternSolution {
        patterns: seed.patterns.clone(),
        outcome: seed.outcome.clone(),
        seed: seed.clone(),
    })
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
    solve_restricted(trans, ps, &singles, cfg, stats, false, None).map(|(out, _)| out)
}

/// The restricted configuration MILP over a (priced or enumerated) pool,
/// keyed on `classes`: the covering rows run over whatever symbols `ps`
/// carries, and the small-job cuts run per class with the per-pattern
/// free capacity `|C| - mult_C(p)` (see the module docs). Singleton
/// classes reproduce the per-bag model term for term. Small jobs are then
/// realized by [`greedy_small_y`].
///
/// With `tree` set, fractional node LPs of the branch-and-bound consult
/// the knapsack pricing DFS against the node duals and graft improving
/// patterns as new integer columns (see [`TreePriceDriver`]). Only the
/// priced-pool rungs enable it — eager pools are already complete by
/// construction. Tree columns enter every row, so small jobs are realized
/// on their machines too. When tree columns were generated the second
/// return value carries the extended pattern set (`x`'s index space),
/// built exactly once.
fn solve_restricted(
    trans: &Transformed,
    ps: &PatternSet,
    classes: &BagClasses,
    cfg: &EptasConfig,
    stats: &mut Stats,
    tree: bool,
    cancel: Option<&CancelToken>,
) -> Result<(MilpOutcome, Option<PatternSet>), GuessFailure> {
    let pairs = priority_small_pairs_classed(trans, classes);
    let w_nonprio = nonpriority_small_area(trans);
    let ctx = ClassCtx::new(classes, ps, &pairs);
    // The per-bag path keeps the equality covering (2) — it prunes the
    // search and downstream consumes counts exactly. The aggregated path
    // uses the paper's original `>=`: with class multiplicities the
    // branch-and-bound dive constantly overshoots an equality when it
    // rounds up, turning every up-child infeasible; under `>=` dives
    // land, and [`crate::declass`] trims the surplus slots (a sub-multiset
    // of a pattern is itself a valid pattern).
    let covering = if classes.all_singletons() { Relation::Eq } else { Relation::Ge };
    let m = trans.tinst.num_machines() as f64;
    let np = ps.patterns.len();
    let mut model = Model::new();
    let mut rows: Vec<MilpRow> = Vec::new();

    // x_p: integer in [0, m]; empty pattern costs nothing. The tiny
    // index-dependent perturbation breaks the column symmetry of
    // bag-symmetric patterns — without it the simplex stalls in degenerate
    // pivots on the covering equalities and the B&B dive cannot reach an
    // incumbent within budget.
    let x: Vec<VarId> = (0..np)
        .map(|p| model.add_int_var(if p == 0 { 0.0 } else { 1.0 + p as f64 * 1e-9 }, 0.0, m))
        .collect();

    // (1)
    let ones: Vec<(VarId, f64)> = x.iter().map(|&v| (v, 1.0)).collect();
    model.add_con(&ones, Relation::Le, m);
    rows.push(MilpRow::Machine);
    // (2) per symbol.
    for (si, sym) in ps.symbols.iter().enumerate() {
        let mut terms = Vec::new();
        for (p, pat) in ps.patterns.iter().enumerate() {
            if let Some(&(_, mult)) = pat.entries.iter().find(|&&(s, _)| s == si) {
                terms.push((x[p], mult as f64));
            }
        }
        model.add_con(&terms, covering, sym.avail as f64);
        rows.push(MilpRow::Symbol(si));
    }

    // Aggregate area cut: all small jobs must fit above the patterns.
    let w_prio: f64 = pairs.iter().map(|p| p.size * p.jobs.len() as f64).sum();
    let area_terms: Vec<(VarId, f64)> =
        ps.patterns.iter().enumerate().map(|(p, pat)| (x[p], trans.t - pat.height)).collect();
    model.add_con(&area_terms, Relation::Ge, w_prio + w_nonprio);
    rows.push(MilpRow::AreaCut);

    // Per class with smalls: count and area cuts over the free member
    // capacity (singleton classes: chi = 0 patterns with weight 1).
    for &c in &ctx.with_smalls {
        let rep = classes.rep(c);
        let count: f64 =
            pairs.iter().filter(|pr| pr.tbag == rep).map(|pr| pr.jobs.len() as f64).sum();
        let area: f64 =
            pairs.iter().filter(|pr| pr.tbag == rep).map(|pr| pr.size * pr.jobs.len() as f64).sum();
        let count_terms: Vec<(VarId, f64)> = (0..np)
            .filter(|&p| ctx.free_cap(p, c) > 0)
            .map(|p| (x[p], ctx.free_cap(p, c) as f64))
            .collect();
        model.add_con(&count_terms, Relation::Ge, count);
        rows.push(MilpRow::ClassCount(c));
        let area_terms: Vec<(VarId, f64)> = (0..np)
            .filter(|&p| ctx.free_cap(p, c) > 0)
            .map(|p| (x[p], trans.t - ps.patterns[p].height))
            .collect();
        model.add_con(&area_terms, Relation::Ge, area);
        rows.push(MilpRow::ClassArea(c));
    }

    let driver =
        tree.then(|| TreePriceDriver::new(&ps.symbols, classes, trans.t, cfg, rows, &ps.patterns));
    let (res, tree_patterns, tree_x) = run_milp(&model, cfg, stats, driver, cancel);
    record_milp(stats, &res);
    let xs: Vec<u32> = match res.status {
        MilpStatus::Optimal | MilpStatus::Feasible => {
            let mut xs: Vec<u32> = x.iter().map(|&v| res.x[v.0].round() as u32).collect();
            xs.extend(tree_x);
            xs
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

/// The class context of a restricted MILP over one pattern set: which
/// classes own priority small jobs, and how many member bags of each
/// class every pattern leaves without a large slot.
pub(crate) struct ClassCtx<'a> {
    classes: &'a BagClasses,
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
        (self.classes.size(c) as u32).saturating_sub(self.class_mult[p][c])
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

fn milp_options(cfg: &EptasConfig, cancel: Option<&CancelToken>) -> MilpOptions {
    MilpOptions {
        max_nodes: cfg.milp_max_nodes,
        time_limit: MILP_TIME_LIMIT,
        int_tol: 1e-6,
        first_solution: true,
        dual_simplex: cfg.dual_simplex,
        price_after_nodes: 32,
        cancel: cancel.map(CancelToken::probe),
    }
}

/// Run the restricted MILP, with the in-tree pricer attached when `tree`
/// is set. Returns the raw result plus the tree-priced patterns and their
/// solution values (the tail of the extended `x` index space).
fn run_milp(
    model: &Model,
    cfg: &EptasConfig,
    stats: &mut Stats,
    tree: Option<TreePriceDriver<'_>>,
    cancel: Option<&CancelToken>,
) -> (MilpResult, Vec<Pattern>, Vec<u32>) {
    match tree {
        Some(mut driver) => {
            let res = solve_milp_with(model, &milp_options(cfg, cancel), Some(&mut driver));
            stats.add(&driver.stats);
            let tree_x = match res.status {
                MilpStatus::Optimal | MilpStatus::Feasible => {
                    driver.new_vars.iter().map(|&v| res.x[v.0].round() as u32).collect()
                }
                _ => Vec::new(),
            };
            (res, driver.new_patterns, tree_x)
        }
        None => (solve_milp_with(model, &milp_options(cfg, cancel), None), Vec::new(), Vec::new()),
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
        let ps = enumerate_patterns(&t, cfg.max_patterns).unwrap();
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
