//! Configuration of the EPTAS.
//!
//! Every constant of the paper is configurable. Defaults follow the
//! paper's formulas *clamped to the instance*: the paper's
//! constants are astronomically large (its own point is theoretical), and
//! clamping preserves the approximation guarantee — e.g. making *all*
//! bags priority is strictly more constrained than the paper requires.

/// Tuning parameters for a [`Solver`](crate::Solver).
#[derive(Debug, Clone)]
pub struct EptasConfig {
    /// Approximation parameter `eps` in `(0, 0.95]`. The schedule is
    /// within `(1 + O(eps))` of optimal; the hidden constant is small
    /// (the `T1` experiment measures the ratios against the exact
    /// optimum).
    pub epsilon: f64,
    /// Cap on enumerated patterns per guess; exceeding it fails the guess
    /// loudly (the driver then degrades as configured).
    pub max_patterns: usize,
    /// Override for the number of priority bags per large size class
    /// (`b'` in Definition 2). `None` = paper formula `(d*q+1)*q` clamped
    /// to the number of bags.
    pub priority_cap: Option<usize>,
    /// Branch-and-bound node budget per MILP solve.
    pub milp_max_nodes: usize,
    /// Generate patterns by column-generation pricing against the master
    /// LP duals instead of eager enumeration (default). Eager enumeration
    /// remains the cross-validation oracle and the fallback when pricing
    /// stalls.
    pub column_generation: bool,
    /// Safety-valve on the pricing master's size. Three gates read it:
    ///
    /// 1. **per-bag engagement** — instances whose *per-bag* symbol
    ///    count exceeds it switch to the class-aggregated path
    ///    ([`EptasConfig::class_aggregation`]);
    /// 2. **class-count ceiling** — the aggregated master is gated on
    ///    the number of **bag classes** (groups of priority bags with
    ///    identical size→count profiles,
    ///    [`crate::classes::BagClasses`]) against the same budget; past
    ///    it, pricing is skipped for that attempt;
    /// 3. **coarsening engagement** — when the exact-class attempt
    ///    could not settle the guess (typically because gate 2 fired),
    ///    [`EptasConfig::class_coarsening`] retries with
    ///    template-quantized *coarse* classes, whose (smaller) class
    ///    count faces the same ceiling; only past that does the eager
    ///    path run as before the pricing subsystem existed.
    ///
    /// Class keying is what keeps instances whose per-bag symbol count
    /// is in the thousands (n=1600 tight clustered: 1061 symbols, 118
    /// classes) far below the ceiling as long as their bags cluster
    /// into few profiles; coarsening extends that to instances whose
    /// *exact* class count outgrows the ceiling too (n=6400 tight
    /// clustered and up).
    pub pricing_symbol_budget: usize,
    /// Key pattern slot symbols, master rows, MILP covering constraints
    /// and the pricing item space on `(size, bag class)` instead of
    /// `(size, bag)` (default on). This is the *scale* path: it engages
    /// exactly when the instance's priority bags exceed
    /// [`EptasConfig::pricing_symbol_budget`] — where per-bag pricing is
    /// impossible and the pre-aggregation pipeline degraded to eager
    /// enumeration — and aggregated solutions are mapped back to
    /// concrete bags by [`crate::declass`] before the placement phases.
    /// Below the budget the per-bag path runs unchanged; off = never
    /// aggregate.
    pub class_aggregation: bool,
    /// Second-level coarsening of the class-aggregated path (default
    /// on): when the *exact* bag-class attempt cannot settle a guess —
    /// typically because the exact class count itself exceeds
    /// [`EptasConfig::pricing_symbol_budget`] — bag profiles are
    /// re-quantized onto a geometric count-bucket template
    /// ([`EptasConfig::coarse_tolerance`]) and bags whose quantized
    /// profiles coincide merge into one coarse class. The coarse master
    /// prices against the per-size *minimum* count over the members (a
    /// relaxation, so Infeasible verdicts stay exact), and
    /// [`crate::declass`] re-places each member's surplus jobs in a
    /// repair pass — any repair failure fails the guess loudly, never
    /// producing a wrong schedule, so the `(1 + O(eps))` contract is
    /// unchanged. Engages only when coarsening actually reduces the
    /// class count; off = the exact-class pipeline as before.
    pub class_coarsening: bool,
    /// Relative width of the coarse count buckets: bucket boundaries
    /// grow by `max(+1, *(1 + coarse_tolerance))`, so two bags merge
    /// when their per-(size, class) job counts agree within roughly a
    /// `(1 + coarse_tolerance)` factor (and their supports are
    /// identical). `0.0` reproduces the exact partition; larger values
    /// merge more aggressively and shift more work onto the declass
    /// repair pass.
    pub coarse_tolerance: f64,
    /// Eager-enumeration budget used to consult the oracle when the MILP
    /// over the priced pool fails inconclusively. Kept far below
    /// `max_patterns`: on instances where enumeration is cheap this
    /// restores the exact pre-pricing behaviour, on tight instances the
    /// restricted verdict stands instead of burning the full budget.
    pub pricing_fallback_budget: usize,
    /// Warm-start branch-and-bound *node* LPs from the parent basis via
    /// the dual simplex (default on): a branching bound change leaves the
    /// parent basis dual feasible, so the child re-optimizes in a few
    /// dual pivots instead of a cold phase-1/phase-2 solve; the first
    /// down-branch on a tree-priced `[0, inf)` column appends that
    /// column's bound row to the warm basis. Falls back to a cold solve
    /// per node only on numerical singularity or an iteration-limited
    /// warm re-solve. Off = every node solves cold (the reference the
    /// warm path is tested against).
    pub dual_simplex: bool,
    /// Reduced-cost threshold of the master column lifecycle: a nonbasic
    /// pattern column whose reduced cost stays above this for
    /// `PURGE_PATIENCE` consecutive feasibility-master re-solves is
    /// physically removed from the master model (its pattern and key
    /// stay in the pool, so the re-admission guard and the dedup set
    /// still see it; it is re-admitted the moment it prices negative
    /// under later duals). `f64::INFINITY` disables purging.
    pub column_purge_threshold: f64,
    /// Worker threads the solver may use internally (scoped threads,
    /// spawned per solve — no persistent pool). `1` (the default) runs
    /// every parallel seam on the caller's thread. The determinism
    /// contract is thread-count invariance: for fixed knobs, schedules
    /// and reports are byte-identical at any `solver_threads` value —
    /// the thread count decides only *where* work runs, never *what*
    /// is computed (see `tests/parallel_determinism.rs`).
    pub solver_threads: usize,
    /// Shards the pricing DFS is partitioned into per round: shard `s`
    /// explores only patterns whose first used item index is `≡ s (mod
    /// shards)`, each with the full DFS node budget of a round, and
    /// candidates merge under a deterministic (profit, key) sort.
    /// `1` (the default) is the classic single-DFS path, bit-for-bit.
    /// Note the *shard count* is part of the configuration — different
    /// shard counts may keep different candidates at profit ties — while
    /// the thread count executing the shards never changes the result.
    pub pricing_shards: usize,
    /// Budget of the speculative binary-search window: up to this many
    /// adjacent guesses (the midpoint plus its predicted successors) are
    /// solved concurrently, with verdicts committed strictly in the
    /// order the sequential search would probe them, so the chosen guess
    /// is bitwise-identical to the sequential search. Off-path work is
    /// cancelled cooperatively at phase boundaries. `<= 1` (the
    /// default) runs the plain sequential search.
    pub speculative_guesses: usize,
    /// Deadline of the portfolio race in milliseconds: when set, the
    /// EPTAS guess search runs against the clock and, past the
    /// deadline, the solve returns the best feasible schedule found so
    /// far — a committed guess if one succeeded, otherwise the
    /// bag-aware-LPT arm (always computed as the search's upper bound).
    /// Wall-clock dependent by construction, so excluded from the
    /// determinism contract. `None` (the default) never cuts off.
    pub portfolio_deadline_ms: Option<u64>,
}

impl EptasConfig {
    /// Defaults at the given `eps`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 0.95, "epsilon must be in (0, 0.95], got {epsilon}");
        EptasConfig {
            epsilon,
            max_patterns: 20_000,
            priority_cap: None,
            milp_max_nodes: 20_000,
            column_generation: true,
            pricing_symbol_budget: 200,
            pricing_fallback_budget: 2000,
            class_aggregation: true,
            class_coarsening: true,
            coarse_tolerance: 0.5,
            dual_simplex: true,
            column_purge_threshold: 0.1,
            solver_threads: 1,
            pricing_shards: 1,
            speculative_guesses: 1,
            portfolio_deadline_ms: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = EptasConfig::with_epsilon(0.5);
        assert_eq!(c.epsilon, 0.5);
        assert!(c.max_patterns > 0);
        assert!(c.priority_cap.is_none());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_zero_epsilon() {
        EptasConfig::with_epsilon(0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_large_epsilon() {
        EptasConfig::with_epsilon(1.2);
    }
}
