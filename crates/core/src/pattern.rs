//! Machine patterns (paper Definition 3).
//!
//! A *pattern* is a multiset of large/medium job slots with total height
//! at most `T = 1 + 2eps + eps^2`. A slot is either reserved for a
//! specific size-restricted **priority** bag `B_l^s` (at most one slot per
//! priority bag in a pattern — the bag-constraint), or a wildcard `B_x^s`
//! slot for a job of size `s` from *any* non-priority bag (arbitrarily
//! many per pattern; Lemma 7 repairs the resulting conflicts).
//!
//! [`enumerate_patterns`] lists them all by DFS over the slot symbols
//! present in the transformed instance, with multiplicities capped by job
//! availability, under an explicit budget. It is the tests' oracle: a
//! solve prices patterns lazily instead ([`crate::pricing`]).

use crate::classes::BagClasses;
use crate::classify::JobClass;
use crate::rounding::SizeExp;
use crate::transform::Transformed;
use bagsched_types::BagId;
use std::collections::HashMap;

/// The bag component of a slot: a concrete priority bag or the wildcard.
///
/// Under class-level aggregation ([`collect_symbols_classed`]) the
/// `Priority` variant carries the *representative* bag of an
/// interchangeability class; the per-pattern multiplicity of such a
/// symbol is then capped by the class size rather than 1, and
/// [`crate::declass`] maps slots back to concrete member bags after the
/// MILP. With singleton classes (the per-bag path) the representative is
/// the bag itself and nothing changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotBag {
    /// A priority bag of the transformed instance.
    Priority(BagId),
    /// `B_x`: any non-priority bag.
    X,
}

/// A slot symbol: a size class together with its bag restriction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Symbol {
    /// Rounded-size exponent of the slot.
    pub exp: SizeExp,
    /// Rounded size (`(1+eps)^exp`).
    pub size: f64,
    /// Which bag(s) may fill the slot.
    pub bag: SlotBag,
    /// How many jobs exist for this symbol (multiplicity cap).
    pub avail: u32,
}

/// One machine pattern: symbol multiplicities and the resulting height.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// `(symbol index, multiplicity)`, multiplicities positive.
    pub entries: Vec<(usize, u16)>,
    /// Total height of all slots.
    pub height: f64,
}

impl Pattern {
    /// Whether the pattern is the empty pattern.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of slots (counting multiplicity).
    pub fn num_slots(&self) -> usize {
        self.entries.iter().map(|&(_, c)| c as usize).sum()
    }

    /// This pattern's column in a pattern LP over `num_symbols` slot
    /// symbols with height bound `t` — the one column rule of the pricing
    /// master, the restricted MILP and the in-tree pricer (paper §3):
    /// * row 0, the machine cap (1): 1;
    /// * row `1 + s`, symbol `s`'s covering row (2): its multiplicity;
    /// * row `1 + num_symbols`, the aggregate area cut: `t - height`;
    /// * per small-job class `k` in cut order, with `free[k]` member bags
    ///   without a slot here: `free[k]` in its count cut (row
    ///   `2 + num_symbols + 2k`) and `t - height` in its area cut (the
    ///   next row), both absent when `free[k]` is 0. The master has no
    ///   class cuts and passes `&[]`.
    ///
    /// Rows come out ascending; `Model::add_column` drops the zeros.
    pub(crate) fn column(&self, num_symbols: usize, t: f64, free: &[u32]) -> Vec<(usize, f64)> {
        debug_assert!(self.entries.windows(2).all(|w| w[0].0 < w[1].0));
        let area = t - self.height;
        let mut col = Vec::with_capacity(self.entries.len() + 2 + 2 * free.len());
        col.push((0, 1.0));
        col.extend(self.entries.iter().map(|&(s, mult)| (1 + s, mult as f64)));
        col.push((1 + num_symbols, area));
        for (k, &f) in free.iter().enumerate() {
            if f > 0 {
                let row = 2 + num_symbols + 2 * k;
                col.extend([(row, f as f64), (row + 1, area)]);
            }
        }
        col
    }

    /// Per-class slot counts of this pattern, summed over sizes — the
    /// `mult_C(p)` of the class-aggregated MILP, from which
    /// `ClassCtx::free_caps` derives the class-cut coefficients of
    /// [`Pattern::column`].
    pub(crate) fn class_multiplicities(
        &self,
        symbols: &[Symbol],
        classes: &BagClasses,
    ) -> Vec<u32> {
        let mut mult = vec![0u32; classes.num_classes()];
        for &(si, count) in &self.entries {
            if let SlotBag::Priority(rep) = symbols[si].bag {
                mult[classes.of(rep).expect("symbol reps are classed")] += count as u32;
            }
        }
        mult
    }
}

/// The enumerated pattern universe for one transformed instance.
#[derive(Debug, Clone)]
pub struct PatternSet {
    /// All slot symbols (by size descending, priority before wildcard).
    pub symbols: Vec<Symbol>,
    /// All valid patterns; index 0 is always the empty pattern.
    pub patterns: Vec<Pattern>,
    /// For each pattern, the priority bags it touches (`chi_p(B_l) = 1`).
    pub priority_bags_used: Vec<Vec<BagId>>,
}

impl PatternSet {
    /// Assemble a pattern set from symbols and patterns, deriving the
    /// `chi` table. `patterns[0]` must be the empty pattern (both the
    /// eager enumerator and the column-generation pool guarantee it).
    pub fn from_parts(symbols: Vec<Symbol>, patterns: Vec<Pattern>) -> Self {
        debug_assert!(patterns.first().is_some_and(Pattern::is_empty));
        let priority_bags_used = patterns
            .iter()
            .map(|p| {
                p.entries
                    .iter()
                    .filter_map(|&(si, _)| match symbols[si].bag {
                        SlotBag::Priority(b) => Some(b),
                        SlotBag::X => None,
                    })
                    .collect()
            })
            .collect();
        PatternSet { symbols, patterns, priority_bags_used }
    }

    /// `chi_p(B_l)`: whether pattern `p` holds a slot of priority bag `l`.
    pub fn chi(&self, p: usize, l: BagId) -> bool {
        self.priority_bags_used[p].contains(&l)
    }
}

/// Why pattern enumeration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBudgetExceeded {
    /// The configured cap that was hit.
    pub budget: usize,
}

/// Collect the per-bag slot symbols of the transformed instance, in the
/// deterministic order shared by the eager enumerator and the
/// column-generation pricer: size descending, priority before wildcard,
/// then bag id. Equivalent to [`collect_symbols_classed`] with singleton
/// classes.
pub fn collect_symbols(trans: &Transformed) -> Vec<Symbol> {
    collect_symbols_classed(trans, &BagClasses::singletons(trans))
}

/// Collect slot symbols keyed on `(size, bag class)`: one symbol per
/// (rounded size, class) pair, carrying the class *representative* bag
/// and the availability `K * min` — class size times the **minimum**
/// per-size non-small job count over the members — plus one wildcard
/// symbol per size for the non-priority bags.
///
/// * Singleton classes give exactly the per-bag symbol set.
/// * Exact classes ([`BagClasses::compute`]) have identical member
///   profiles, so `K * min` is the member sum, and the symbol count —
///   with it the master-LP covering rows — collapses to the number of
///   distinct profiles.
/// * Coarse class members ([`BagClasses::compute_coarse`]) are only
///   near-identical, so the minimum is the largest per-member slot count
///   every member can actually absorb: any class-level pattern priced
///   against it de-classes into concrete patterns feasible for *every*
///   member, and [`crate::declass`]'s repair pass re-places the
///   per-member surplus (`count_b - min`) afterwards.
pub fn collect_symbols_classed(trans: &Transformed, classes: &BagClasses) -> Vec<Symbol> {
    let epsilon = trans.t.sqrt() - 1.0; // T = (1 + eps)^2

    // Non-small job counts per (size, priority bag) and per wildcard size.
    let mut prio: HashMap<(SizeExp, BagId), u32> = HashMap::new();
    let mut wild: HashMap<SizeExp, u32> = HashMap::new();
    for (j, &class) in trans.tclass.iter().enumerate() {
        if class == JobClass::Small {
            continue;
        }
        let tbag = trans.tinst.bag_of(bagsched_types::JobId(j as u32));
        let exp = trans.texp[j];
        if trans.is_priority_tbag[tbag.idx()] {
            *prio.entry((exp, tbag)).or_insert(0) += 1;
        } else {
            *wild.entry(exp).or_insert(0) += 1;
        }
    }

    let mut symbols: Vec<Symbol> = Vec::new();
    for &(exp, bag) in prio.keys() {
        let c = classes.of(bag).expect("priority bags are classed");
        if classes.rep(c) != bag {
            continue;
        }
        // A size some member lacks has minimum 0 and gets no symbol
        // (coarse grouping guarantees identical supports, so this is
        // belt and braces).
        let min = classes.members[c]
            .iter()
            .map(|&b| prio.get(&(exp, b)).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        if min > 0 {
            let size = crate::rounding::exp_size(exp, epsilon);
            let avail = classes.size(c) as u32 * min;
            symbols.push(Symbol { exp, size, bag: SlotBag::Priority(bag), avail });
        }
    }
    for (&exp, &avail) in &wild {
        let size = crate::rounding::exp_size(exp, epsilon);
        // `avail` is the *total* job count — it is the RHS of the covering
        // constraint (2). Per-pattern multiplicity is limited by the
        // height bound inside the DFS, never here.
        symbols.push(Symbol { exp, size, bag: SlotBag::X, avail });
    }
    symbols.sort_by(|a, b| {
        b.size.total_cmp(&a.size).then_with(|| match (a.bag, b.bag) {
            (SlotBag::Priority(x), SlotBag::Priority(y)) => x.cmp(&y),
            (SlotBag::Priority(_), SlotBag::X) => std::cmp::Ordering::Less,
            (SlotBag::X, SlotBag::Priority(_)) => std::cmp::Ordering::Greater,
            (SlotBag::X, SlotBag::X) => std::cmp::Ordering::Equal,
        })
    });
    symbols
}

/// Enumerate all valid patterns of the transformed instance.
pub fn enumerate_patterns(
    trans: &Transformed,
    max_patterns: usize,
) -> Result<PatternSet, PatternBudgetExceeded> {
    let t = trans.t;
    let symbols = collect_symbols(trans);

    let mut dfs = Dfs {
        symbols: &symbols,
        t,
        budget: max_patterns,
        entries: Vec::new(),
        bag_used: vec![false; trans.tinst.num_bags()],
        out: Vec::new(),
    };
    dfs.run(0, 0.0).map_err(|()| PatternBudgetExceeded { budget: max_patterns })?;
    let mut patterns = dfs.out;

    // Normalize: the empty pattern (generated by the all-zero branch,
    // hence first) sits at index 0.
    let empty_idx = patterns.iter().position(Pattern::is_empty).expect("empty pattern is valid");
    patterns.swap(0, empty_idx);

    Ok(PatternSet::from_parts(symbols, patterns))
}

/// The pattern-enumeration DFS: fixed inputs plus the mutable search
/// state, so the recursion only threads `(idx, height)`.
struct Dfs<'a> {
    symbols: &'a [Symbol],
    /// Height bound `T`.
    t: f64,
    /// Maximum number of patterns before `Err(())`.
    budget: usize,
    /// Current partial pattern (symbol index, multiplicity).
    entries: Vec<(usize, u16)>,
    /// Priority bags used along the current path (the bag-constraint).
    bag_used: Vec<bool>,
    /// Completed patterns.
    out: Vec<Pattern>,
}

impl Dfs<'_> {
    fn run(&mut self, idx: usize, height: f64) -> Result<(), ()> {
        if idx == self.symbols.len() {
            if self.out.len() >= self.budget {
                return Err(());
            }
            self.out.push(Pattern { entries: self.entries.clone(), height });
            return Ok(());
        }
        let sym = self.symbols[idx];
        let by_height = if sym.size > 1e-12 {
            ((self.t - height) / sym.size + 1e-9).floor().max(0.0) as u32
        } else {
            0
        };
        let max_mult = match sym.bag {
            SlotBag::Priority(b) => {
                if self.bag_used[b.idx()] {
                    0
                } else {
                    1.min(sym.avail).min(by_height)
                }
            }
            SlotBag::X => sym.avail.min(by_height),
        };
        // multiplicity 0 first, so the empty pattern is generated first.
        self.run(idx + 1, height)?;
        for mult in 1..=max_mult {
            self.entries.push((idx, mult as u16));
            if let SlotBag::Priority(b) = sym.bag {
                self.bag_used[b.idx()] = true;
            }
            let res = self.run(idx + 1, height + mult as f64 * sym.size);
            self.entries.pop();
            if let SlotBag::Priority(b) = sym.bag {
                self.bag_used[b.idx()] = false;
            }
            res?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::config::EptasConfig;
    use crate::priority::select_priority;
    use crate::rounding::scale_and_round;
    use crate::transform::transform;
    use bagsched_types::Instance;

    fn patterns_for(
        jobs: &[(f64, u32)],
        m: usize,
        eps: f64,
        cap: Option<usize>,
        budget: usize,
    ) -> (Transformed, Result<PatternSet, PatternBudgetExceeded>) {
        let inst = Instance::new(jobs, m);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, eps).unwrap();
        let c = classify(&r, m);
        let mut cfg = EptasConfig::with_epsilon(eps);
        cfg.priority_cap = cap;
        let p = select_priority(&inst, &r, &c, &cfg);
        let t = transform(&inst, &r, &c, &p);
        let ps = enumerate_patterns(&t, budget);
        (t, ps)
    }

    #[test]
    fn single_large_job_two_patterns() {
        let (_, ps) = patterns_for(&[(0.9, 0)], 2, 0.5, None, 100);
        let ps = ps.unwrap();
        assert_eq!(ps.patterns.len(), 2);
        assert!(ps.patterns[0].is_empty());
        assert_eq!(ps.patterns[1].num_slots(), 1);
    }

    #[test]
    fn priority_bag_capped_at_one_slot() {
        let (_, ps) = patterns_for(&[(0.9, 0), (0.9, 0)], 2, 0.5, None, 100);
        let ps = ps.unwrap();
        for p in &ps.patterns {
            assert!(p.num_slots() <= 1, "pattern holds two slots of one priority bag");
        }
    }

    #[test]
    fn wildcard_slots_stack_up_to_height() {
        let jobs = [
            (0.9, 0),
            (0.9, 0),
            (0.9, 0), // priority hog (3 jobs of the class)
            (0.9, 1),
            (0.01, 1),
            (0.9, 2),
            (0.01, 2),
        ];
        let (_, ps) = patterns_for(&jobs, 6, 0.5, Some(1), 1000);
        let ps = ps.unwrap();
        assert!(ps.symbols.iter().any(|s| s.bag == SlotBag::X));
        let has_double = ps
            .patterns
            .iter()
            .any(|p| p.entries.iter().any(|&(si, c)| ps.symbols[si].bag == SlotBag::X && c >= 2));
        assert!(has_double, "expected a pattern with two stacked wildcard slots");
    }

    #[test]
    fn heights_never_exceed_t() {
        let jobs = [(0.9, 0), (0.5, 1), (0.3, 2), (0.9, 3), (0.5, 4), (0.01, 5)];
        let (t, ps) = patterns_for(&jobs, 4, 0.5, None, 100_000);
        let ps = ps.unwrap();
        for p in &ps.patterns {
            assert!(p.height <= t.t + 1e-9, "height {} > T {}", p.height, t.t);
            let h: f64 = p.entries.iter().map(|&(si, c)| ps.symbols[si].size * c as f64).sum();
            assert!((h - p.height).abs() < 1e-9);
        }
    }

    #[test]
    fn chi_reflects_priority_usage() {
        let (t, ps) = patterns_for(&[(0.9, 0), (0.8, 1)], 2, 0.5, None, 1000);
        let ps = ps.unwrap();
        let both = ps
            .patterns
            .iter()
            .position(|p| p.num_slots() == 2)
            .expect("a two-slot pattern exists (T = 2.25 fits two larges)");
        for tbag in 0..t.tinst.num_bags() {
            assert!(ps.chi(both, BagId(tbag as u32)));
        }
        assert!(!ps.chi(0, BagId(0)), "empty pattern uses no bag");
    }

    #[test]
    fn budget_exceeded_reported() {
        let jobs: Vec<(f64, u32)> = (0..12).map(|i| (0.5 + (i as f64) * 0.03, i)).collect();
        let (_, ps) = patterns_for(&jobs, 12, 0.5, None, 3);
        assert_eq!(ps.unwrap_err().budget, 3);
    }

    #[test]
    fn small_jobs_contribute_no_symbols() {
        let (_, ps) = patterns_for(&[(0.001, 0), (0.002, 1)], 2, 0.5, None, 100);
        let ps = ps.unwrap();
        assert!(ps.symbols.is_empty());
        assert_eq!(ps.patterns.len(), 1);
    }

    #[test]
    fn symbol_count_matches_distinct_pairs() {
        let jobs = [(0.9, 0), (0.3, 0)];
        let (t, ps) = patterns_for(&jobs, 2, 0.5, None, 1000);
        let ps = ps.unwrap();
        let expected: std::collections::HashSet<_> = (0..t.tinst.num_jobs())
            .filter(|&j| t.tclass[j] != JobClass::Small)
            .map(|j| t.texp[j])
            .collect();
        assert_eq!(ps.symbols.len(), expected.len());
    }

    #[test]
    fn classed_availability_is_the_member_sum_on_exact_partitions() {
        // Exact class members share one profile, so the collector's
        // `K * min` must equal the member sum — checked against an
        // independent per-(size, representative) count over the jobs, on
        // singleton and exact partitions across families and guesses.
        use bagsched_types::lowerbound::lower_bounds;
        use bagsched_types::{gen, JobId};
        let cfg = EptasConfig::with_epsilon(0.5);
        let mut shapes: Vec<Instance> = Vec::new();
        for family in gen::Family::ALL {
            for (n, m) in [(24, 4), (60, 20), (120, 40), (300, 100)] {
                shapes.push(family.generate(n, m, 2));
            }
        }
        for n in [100, 400, 1600] {
            shapes.push(gen::clustered(n, n / 3, n / 3, 5, 2));
        }
        let mut nontrivial = 0usize;
        for inst in &shapes {
            let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
            let lb = lower_bounds(inst).combined();
            for step in 0..5 {
                let Some(r) = scale_and_round(&sizes, lb * (1.0 + 0.2 * step as f64), 0.5) else {
                    continue;
                };
                let c = classify(&r, inst.num_machines());
                let p = select_priority(inst, &r, &c, &cfg);
                let t = transform(inst, &r, &c, &p);
                for classes in [BagClasses::singletons(&t), BagClasses::compute(&t)] {
                    let mut expected: HashMap<(SizeExp, SlotBag), u32> = HashMap::new();
                    for j in 0..t.tinst.num_jobs() {
                        if t.tclass[j] == JobClass::Small {
                            continue;
                        }
                        let b = t.tinst.bag_of(JobId(j as u32));
                        let bag = match classes.of(b) {
                            Some(class) => SlotBag::Priority(classes.rep(class)),
                            None => SlotBag::X,
                        };
                        *expected.entry((t.texp[j], bag)).or_insert(0) += 1;
                    }
                    let got: HashMap<(SizeExp, SlotBag), u32> =
                        collect_symbols_classed(&t, &classes)
                            .iter()
                            .map(|s| ((s.exp, s.bag), s.avail))
                            .collect();
                    assert_eq!(got, expected, "n={} step={step}", inst.num_jobs());
                    nontrivial += usize::from(!classes.all_singletons());
                }
            }
        }
        assert!(nontrivial >= 20, "too few non-trivial exact partitions ({nontrivial})");
    }

    #[test]
    fn coarse_availability_is_class_size_times_minimum() {
        // Bags 0/1 hold two 0.9-jobs, bag 2 holds three: one coarse
        // class of 3 members at tol 1.0, priority avail 3 * min(2,2,3).
        let jobs = [(0.9, 0), (0.9, 0), (0.9, 1), (0.9, 1), (0.9, 2), (0.9, 2), (0.9, 2)];
        let (t, _) = patterns_for(&jobs, 7, 0.5, None, 100_000);
        let coarse = BagClasses::compute_coarse(&t, 1.0);
        assert_eq!(coarse.num_classes(), 1);
        let syms = collect_symbols_classed(&t, &coarse);
        let prio: Vec<&Symbol> =
            syms.iter().filter(|s| matches!(s.bag, SlotBag::Priority(_))).collect();
        assert_eq!(prio.len(), 1);
        assert_eq!(prio[0].avail, 6, "avail must be K * min = 3 * 2");
        assert_eq!(prio[0].bag, SlotBag::Priority(coarse.rep(0)));
    }

    #[test]
    fn wildcard_multiplicity_capped_by_availability() {
        // Only one non-priority large job exists, so no pattern may hold
        // two wildcard slots of that size even though height permits.
        let jobs = [(0.9, 0), (0.9, 0), (0.9, 0), (0.9, 1), (0.01, 1)];
        let (_, ps) = patterns_for(&jobs, 5, 0.5, Some(1), 1000);
        let ps = ps.unwrap();
        for p in &ps.patterns {
            for &(si, c) in &p.entries {
                assert!(c as u32 <= ps.symbols[si].avail);
            }
        }
    }
}
