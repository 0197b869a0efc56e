//! Bag classes: grouping interchangeable priority bags (the unlock for
//! large tight instances, ROADMAP "class-level aggregation").
//!
//! Two priority bags of the transformed instance whose jobs have
//! identical `(rounded size, job class) -> count` profiles are fully
//! interchangeable: renaming one to the other maps any feasible schedule
//! to a feasible schedule of the same makespan. The pattern/master/MILP
//! stack can therefore key slot symbols, covering rows and the pricing
//! item space on `(size, bag class)` instead of `(size, bag)` — on tight
//! clustered instances this collapses hundreds of per-bag symbols to the
//! handful of distinct cluster profiles. [`crate::declass`] maps
//! class-level solutions back to concrete bags before the placement
//! phases run, so everything downstream of the MILP is untouched.
//!
//! Non-priority bags are never classed — their large jobs already share
//! the wildcard `B_x` symbols, which is a coarser aggregation.

use crate::rounding::SizeExp;
use crate::transform::Transformed;
use bagsched_types::BagId;
use std::collections::BTreeMap;

/// Quantized bag profile used as the coarse-class grouping key: sorted
/// `((rounded exponent, job-class code), count bucket)` pairs.
type CoarseKey = Vec<((SizeExp, u8), u32)>;

/// The partition of the transformed instance's priority bags into
/// interchangeability classes.
#[derive(Debug, Clone)]
pub struct BagClasses {
    /// Class index per transformed bag (`None` for non-priority bags).
    pub class_of: Vec<Option<usize>>,
    /// Members per class, ascending bag id; `members[c][0]` is the
    /// class *representative* that keys the aggregated slot symbols.
    pub members: Vec<Vec<BagId>>,
}

/// Geometric bucket index of a job count: boundaries grow as
/// `b <- max(b + 1, ceil(b * (1 + tol)))` starting at 1, so counts within
/// a `(1 + tol)` relative band share a bucket while every count keeps its
/// own bucket at `tol = 0`. Pure integer thresholds: bucketing is exact
/// and deterministic, no float comparisons between counts.
fn count_bucket(count: u32, tol: f64) -> u32 {
    debug_assert!(count >= 1, "profile entries hold at least one job");
    let mut boundary = 1u64;
    let mut idx = 0u32;
    loop {
        let grown = ((boundary as f64) * (1.0 + tol)).ceil() as u64;
        let next = grown.max(boundary + 1);
        if next > count as u64 {
            return idx;
        }
        boundary = next;
        idx += 1;
    }
}

impl BagClasses {
    /// Compute the classes by full-profile grouping: the profile of a bag
    /// is the multiset of `(rounded exponent, job class)` over *all* its
    /// jobs (large, medium and small alike — anything less than full
    /// identity would break interchangeability for the small-job phases).
    /// This is the coarse partition at zero tolerance, where every count
    /// keeps its own bucket.
    pub fn compute(trans: &Transformed) -> Self {
        Self::compute_coarse(trans, 0.0)
    }

    /// Compute *coarse* classes by template-based profile quantization:
    /// each priority bag's `(rounded exponent, job class) -> count`
    /// profile is mapped onto a geometric count grid (buckets of
    /// relative width `tol`, see `count_bucket`) and bags whose
    /// quantized profiles coincide share a class — even when their exact
    /// per-size counts differ by up to a `(1 + tol)` factor.
    ///
    /// Two invariants the downstream stack relies on:
    ///
    /// * **coarsening**: identical exact profiles always land in one
    ///   coarse class, so the coarse partition is a coarsening of
    ///   [`BagClasses::compute`] — equal class counts mean the
    ///   partitions are identical and coarsening buys nothing;
    /// * **identical supports**: bucket 0 starts at count 1, so a bag
    ///   *lacking* a `(size, class)` key can never share a class with a
    ///   bag holding one — within a coarse class every member owns at
    ///   least one job of every profile key.
    ///
    /// Unlike exact classes, coarse class members are *not* fully
    /// interchangeable: the aggregated stack prices against the
    /// per-size **minimum** count over members
    /// ([`crate::pattern::collect_symbols_classed`]) so every class-level
    /// pattern stays feasible for every member, and
    /// [`crate::declass`]'s repair pass re-places each member's surplus
    /// jobs afterwards. `tol = 0` is the exact partition
    /// ([`BagClasses::compute`]).
    pub fn compute_coarse(trans: &Transformed, tol: f64) -> Self {
        let mut class_of = vec![None; trans.tinst.num_bags()];
        let mut members: Vec<Vec<BagId>> = Vec::new();
        // Classes are numbered in order of their smallest member, so the
        // representative (`members[c][0]`) is deterministic.
        let mut groups: BTreeMap<CoarseKey, usize> = BTreeMap::new();
        let mut profile: Vec<(SizeExp, u8)> = Vec::new();
        for (bag, jobs) in trans.tinst.bags() {
            if !trans.is_priority_tbag[bag.idx()] {
                continue;
            }
            profile.clear();
            profile.extend(jobs.iter().map(|j| (trans.texp[j.idx()], trans.tclass[j.idx()] as u8)));
            profile.sort_unstable();
            let mut key: CoarseKey = Vec::new();
            for &k in &profile {
                match key.last_mut() {
                    Some((last, count)) if *last == k => *count += 1,
                    _ => key.push((k, 1)),
                }
            }
            for (_, count) in &mut key {
                *count = count_bucket(*count, tol);
            }
            let c = *groups.entry(key).or_insert_with(|| {
                members.push(Vec::new());
                members.len() - 1
            });
            class_of[bag.idx()] = Some(c);
            members[c].push(bag);
        }
        BagClasses { class_of, members }
    }

    /// The degenerate partition: one class per priority bag. Class-keyed
    /// code run with singletons reproduces the per-bag semantics exactly.
    pub fn singletons(trans: &Transformed) -> Self {
        let mut class_of = vec![None; trans.tinst.num_bags()];
        let mut members = Vec::new();
        for (b, slot) in class_of.iter_mut().enumerate() {
            if trans.is_priority_tbag[b] {
                *slot = Some(members.len());
                members.push(vec![BagId(b as u32)]);
            }
        }
        BagClasses { class_of, members }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.members.len()
    }

    /// Number of bags in class `c`.
    pub fn size(&self, c: usize) -> usize {
        self.members[c].len()
    }

    /// The representative bag that keys class `c`'s slot symbols.
    pub fn rep(&self, c: usize) -> BagId {
        self.members[c][0]
    }

    /// Class of a transformed bag (`None` for non-priority bags).
    pub fn of(&self, b: BagId) -> Option<usize> {
        self.class_of[b.idx()]
    }

    /// Whether every class is a singleton (then aggregation is the
    /// identity and the per-bag fast paths apply).
    pub fn all_singletons(&self) -> bool {
        self.members.iter().all(|m| m.len() == 1)
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
    fn identical_profiles_share_a_class() {
        // Bags 0, 1, 2 each hold one 0.9-job; bag 3 holds two of them —
        // a different profile, hence its own class.
        let t = transformed(&[(0.9, 0), (0.9, 1), (0.9, 2), (0.9, 3), (0.9, 3)], 4, 0.5);
        let c = BagClasses::compute(&t);
        assert_eq!(c.num_classes(), 2);
        assert_eq!(c.members[0], vec![BagId(0), BagId(1), BagId(2)]);
        assert_eq!(c.size(0), 3);
        assert_eq!(c.rep(0), BagId(0));
        assert_eq!(c.of(BagId(1)), Some(0));
        assert_eq!(c.of(BagId(3)), Some(1));
        assert!(!c.all_singletons());
    }

    #[test]
    fn profile_is_a_multiset_over_all_jobs() {
        // Bags 0 and 1 both hold {0.9, 0.9}; bag 2 holds a single 0.9 —
        // distinct class despite sharing the size.
        let t = transformed(&[(0.9, 0), (0.9, 0), (0.9, 1), (0.9, 1), (0.9, 2)], 5, 0.5);
        let c = BagClasses::compute(&t);
        assert_eq!(c.of(BagId(0)), c.of(BagId(1)));
        assert_ne!(c.of(BagId(0)), c.of(BagId(2)));
    }

    #[test]
    fn small_jobs_split_otherwise_equal_bags() {
        // Bags 0 and 1 share the large profile but bag 1 carries a small
        // job: full-profile identity must separate them.
        let t = transformed(&[(0.9, 0), (0.9, 1), (0.01, 1)], 3, 0.5);
        let c = BagClasses::compute(&t);
        assert_ne!(c.of(BagId(0)), c.of(BagId(1)));
    }

    #[test]
    fn singletons_cover_exactly_the_priority_bags() {
        let t = transformed(&[(0.9, 0), (0.9, 1), (0.9, 2)], 3, 0.5);
        let s = BagClasses::singletons(&t);
        assert!(s.all_singletons());
        let prio = t.is_priority_tbag.iter().filter(|&&p| p).count();
        assert_eq!(s.num_classes(), prio);
        for c in 0..s.num_classes() {
            assert_eq!(s.of(s.rep(c)), Some(c));
        }
    }

    #[test]
    fn count_buckets_are_geometric_and_exact_at_zero() {
        // tol = 0: every count its own bucket.
        for c in 1..50u32 {
            assert_eq!(count_bucket(c, 0.0), c - 1);
        }
        // tol = 1.0: boundaries 1, 2, 4, 8, ... — bit-length buckets.
        assert_eq!(count_bucket(1, 1.0), 0);
        assert_eq!(count_bucket(2, 1.0), 1);
        assert_eq!(count_bucket(3, 1.0), 1);
        assert_eq!(count_bucket(4, 1.0), 2);
        assert_eq!(count_bucket(7, 1.0), 2);
        assert_eq!(count_bucket(8, 1.0), 3);
        // Monotone in the count for a fixed tolerance.
        for c in 1..200u32 {
            assert!(count_bucket(c + 1, 0.5) >= count_bucket(c, 0.5));
        }
    }

    #[test]
    fn coarse_is_a_coarsening_of_exact() {
        // Bags 0/1 hold two 0.9-jobs, bag 2 holds three: distinct exact
        // classes, one coarse class at tol = 1.0 (boundaries 1, 2, 4, …
        // put counts 2 and 3 in the [2, 3] bucket).
        let jobs = [(0.9, 0), (0.9, 0), (0.9, 1), (0.9, 1), (0.9, 2), (0.9, 2), (0.9, 2)];
        let t = transformed(&jobs, 7, 0.5);
        let exact = BagClasses::compute(&t);
        let coarse = BagClasses::compute_coarse(&t, 1.0);
        assert_eq!(exact.num_classes(), 2);
        assert_eq!(coarse.num_classes(), 1, "counts 2 and 3 must share a bucket at tol 1.0");
        assert_eq!(coarse.members[0], vec![BagId(0), BagId(1), BagId(2)]);
        assert_eq!(coarse.rep(0), BagId(0));
        // Every exact class sits inside one coarse class.
        for c in 0..exact.num_classes() {
            let coarse_ids: Vec<_> =
                exact.members[c].iter().map(|&b| coarse.of(b).unwrap()).collect();
            assert!(coarse_ids.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn coarse_never_merges_distinct_supports() {
        // Bag 0 holds a large job, bag 1 holds a large and a small job:
        // the supports differ, so no tolerance may merge them.
        let t = transformed(&[(0.9, 0), (0.9, 1), (0.01, 1)], 3, 0.5);
        let coarse = BagClasses::compute_coarse(&t, 10.0);
        assert_ne!(coarse.of(BagId(0)), coarse.of(BagId(1)));
    }

    #[test]
    fn non_priority_bags_are_never_classed() {
        // Force a non-priority bag via a cap of 1.
        let inst = Instance::new(&[(0.9, 0), (0.9, 0), (0.9, 1), (0.01, 1)], 4);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, 0.5).unwrap();
        let cl = classify(&r, 4);
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.priority_cap = Some(1);
        let p = select_priority(&inst, &r, &cl, &cfg);
        let t = transform(&inst, &r, &cl, &p);
        let c = BagClasses::compute(&t);
        for b in 0..t.tinst.num_bags() {
            assert_eq!(
                c.of(BagId(b as u32)).is_some(),
                t.is_priority_tbag[b],
                "bag {b}: classed iff priority"
            );
        }
    }
}
