//! Priority-bag selection (paper Definitions 1–2).
//!
//! A *size-restricted bag* `B_l^s` is the set of jobs of bag `l` with
//! rounded size `s`. For every large size class `s`, the bags are sorted
//! by `|B_l^s|` descending and the first `b'` become *priority* bags, as
//! does every *large bag* (one with at least `eps * m` non-small jobs).
//! The MILP honours the bag-constraints of priority bags exactly; the
//! Lemma-7 swap argument repairs everyone else, and it needs exactly the
//! `b' = (d*q + 1) * q` largest size-restricted bags to be safe.
//!
//! The paper's `b'` is astronomically large for practical `eps`; the
//! default clamps it to the number of bags, which makes every bag holding
//! a large job priority — a strictly stronger regime. A bag without a
//! large job stays non-priority unless it is a large bag, so its medium
//! jobs can still meet the swap path. [`EptasConfig::priority_cap`] lets
//! the harness force small values to exercise that path on every size.

use crate::classify::{Classification, JobClass};
use crate::config::EptasConfig;
use crate::rounding::{Rounded, SizeExp};
use bagsched_types::{BagId, Instance};
use std::collections::HashMap;

/// The priority/non-priority split of the original bags.
#[derive(Debug, Clone)]
pub struct Priority {
    /// Whether each bag is priority.
    pub is_priority: Vec<bool>,
    /// The effective `b'` used (after clamping / override).
    pub b_prime: usize,
    /// The paper-formula `b'` before clamping (saturating).
    pub b_prime_paper: usize,
    /// Number of large bags (`>= eps*m` non-small jobs).
    pub num_large_bags: usize,
}

impl Priority {
    /// Number of priority bags.
    pub fn count(&self) -> usize {
        self.is_priority.iter().filter(|&&p| p).count()
    }
}

/// `q` — the maximum number of medium-or-large slots a machine can hold
/// at optimum height `T = 1 + 2eps + eps^2` (each slot `>= eps^{k+1}`).
pub fn slots_per_machine(epsilon: f64, medium_threshold: f64) -> usize {
    let t = 1.0 + 2.0 * epsilon + epsilon * epsilon;
    (t / medium_threshold).floor() as usize
}

/// Select priority bags per Definition 2.
pub fn select_priority(
    inst: &Instance,
    rounded: &Rounded,
    class: &Classification,
    cfg: &EptasConfig,
) -> Priority {
    let eps = cfg.epsilon;
    let m = inst.num_machines();
    let b = inst.num_bags();

    // Large size classes present, and per-class per-bag counts.
    let mut counts: HashMap<SizeExp, Vec<u32>> = HashMap::new();
    for job in inst.jobs() {
        if class.of(job.id.idx()) == JobClass::Large {
            counts.entry(rounded.exp[job.id.idx()]).or_insert_with(|| vec![0; b])[job.bag.idx()] +=
                1;
        }
    }
    let d = counts.len().max(1);
    let q = slots_per_machine(eps, class.medium_threshold).max(1);
    let b_prime_paper = d.saturating_mul(q).saturating_add(1).saturating_mul(q);
    let b_prime = cfg.priority_cap.unwrap_or(b_prime_paper).min(b).max(1);

    let mut is_priority = vec![false; b];

    // Top-b' bags per large size class.
    for per_bag in counts.values() {
        let mut order: Vec<usize> = (0..b).filter(|&l| per_bag[l] > 0).collect();
        order.sort_by(|&a, &c| per_bag[c].cmp(&per_bag[a]).then(a.cmp(&c)));
        for &l in order.iter().take(b_prime) {
            is_priority[l] = true;
        }
    }

    // Large bags are always priority.
    let large_bag_threshold = eps * m as f64;
    let mut num_large_bags = 0;
    for (bag, members) in inst.bags() {
        let non_small = members.iter().filter(|&&j| class.of(j.idx()) != JobClass::Small).count();
        if non_small as f64 >= large_bag_threshold - bagsched_types::EPS && non_small > 0 {
            if !is_priority[bag.idx()] {
                is_priority[bag.idx()] = true;
            }
            num_large_bags += 1;
        }
    }

    Priority { is_priority, b_prime, b_prime_paper, num_large_bags }
}

/// Convenience: the list of priority bag ids.
pub fn priority_bags(p: &Priority) -> Vec<BagId> {
    p.is_priority.iter().enumerate().filter_map(|(l, &is)| is.then_some(BagId(l as u32))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::rounding::scale_and_round;

    fn setup(jobs: &[(f64, u32)], m: usize, cfg: &EptasConfig) -> (Instance, Priority) {
        let inst = Instance::new(jobs, m);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, cfg.epsilon).unwrap();
        let c = classify(&r, m);
        let p = select_priority(&inst, &r, &c, cfg);
        (inst, p)
    }

    #[test]
    fn paper_formula_makes_everything_priority_on_small_instances() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let (_, p) = setup(&[(0.9, 0), (0.8, 1), (0.7, 2), (0.05, 3)], 3, &cfg);
        // b'_paper is huge, so every bag with large jobs is priority; the
        // small-only bag 3 is not (it appears in no large size class).
        assert!(p.is_priority[0] && p.is_priority[1] && p.is_priority[2]);
        assert!(!p.is_priority[3]);
        assert!(p.b_prime_paper >= p.b_prime);
    }

    #[test]
    fn cap_limits_selection_by_size_class_count() {
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.priority_cap = Some(1);
        // Three bags with 3, 2, 1 large jobs of the same (rounded) size.
        let jobs = [(0.9, 0), (0.9, 0), (0.9, 0), (0.9, 1), (0.9, 1), (0.9, 2)];
        let (_, p) = setup(&jobs, 6, &cfg);
        assert!(p.is_priority[0], "bag with most jobs of the class must win");
        assert!(!p.is_priority[1] && !p.is_priority[2]);
        assert_eq!(p.count(), 1);
    }

    #[test]
    fn large_bags_forced_priority() {
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.priority_cap = Some(1);
        // Bag 1 has eps*m = 2 medium/large jobs but fewer large jobs of the
        // top size than bag 0; the large-bag rule still makes it priority.
        let jobs = [
            (0.9, 0),
            (0.9, 0),
            (0.9, 0),
            (0.9, 1),
            (0.3, 1), // 0.3 rounds into medium-or-large band
        ];
        let (_, p) = setup(&jobs, 4, &cfg);
        assert!(p.is_priority[1], "large bag must be priority");
        assert!(p.num_large_bags >= 1);
    }

    #[test]
    fn small_only_bags_never_priority() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let (_, p) = setup(&[(0.001, 0), (0.002, 1), (0.9, 2)], 3, &cfg);
        assert!(!p.is_priority[0]);
        assert!(!p.is_priority[1]);
        assert!(p.is_priority[2]);
    }

    #[test]
    fn slots_per_machine_matches_formula() {
        // eps = 0.5, k = 1: threshold = 0.25, T = 2.25 => q = 9.
        assert_eq!(slots_per_machine(0.5, 0.25), 9);
        // eps = 0.25, threshold = 0.0625, T = 1.5625 => q = 25.
        assert_eq!(slots_per_machine(0.25, 0.0625), 25);
    }

    #[test]
    fn priority_bags_list_matches_flags() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let (_, p) = setup(&[(0.9, 0), (0.01, 1)], 2, &cfg);
        let list = priority_bags(&p);
        assert_eq!(list, vec![BagId(0)]);
    }
}
