//! Synthetic workload families.
//!
//! The paper contains no experimental testbed, so the harness evaluates on
//! these families. Every generator is deterministic in its
//! seed and guarantees `|B_l| <= m`, i.e. the produced instance is feasible.

use crate::instance::{Instance, InstanceBuilder};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Assign `n` jobs to roughly `b` bags uniformly while never letting a bag
/// exceed `m` members. Returns the bag id per job.
fn random_bags(rng: &mut StdRng, n: usize, b: usize, m: usize) -> Vec<u32> {
    assert!(b > 0, "need at least one bag");
    assert!(b * m >= n, "cannot fit {n} jobs into {b} bags capped at {m}");
    let mut counts = vec![0usize; b];
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Rejection-sample a non-full bag; fall back to a linear scan if
        // the instance is nearly tight.
        let mut bag = None;
        for _ in 0..16 {
            let cand = rng.random_range(0..b);
            if counts[cand] < m {
                bag = Some(cand);
                break;
            }
        }
        let bag = bag
            .unwrap_or_else(|| counts.iter().position(|&c| c < m).expect("capacity checked above"));
        counts[bag] += 1;
        out.push(bag as u32);
    }
    out
}

/// Uniform sizes in `(0, 1]`, jobs spread over `b` bags.
pub fn uniform(n: usize, m: usize, b: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let bags = random_bags(&mut rng, n, b, m);
    let mut builder = InstanceBuilder::new(m);
    for bag in bags {
        let size: f64 = rng.random_range(0.0..1.0f64).max(1e-3);
        builder.push(size, bag);
    }
    builder.build()
}

/// Bimodal sizes: a `frac_large` fraction of jobs near 1.0, the rest tiny.
/// Stresses the large/small classification and the instance transformation.
pub fn bimodal(n: usize, m: usize, b: usize, frac_large: f64, seed: u64) -> Instance {
    assert!((0.0..=1.0).contains(&frac_large));
    let mut rng = StdRng::seed_from_u64(seed);
    let bags = random_bags(&mut rng, n, b, m);
    let mut builder = InstanceBuilder::new(m);
    for bag in bags {
        let size = if rng.random_range(0.0..1.0f64) < frac_large {
            rng.random_range(0.7..1.0)
        } else {
            rng.random_range(0.01..0.1)
        };
        builder.push(size, bag);
    }
    builder.build()
}

/// Few distinct ("quantized") sizes. Keeps the EPTAS pattern space small,
/// so the paper-faithful exact-MILP path is exercised.
pub fn clustered(n: usize, m: usize, b: usize, distinct: usize, seed: u64) -> Instance {
    assert!(distinct > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: Vec<f64> =
        (0..distinct).map(|i| 0.15 + 0.85 * (i as f64 + 0.5) / distinct as f64).collect();
    let bags = random_bags(&mut rng, n, b, m);
    let mut builder = InstanceBuilder::new(m);
    for bag in bags {
        let s = sizes[rng.random_range(0..distinct)];
        builder.push(s, bag);
    }
    builder.build()
}

/// A few near-full bags plus many singletons. Stresses the priority-bag
/// selection and the large-bag rule (`>= eps*m` non-small jobs).
pub fn adversarial_bags(n: usize, m: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = InstanceBuilder::new(m);
    let num_big = (n / (2 * m)).max(1);
    let mut placed = 0usize;
    for bag in 0..num_big {
        let members = m.min(n - placed);
        for _ in 0..members {
            builder.push(rng.random_range(0.2..1.0), bag as u32);
            placed += 1;
        }
        if placed >= n / 2 {
            break;
        }
    }
    let mut next_bag = num_big as u32;
    while placed < n {
        builder.push(rng.random_range(0.01..0.6), next_bag);
        next_bag += 1;
        placed += 1;
    }
    builder.build()
}

/// The paper's Figure-1 gadget, scaled to `m` machines.
///
/// `m` large jobs of size `1/2` in `m` distinct bags, plus `m` "small"
/// bags of `m` jobs of size `1/(2m)` each. The optimum is exactly `1.0`
/// (each machine: one large job plus one job of each small bag). A
/// bag-oblivious placement that stacks two large jobs per machine still
/// has large-job height `<= 1`, but then every small bag is forced to put
/// a job on every machine, driving the makespan to `1.5`.
pub fn fig1_gadget(m: usize) -> Instance {
    assert!(m >= 2, "the gadget needs at least two machines");
    let mut builder = InstanceBuilder::new(m);
    for i in 0..m {
        builder.push(0.5, i as u32);
    }
    let small = 1.0 / (2.0 * m as f64);
    for sb in 0..m {
        for _ in 0..m {
            builder.push(small, (m + sb) as u32);
        }
    }
    builder.build()
}

/// Every bag has exactly `m` jobs: every machine is constrained by every
/// bag. `n` is rounded up to a multiple of `m`.
pub fn tight_bags(n: usize, m: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let bags = n.div_ceil(m);
    let mut builder = InstanceBuilder::new(m);
    for bag in 0..bags {
        for _ in 0..m {
            builder.push(rng.random_range(0.05..1.0), bag as u32);
        }
    }
    builder.build()
}

/// Heavy-tailed (bounded Pareto) sizes: a few huge jobs dominate.
pub fn powerlaw(n: usize, m: usize, b: usize, alpha: f64, seed: u64) -> Instance {
    assert!(alpha > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let bags = random_bags(&mut rng, n, b, m);
    let mut builder = InstanceBuilder::new(m);
    for bag in bags {
        let u: f64 = rng.random_range(0.0..1.0f64).max(1e-12);
        // Bounded Pareto on [0.01, 1].
        let lo: f64 = 0.01;
        let hi: f64 = 1.0;
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        let size = (la / (1.0 - u * (1.0 - la / ha))).powf(1.0 / alpha).min(hi);
        builder.push(size, bag);
    }
    builder.build()
}

/// Identifier for a family, used by the experiment harness CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Uniform,
    Bimodal,
    Clustered,
    AdversarialBags,
    TightBags,
    Powerlaw,
}

impl Family {
    /// All families, for sweeps.
    pub const ALL: [Family; 6] = [
        Family::Uniform,
        Family::Bimodal,
        Family::Clustered,
        Family::AdversarialBags,
        Family::TightBags,
        Family::Powerlaw,
    ];

    /// Human-readable name (also the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            Family::Uniform => "uniform",
            Family::Bimodal => "bimodal",
            Family::Clustered => "clustered",
            Family::AdversarialBags => "adversarial",
            Family::TightBags => "tight",
            Family::Powerlaw => "powerlaw",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.name() == s)
    }

    /// Generate an instance of this family with default shape parameters.
    pub fn generate(self, n: usize, m: usize, seed: u64) -> Instance {
        let b = (n / 3).max(1).max(n.div_ceil(m));
        match self {
            Family::Uniform => uniform(n, m, b, seed),
            Family::Bimodal => bimodal(n, m, b, 0.3, seed),
            Family::Clustered => clustered(n, m, b, 5, seed),
            Family::AdversarialBags => adversarial_bags(n, m, seed),
            Family::TightBags => tight_bags(n, m, seed),
            Family::Powerlaw => powerlaw(n, m, b, 1.5, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_instance;

    #[test]
    fn all_families_feasible_and_deterministic() {
        for family in Family::ALL {
            let a = family.generate(60, 5, 42);
            let b = family.generate(60, 5, 42);
            assert_eq!(a, b, "{} not deterministic", family.name());
            validate_instance(&a).unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert!(a.num_jobs() >= 60, "{} produced too few jobs", family.name());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform(40, 4, 10, 1);
        let b = uniform(40, 4, 10, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn fig1_gadget_structure() {
        let m = 4;
        let inst = fig1_gadget(m);
        assert_eq!(inst.num_jobs(), m + m * m);
        assert_eq!(inst.num_bags(), 2 * m);
        validate_instance(&inst).unwrap();
        // Optimal load per machine is exactly 1.
        assert!((inst.total_size() / m as f64 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tight_bags_all_full() {
        let inst = tight_bags(12, 3, 7);
        for (_, members) in inst.bags() {
            assert_eq!(members.len(), 3);
        }
    }

    #[test]
    fn clustered_has_few_distinct_sizes() {
        let inst = clustered(100, 5, 30, 4, 11);
        let mut sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        sizes.sort_by(f64::total_cmp);
        sizes.dedup();
        assert!(sizes.len() <= 4);
    }

    #[test]
    fn powerlaw_sizes_in_range() {
        let inst = powerlaw(200, 8, 60, 1.2, 3);
        for j in inst.jobs() {
            assert!(j.size >= 0.009 && j.size <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn bag_cap_respected_under_tightness() {
        let mut rng = StdRng::seed_from_u64(0);
        // n = b*m exactly: every bag must be filled to the brim.
        let bags = random_bags(&mut rng, 12, 4, 3);
        let mut counts = [0usize; 4];
        for b in bags {
            counts[b as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 3));
    }

    #[test]
    fn family_parse_roundtrip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("nope"), None);
    }
}
