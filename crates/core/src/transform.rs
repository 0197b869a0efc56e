//! The instance transformation (paper §2.2, Figure 2, Lemma 2).
//!
//! Every *non-priority* bag `B_l` that contains small jobs is split:
//!
//! * its **large** jobs move to a fresh bag `B'_l` (the "large side"),
//! * its **medium** jobs are removed entirely (re-inserted at the end via
//!   the Lemma-3 flow),
//! * for every removed large/medium job a **filler job** of size `pmax`
//!   (the largest small size in `B_l`) joins the small side.
//!
//! Lemma 2: any schedule of makespan `C` for the original instance yields
//! one of makespan `(1+eps) * C` for the transformed instance, because a
//! machine holds at most `C / eps^k` large jobs and each filler adds at
//! most `eps^{k+1}`. The pay-off is that non-priority small and large
//! jobs can be scheduled *independently* — they no longer share a bag.
//! Lemma 4 (implemented in [`crate::undo`]) converts a solution back,
//! swapping conflicting real small jobs with fillers.

use crate::classify::{Classification, JobClass};
use crate::priority::Priority;
use crate::rounding::{Rounded, SizeExp};
use bagsched_types::{BagId, Instance, InstanceBuilder, JobId};

/// The transformed instance `I'` plus every mapping needed to translate a
/// solution back to the original instance.
#[derive(Debug, Clone)]
pub struct Transformed {
    /// The transformed instance (sizes are the *rounded, scaled* ones).
    pub tinst: Instance,
    /// Rounded-size exponent per transformed job.
    pub texp: Vec<SizeExp>,
    /// Job class per transformed job.
    pub tclass: Vec<JobClass>,
    /// Transformed job -> original job (`None` for fillers).
    pub to_orig: Vec<Option<JobId>>,
    /// Transformed job -> the original large/medium job it is the filler
    /// for (`None` for real jobs).
    pub filler_for: Vec<Option<JobId>>,
    /// Original job -> transformed job (`None` for set-aside medium jobs).
    pub from_orig: Vec<Option<JobId>>,
    /// Original medium jobs of modified bags, to be re-inserted (Lemma 3).
    pub removed_medium: Vec<JobId>,
    /// Transformed bag -> the original bag it stems from.
    pub t_bag_orig: Vec<BagId>,
    /// Original bag -> transformed "large side" bag `B'_l`, if split.
    pub large_side_of: Vec<Option<BagId>>,
    /// Original bag -> transformed small-side bag, if split.
    pub small_side_of: Vec<Option<BagId>>,
    /// Whether each transformed bag is priority (inherited; both sides of
    /// a split bag are non-priority by construction).
    pub is_priority_tbag: Vec<bool>,
    /// Whether each original bag was split.
    pub was_modified: Vec<bool>,
    /// The post-transformation optimum bound `T = 1 + 2eps + eps^2`.
    pub t: f64,
}

/// The transformed instance under construction: the instance builder
/// plus the per-job vectors of [`Transformed`], pushed in step.
struct Builder {
    builder: InstanceBuilder,
    to_orig: Vec<Option<JobId>>,
    filler_for: Vec<Option<JobId>>,
    texp: Vec<SizeExp>,
    tclass: Vec<JobClass>,
}

impl Builder {
    fn new(machines: usize) -> Self {
        Builder {
            builder: InstanceBuilder::new(machines),
            to_orig: Vec::new(),
            filler_for: Vec::new(),
            texp: Vec::new(),
            tclass: Vec::new(),
        }
    }

    /// Append a transformed job in external bag `ext`: the real job
    /// `orig`, or (`orig` = `None`) the filler for `filler`.
    fn push(
        &mut self,
        size: f64,
        ext: u32,
        orig: Option<JobId>,
        filler: Option<JobId>,
        exp: SizeExp,
        cls: JobClass,
    ) -> JobId {
        let tid = self.builder.push(size, ext);
        self.to_orig.push(orig);
        self.filler_for.push(filler);
        self.texp.push(exp);
        self.tclass.push(cls);
        tid
    }
}

/// Apply the transformation.
pub fn transform(
    inst: &Instance,
    rounded: &Rounded,
    class: &Classification,
    priority: &Priority,
) -> Transformed {
    let eps = rounded.epsilon;
    let b = inst.num_bags();
    let mut out = Builder::new(inst.num_machines());
    let mut from_orig: Vec<Option<JobId>> = vec![None; inst.num_jobs()];
    let mut removed_medium: Vec<JobId> = Vec::new();
    let mut was_modified = vec![false; b];

    // A real job keeps its rounded size, exponent and class.
    let real = |out: &mut Builder, j: JobId, ext: u32| {
        let (size, exp) = (rounded.size[j.idx()], rounded.exp[j.idx()]);
        out.push(size, ext, Some(j), None, exp, class.of(j.idx()))
    };
    for (bag, members) in inst.bags() {
        let l = bag.idx();
        // External bag ids for the builder: 2l = the bag itself (or its
        // small side), 2l + 1 = the large side of a split bag.
        let (side, large_side) = (2 * l as u32, 2 * l as u32 + 1);
        if priority.is_priority[l] {
            for &j in members {
                from_orig[j.idx()] = Some(real(&mut out, j, side));
            }
            continue;
        }
        // Non-priority bag: find its largest small job.
        let pmax = members
            .iter()
            .filter(|&&j| class.of(j.idx()) == JobClass::Small)
            .max_by(|&&a, &&b| rounded.size[a.idx()].total_cmp(&rounded.size[b.idx()]));
        let Some(&pmax_job) = pmax else {
            // No small jobs: the bag is left unmodified (paper §2.2).
            for &j in members {
                from_orig[j.idx()] = Some(real(&mut out, j, side));
            }
            continue;
        };
        was_modified[l] = true;
        let pmax_size = rounded.size[pmax_job.idx()];
        let pmax_exp = rounded.exp[pmax_job.idx()];
        for &j in members {
            match class.of(j.idx()) {
                JobClass::Small => from_orig[j.idx()] = Some(real(&mut out, j, side)),
                JobClass::Large => {
                    // Real job moves to the large side...
                    from_orig[j.idx()] = Some(real(&mut out, j, large_side));
                    // ...and a filler of size pmax joins the small side.
                    out.push(pmax_size, side, None, Some(j), pmax_exp, JobClass::Small);
                }
                JobClass::Medium => {
                    // The medium job is set aside; only its filler remains.
                    removed_medium.push(j);
                    out.push(pmax_size, side, None, Some(j), pmax_exp, JobClass::Small);
                }
            }
        }
    }

    let Builder { builder, to_orig, filler_for, texp, tclass } = out;
    let tinst = builder.build();

    // Reconstruct bag-level maps from the members.
    let tb = tinst.num_bags();
    let mut t_bag_orig = vec![BagId(0); tb];
    let mut is_priority_tbag = vec![false; tb];
    let mut large_side_of: Vec<Option<BagId>> = vec![None; b];
    let mut small_side_of: Vec<Option<BagId>> = vec![None; b];
    for (tbag, members) in tinst.bags() {
        let first = members[0];
        let orig_bag = match to_orig[first.idx()] {
            Some(oj) => inst.bag_of(oj),
            None => inst.bag_of(filler_for[first.idx()].expect("filler has a source")),
        };
        t_bag_orig[tbag.idx()] = orig_bag;
        let l = orig_bag.idx();
        if priority.is_priority[l] {
            is_priority_tbag[tbag.idx()] = true;
        } else if was_modified[l] {
            // Large side iff its first member is a large real job.
            let is_large_side = to_orig[first.idx()]
                .map(|oj| class.of(oj.idx()) == JobClass::Large)
                .unwrap_or(false)
                && tclass[first.idx()] == JobClass::Large;
            if is_large_side {
                large_side_of[l] = Some(tbag);
            } else {
                small_side_of[l] = Some(tbag);
            }
        }
    }

    Transformed {
        tinst,
        texp,
        tclass,
        to_orig,
        filler_for,
        from_orig,
        removed_medium,
        t_bag_orig,
        large_side_of,
        small_side_of,
        is_priority_tbag,
        was_modified,
        t: 1.0 + 2.0 * eps + eps * eps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::config::EptasConfig;
    use crate::priority::select_priority;
    use crate::rounding::scale_and_round;

    fn build(
        jobs: &[(f64, u32)],
        m: usize,
        eps: f64,
        cap: Option<usize>,
    ) -> (Instance, Transformed) {
        let inst = Instance::new(jobs, m);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, eps).unwrap();
        let c = classify(&r, m);
        let mut cfg = EptasConfig::with_epsilon(eps);
        cfg.priority_cap = cap;
        let p = select_priority(&inst, &r, &c, &cfg);
        let t = transform(&inst, &r, &c, &p);
        (inst, t)
    }

    /// A non-priority bag with large, medium and small jobs.
    /// eps = 0.5; with priority_cap 0-ish the bag stays non-priority.
    /// Sizes: 0.9 (large), 0.1 (likely medium/small depending on k), 0.01.
    #[test]
    fn split_bag_bookkeeping() {
        // Force non-priority by making another bag dominate the size class.
        let jobs = [
            (0.9, 0),
            (0.9, 0), // bag 0: two large of the class -> priority
            (0.9, 1),
            (0.05, 1),
            (0.01, 1), // bag 1: one large + smalls
        ];
        let (inst, t) = build(&jobs, 4, 0.5, Some(1));
        // Bag 0 wins the single priority slot.
        assert!(t.was_modified[1], "bag 1 must be split");
        assert!(!t.was_modified[0]);
        let ls = t.large_side_of[1].expect("large side exists");
        let ss = t.small_side_of[1].expect("small side exists");
        assert_ne!(ls, ss);
        // Large side holds exactly the large job of bag 1.
        let ls_members = t.tinst.bag(ls);
        assert_eq!(ls_members.len(), 1);
        assert_eq!(t.to_orig[ls_members[0].idx()], Some(JobId(2)));
        // Small side: 2 real smalls + 1 filler for the large job.
        let ss_members = t.tinst.bag(ss);
        assert_eq!(ss_members.len(), 3);
        let fillers: Vec<_> =
            ss_members.iter().filter(|&&j| t.filler_for[j.idx()].is_some()).collect();
        assert_eq!(fillers.len(), 1);
        assert_eq!(t.filler_for[fillers[0].idx()], Some(JobId(2)));
        // Total job conservation: |I'| = |I| + #ml-jobs-of-modified-bags
        //                                 - #removed-medium.
        assert_eq!(t.tinst.num_jobs(), inst.num_jobs() + 1 - t.removed_medium.len());
    }

    #[test]
    fn filler_size_is_pmax_small() {
        let jobs = [(0.9, 0), (0.9, 0), (0.9, 1), (0.05, 1), (0.01, 1)];
        let (_, t) = build(&jobs, 4, 0.5, Some(1));
        let ss = t.small_side_of[1].unwrap();
        let pmax = t
            .tinst
            .bag(ss)
            .iter()
            .filter(|&&j| t.filler_for[j.idx()].is_none())
            .map(|&j| t.tinst.size(j))
            .fold(0.0f64, f64::max);
        for &j in t.tinst.bag(ss) {
            if t.filler_for[j.idx()].is_some() {
                assert_eq!(t.tinst.size(j), pmax);
                assert_eq!(t.tclass[j.idx()], JobClass::Small);
            }
        }
    }

    #[test]
    fn priority_bags_pass_through() {
        let jobs = [(0.9, 0), (0.2, 0), (0.01, 0)];
        let (inst, t) = build(&jobs, 2, 0.5, None);
        // Single bag with large jobs: priority; untouched.
        assert_eq!(t.tinst.num_jobs(), inst.num_jobs());
        assert!(t.removed_medium.is_empty());
        assert!(t.to_orig.iter().all(Option::is_some));
        assert_eq!(t.tinst.num_bags(), 1);
        assert!(t.is_priority_tbag[0]);
    }

    #[test]
    fn bag_without_smalls_unmodified() {
        // Bag 1 is non-priority (cap 1) but has no small jobs.
        let jobs = [(0.9, 0), (0.9, 0), (0.9, 1)];
        let (inst, t) = build(&jobs, 3, 0.5, Some(1));
        assert!(!t.was_modified[1]);
        assert_eq!(t.tinst.num_jobs(), inst.num_jobs());
        assert!(t.large_side_of[1].is_none());
    }

    #[test]
    fn medium_jobs_removed_and_tracked() {
        // Construct a bag whose medium job must be set aside. eps = 0.5;
        // make band 1 heavy so k = 2 and medium = [0.125, 0.25).
        // Bag 0 hogs priority; bag 1: large 0.9, medium 0.15, small 0.01.
        let mut jobs = vec![(0.3, 0); 10]; // heavy band 1 mass on bag 0 (m=2 -> bound 0.75)
        jobs.extend([(0.9, 1), (0.15, 1), (0.01, 1)]);
        let (inst, t) = build(&jobs, 2, 0.5, Some(1));
        // Bag 1's 0.15 job: check it was classified medium and removed
        // (only if bag 1 is non-priority; bag 0 should dominate).
        if t.was_modified[1] {
            let medium_ids: Vec<u32> = t.removed_medium.iter().map(|j| j.0).collect();
            if !medium_ids.is_empty() {
                assert_eq!(medium_ids, vec![11]);
                assert!(t.from_orig[11].is_none());
            }
        }
        // Every non-removed original job is mapped.
        for j in 0..inst.num_jobs() {
            let removed = t.removed_medium.contains(&JobId(j as u32));
            assert_eq!(t.from_orig[j].is_some(), !removed);
        }
    }

    #[test]
    fn small_side_size_bounded_by_original_bag() {
        // |small side| = |B_l| - #medium <= m always (feasible instances).
        let jobs = [(0.9, 0), (0.9, 0), (0.9, 1), (0.6, 1), (0.05, 1), (0.01, 1)];
        let (inst, t) = build(&jobs, 4, 0.5, Some(1));
        if let Some(ss) = t.small_side_of[1] {
            assert!(t.tinst.bag(ss).len() <= inst.num_machines());
        }
    }

    #[test]
    fn t_value_matches_formula() {
        let (_, t) = build(&[(0.5, 0)], 2, 0.5, None);
        assert!((t.t - 2.25).abs() < 1e-12);
    }
}
