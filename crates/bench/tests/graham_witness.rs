//! CI smoke for the per-guess work that grows with n and m: Graham's LPT
//! instance with each job in its own bag, sizes `2m-1, 2m-1, ..., m+1,
//! m+1, m, m, m` on `m = 30,000` machines (60,001 jobs and bags), at eps
//! 0.5. The conflict-aware LPT bound is its answer: makespan 119,999
//! against a lower bound of 90,000.
//!
//! Every guess transforms the whole instance, so a per-job cost that
//! scales with the bag count shows up here first: with a linear scan for
//! each job's dense bag id, instance construction made the solve take
//! 2.2-2.8 s (release, 2-core Xeon); with a hash map it takes 0.23-0.28 s.

use bagsched_core::{EptasConfig, Solver};
use bagsched_types::{validate_schedule, Instance, InstanceBuilder};
use std::time::Instant;

/// Graham's instance on `m` machines, one bag per job.
fn graham_singleton_bags(m: u32) -> Instance {
    let mut sizes: Vec<u32> = (m + 1..2 * m).rev().flat_map(|s| [s, s]).collect();
    sizes.extend([m, m, m]);
    let mut b = InstanceBuilder::new(m as usize);
    for (bag, &size) in sizes.iter().enumerate() {
        b.push(size as f64, bag as u32);
    }
    b.build()
}

#[test]
fn graham_witness_solves_under_the_ceiling() {
    let inst = graham_singleton_bags(30_000);
    assert_eq!((inst.num_jobs(), inst.num_bags()), (60_001, 60_001));
    let start = Instant::now();
    let r = Solver::new(EptasConfig::with_epsilon(0.5)).solve_instance(&inst).unwrap();
    let elapsed = start.elapsed().as_secs_f64();

    validate_schedule(&inst, &r.schedule).unwrap();
    assert_eq!(r.makespan, 119_999.0);
    assert_eq!(r.report.lower_bound, 90_000.0);
    // Optimized runs must stay well under the scan's 2.1 s; unoptimized
    // ones only check the answer.
    if !cfg!(debug_assertions) {
        assert!(elapsed <= 1.0, "the witness took {elapsed:.2}s (ceiling 1s)");
    }
}
