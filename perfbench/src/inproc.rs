//! The in-process workloads, `tight-milp` (and `loose-place`, which runs
//! the same way): fixed scale cells solved through `Solver::solve_instance`.
//!
//! A cycle starts a fresh cached solver and, cell by cell, solves the cell
//! cold (a miss, what `solve_s` times), repeats it (hits, which replay the
//! cached solution and re-run placement), solves a jittered copy (a near
//! hit: exact miss, similar shape) and repeats it again. Cycles run
//! back to back until the run's seconds are spent, so every outcome is
//! sampled across the whole run rather than in one short window.

use bagsched::eptas::obs::Recorder;
use bagsched::eptas::{EptasConfig, EptasResult, Solver};
use bagsched::types::{
    coarse_fingerprint, fingerprint, gen, lowerbound::lower_bounds, CacheTag, Instance,
};
use std::time::Instant;

use crate::layers::{stage_replay, Attribution};
use crate::reference::Reference;
use crate::sample::{by_cell, check_schedule, median, smooth_reference, Failure, Op};
use crate::{Checks, EPSILON};

/// Solver-state cache capacity, the daemon's default.
pub const CACHE_CAPACITY: usize = 64;

/// One scale cell: the instance, its near copy and its lower bound.
pub struct Cell {
    pub name: String,
    pub inst: Instance,
    pub near: Instance,
    pub lower_bound: f64,
}

/// An in-process workload: its cells and what a cycle does with them.
pub struct Spec {
    pub cells: Vec<Cell>,
    /// Whether every cold solve must explore branch-and-bound nodes.
    pub require_milp: bool,
    /// Repeats of a cell after its cold solve and after its near solve.
    pub hit_repeats: usize,
}

/// The workload's cells, generated from `cell_seed` and expressed in
/// `unit`s (an exact power of two, so every seed poses the same problem).
pub fn spec(workload: &str, cell_seed: u64, unit: f64) -> Spec {
    // `(n, m, bags)`: the scaling-n grid's tight (n/m = 3) and loose
    // (n/m = 20) shapes, with `bags = n / 3` as that grid uses. The tight
    // cells are the grid's smaller sizes: a cold solve there is still
    // mostly branch-and-price (90-110 nodes at cell seed 2) but takes
    // under a second, so a run holds many samples of each cell spread
    // over its whole window; at n=1600/3200 (5-10 s a solve) it holds
    // two to four, and the medians follow the host's speed drift. A tight
    // hit costs milliseconds, so it repeats often enough for its tail to
    // sit well inside the samples; a loose hit re-runs seconds of
    // placement.
    let (shapes, require_milp, hit_repeats): (&[_], _, _) = match workload {
        "tight-milp" => (&[(300, 100, 100), (450, 150, 150)], true, 20),
        "loose-place" => (&[(51200, 2560, 17066)], false, 1),
        other => unreachable!("not an in-process workload: {other}"),
    };
    let cells = shapes
        .iter()
        .map(|&(n, m, b)| {
            let inst = gen::clustered(n, m, b, 5, cell_seed).scaled(unit);
            Cell {
                name: format!("clustered n={n} m={m}"),
                near: jittered(&inst, 1),
                lower_bound: lower_bounds(&inst).combined(),
                inst,
            }
        })
        .collect();
    Spec { cells, require_milp, hit_repeats }
}

/// `inst` with job 0's size raised by `k` parts in a million: a new exact
/// fingerprint with the same coarse fingerprint (the construction of the
/// solver's near-tier test).
pub fn jittered(inst: &Instance, k: u32) -> Instance {
    let jobs: Vec<(f64, u32)> = inst
        .jobs()
        .iter()
        .map(|j| {
            let f = if j.id.0 == 0 { 1.0 + 1e-6 * f64::from(k) } else { 1.0 };
            (j.size * f, j.bag.0)
        })
        .collect();
    Instance::new(&jobs, inst.num_machines())
}

/// Whether `near` is an exact miss but a coarse match of `inst`.
pub fn is_near_copy(inst: &Instance, near: &Instance) -> bool {
    fingerprint(near, EPSILON) != fingerprint(inst, EPSILON)
        && coarse_fingerprint(near, EPSILON) == coarse_fingerprint(inst, EPSILON)
}

/// The cache tag the solver's report implies.
pub fn tag_of(res: &EptasResult) -> CacheTag {
    if res.report.replayed {
        CacheTag::Hit
    } else if res.report.stats.cache_near_hits > 0 {
        CacheTag::Near
    } else {
        CacheTag::Miss
    }
}

/// One timed solve of `inst`, counted under `cell`; returns the op record
/// and the result.
pub fn solve_op(
    solver: &Solver,
    inst: &Instance,
    lb: f64,
    cell: usize,
) -> (Op, Option<EptasResult>) {
    let t = Instant::now();
    let res = solver.solve_instance(inst);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    match res {
        Ok(res) => {
            let failure = check_schedule(inst, &res.schedule, res.makespan)
                .or_else(|| res.report.fell_back_to_lpt.then_some(Failure::LptFallback));
            let op = Op {
                tag: tag_of(&res),
                latency_ms,
                solver_ms: res.report.elapsed.as_secs_f64() * 1e3,
                ratio: res.makespan / lb,
                failure,
                cell,
                ref_ms: f64::NAN,
            };
            (op, Some(res))
        }
        Err(e) => (Op::error(e.to_string(), latency_ms, cell), None),
    }
}

/// The operations of one cycle, in order: `(cell index, planned outcome)`.
fn cycle(spec: &Spec) -> Vec<(usize, CacheTag)> {
    let mut steps = Vec::new();
    for c in 0..spec.cells.len() {
        for first in [CacheTag::Miss, CacheTag::Near] {
            steps.push((c, first));
            steps.extend(std::iter::repeat_n((c, CacheTag::Hit), spec.hit_repeats));
        }
    }
    steps
}

/// What a run of cycles measured.
pub struct Run {
    pub ops: Vec<Op>,
    /// `(cell index, result)` of each cold solve, when kept.
    pub cold: Vec<(usize, EptasResult)>,
    /// The solver of the last cycle.
    pub solver: Solver,
}

/// Run the whole first cycle, then further operations for as long as
/// `more()` says, so every cell has a sample of every outcome. Keeps the
/// cold results only if `keep_cold`.
fn run(
    spec: &Spec,
    cfg: &EptasConfig,
    checks: &mut Checks,
    keep_cold: bool,
    mut more: impl FnMut() -> bool,
) -> Run {
    let steps = cycle(spec);
    let mut out = Run { ops: Vec::new(), cold: Vec::new(), solver: Solver::new(cfg.clone()) };
    let mut reference = Reference::new();
    for (i, &(c, planned)) in steps.iter().cycle().enumerate() {
        if i >= steps.len() && !more() {
            break;
        }
        if i % steps.len() == 0 {
            out.solver = Solver::with_cache(cfg.clone(), CACHE_CAPACITY);
        }
        let cell = &spec.cells[c];
        let inst = if planned == CacheTag::Near { &cell.near } else { &cell.inst };
        let (mut op, res) = solve_op(&out.solver, inst, cell.lower_bound, c);
        op.ref_ms = reference.time();
        let check = match planned {
            CacheTag::Miss => "cold-solve-misses",
            CacheTag::Near => "jittered-near-hits",
            CacheTag::Hit => "repeat-hits",
        };
        checks.expect(op.tag == planned, check, &cell.name);
        if let (CacheTag::Miss, Some(res)) = (planned, res) {
            let s = &res.report.stats;
            checks.expect(!spec.require_milp || s.milp_nodes > 0, "milp-nodes", &cell.name);
            checks.expect(!res.report.fell_back_to_lpt, "no-lpt-fallback", &cell.name);
            if keep_cold {
                out.cold.push((c, res));
            }
        }
        out.ops.push(op);
    }
    smooth_reference(&mut out.ops);
    out
}

/// Cycles until `seconds` have passed, checked between operations once
/// the first cycle is done: the run spans the whole window, and a cycle
/// cut short leaves some cells with one sample fewer of some outcome.
pub fn timed(spec: &Spec, cfg: &EptasConfig, seconds: f64, checks: &mut Checks) -> Vec<Op> {
    let start = Instant::now();
    run(spec, cfg, checks, false, || start.elapsed().as_secs_f64() < seconds).ops
}

/// Operations per second of one cycle at each cell's median latency per
/// outcome, latencies by `pick`: the rate the workload's mix sustains,
/// whichever part of a cycle the run ended in.
pub fn mix_rate(spec: &Spec, ops: &[Op], pick: fn(&Op) -> f64) -> f64 {
    let steps = cycle(spec);
    let cells = spec.cells.len();
    let medians: Vec<[f64; 3]> = {
        let per_tag = |tag| by_cell(ops, cells, tag, pick);
        let (m, n, h) = (per_tag(CacheTag::Miss), per_tag(CacheTag::Near), per_tag(CacheTag::Hit));
        (0..cells).map(|c| [median(&m[c]), median(&n[c]), median(&h[c])]).collect()
    };
    let ms: f64 = steps
        .iter()
        .map(|&(c, tag)| match tag {
            CacheTag::Miss => medians[c][0],
            CacheTag::Near => medians[c][1],
            CacheTag::Hit => medians[c][2],
        })
        .sum();
    steps.len() as f64 / (ms / 1e3)
}

/// The traced run's in-process part.
pub struct Traced {
    pub untraced_ops: Vec<Op>,
    pub untraced_cold_s: f64,
    pub cycle: Run,
    pub attribution: Attribution,
    pub trace: String,
}

/// An untraced cold pass over the cells, one recorded cycle, and a
/// stage-by-stage replay of the chosen guess of each of its cold solves,
/// which is what the span and counter metrics attribute.
pub fn traced(spec: &Spec, cfg: &EptasConfig, checks: &mut Checks) -> Traced {
    let (cells, plain) = (&spec.cells, Solver::new(cfg.clone()));
    let t = Instant::now();
    let untraced_ops: Vec<Op> = cells
        .iter()
        .enumerate()
        .map(|(c, cell)| solve_op(&plain, &cell.inst, cell.lower_bound, c).0)
        .collect();
    let untraced_cold_s = t.elapsed().as_secs_f64();

    let rec = Recorder::new();
    let cycle = {
        let _obs = rec.install("bench");
        run(spec, cfg, checks, true, || false)
    };
    let mut attribution = Attribution::default();
    for (c, res) in &cycle.cold {
        attribution.add(res);
        if let Some(profile) = &res.report.profile {
            attribution.profile.merge(profile);
        }
        let cell = &cells[*c];
        match res.report.chosen_guess {
            Some(guess) => match stage_replay(cfg, &cell.inst, guess, cell.lower_bound) {
                Ok(stage) => attribution.stages.push(stage),
                Err(e) => checks.fail("stage-replay", &format!("{}: {e}", cell.name)),
            },
            None => checks.fail("stage-replay", &format!("{}: no chosen guess", cell.name)),
        }
    }
    let trace = rec.chrome_trace();
    Traced { untraced_ops, untraced_cold_s, cycle, attribution, trace }
}
