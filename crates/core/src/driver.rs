//! The top-level EPTAS driver: dual-approximation binary search around
//! the per-guess pipeline.
//!
//! The binary-search framework (paper §2, "with a binary search framework
//! we may assume that we know the height of an optimal makespan") walks a
//! geometric grid of makespan guesses between a certified lower bound and
//! the conflict-aware-LPT upper bound. Each guess runs the full pipeline;
//! an infeasibility proof moves the search up, success moves it down. The
//! returned schedule is always feasible: a final safety net (counted in
//! the report, zero on the paper path) would repair any residual
//! conflict.
//!
//! The driver is session-aware: `solve_session_inner` optionally takes
//! a [`SolverState`] captured by a previous run on the same rounded
//! instance shape and *replays* it — the cached winning guess is retried
//! first with the cached pattern solution, and only on a seed mismatch
//! does the full binary search run cold. [`crate::Solver`] owns the state
//! cache and is the only caller.

use crate::assign_large::{assign_large, WorkState};
use crate::classify::classify;
use crate::config::EptasConfig;
use crate::medium_flow::reinsert_medium;
use crate::milp_model::{PatternSolution, PatternSolve};
use crate::par::CancelToken;
use crate::pricing::Enrichment;
use crate::priority::select_priority;
use crate::report::{EptasReport, GuessFailure, GuessStats, Stats};
use crate::rounding::scale_and_round;
use crate::small::{place_nonpriority_smalls, place_priority_smalls, repair_priority_conflicts};
use crate::solver::SolverState;
use crate::swap_repair::repair_conflicts;
use crate::transform::transform;
use crate::undo::undo_transform;
use bagsched_types::lpt::{conflict_aware_lpt, lpt_order};
use bagsched_types::{
    lowerbound::lower_bounds, obs, validate_instance, Instance, InstanceError, JobId, MachineId,
    Schedule,
};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why the EPTAS refused to run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EptasError {
    /// The instance admits no feasible schedule.
    Infeasible(InstanceError),
}

impl std::fmt::Display for EptasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EptasError::Infeasible(e) => write!(f, "infeasible instance: {e}"),
        }
    }
}

impl std::error::Error for EptasError {}

/// Result of a successful EPTAS run.
#[derive(Debug, Clone)]
pub struct EptasResult {
    /// A feasible schedule for the input instance.
    pub schedule: Schedule,
    /// Its makespan (under the original, unrounded sizes).
    pub makespan: f64,
    /// Diagnostics (guesses, phases, swap counts, fallbacks).
    pub report: EptasReport,
}

/// The driver behind [`crate::Solver`]. Returns the result plus, when the
/// pipeline (not an LPT shortcut/fallback) produced the schedule, a
/// [`SolverState`] that replays this solve on the next structurally
/// identical request.
///
/// `hint` seeds the binary search's *first* probe with a guess value
/// (the similarity cache tier passes a near-neighbour's chosen guess):
/// the nearest grid point replaces the first midpoint, and every later
/// probe bisects as usual, so the search stays correct for any hint —
/// a good one just lands near the answer immediately.
pub(crate) fn solve_session_inner(
    cfg: &EptasConfig,
    inst: &Instance,
    replay: Option<&SolverState>,
    hint: Option<f64>,
) -> Result<(EptasResult, Option<SolverState>), EptasError> {
    let start = Instant::now();
    validate_instance(inst).map_err(EptasError::Infeasible)?;
    let mut report = EptasReport::default();
    // When the caller installed an `obs::Recorder`, attach the phase
    // profile for exactly this solve to the report (the cursor scopes
    // out anything the recorder saw before us).
    let obs_session = obs::handle().map(|h| {
        let cursor = h.cursor();
        (h, cursor)
    });

    if inst.num_jobs() == 0 {
        report.elapsed = start.elapsed();
        let result = EptasResult {
            schedule: Schedule::unassigned(0, inst.num_machines().max(1)),
            makespan: 0.0,
            report,
        };
        return Ok((result, None));
    }

    let lb = lower_bounds(inst).combined();

    // A machine per job: the k-th job in LPT order goes on machine k.
    // That is the schedule `conflict_aware_lpt` builds for such an
    // instance, and it is optimal, since its makespan (the largest job)
    // is a lower bound. Built here in O(n) space, without the
    // per-machine tables that a request naming billions of machines
    // could not allocate.
    if inst.num_machines() >= inst.num_jobs() {
        let mut schedule = Schedule::unassigned(inst.num_jobs(), inst.num_machines());
        for (k, j) in lpt_order(inst).into_iter().enumerate() {
            schedule.assign(j, MachineId(k as u32));
        }
        let makespan = inst.jobs().iter().map(|j| j.size).fold(0.0, f64::max);
        report.lower_bound = lb;
        report.lpt_upper_bound = makespan;
        report.chosen_guess = Some(makespan);
        report.elapsed = start.elapsed();
        return Ok((EptasResult { schedule, makespan, report }, None));
    }

    let ub_sched = conflict_aware_lpt(inst);
    let ub = ub_sched.makespan(inst);
    report.lower_bound = lb;
    report.lpt_upper_bound = ub;

    // LPT already optimal (or within rounding): done. No pipeline ran, so
    // there is nothing to cache.
    if ub <= lb * (1.0 + 1e-9) {
        report.chosen_guess = Some(ub);
        report.elapsed = start.elapsed();
        let result = EptasResult { schedule: ub_sched, makespan: ub, report };
        return Ok((result, None));
    }

    // The cancellation root for this solve. With a portfolio deadline
    // configured it trips on the wall clock and every phase boundary /
    // B&B node polls it; without one it never trips and the checks are
    // a dead atomic load. Speculative windows hang their per-node child
    // tokens off it either way.
    let deadline = cfg.portfolio_deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let root_token = match deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };

    // Replay attempt: retry the cached winning guess with the cached
    // pattern solution before paying for the binary search.
    // A stale or mismatched seed fails fast (`SeedMismatch`) and the
    // cold search below takes over — a cache collision can cost time,
    // never correctness.
    let mut best: Option<(Schedule, f64, GuessStats, f64, PatternSolution)> = None;
    if let Some(state) = replay {
        report.guesses_tried += 1;
        match try_guess(
            cfg,
            inst,
            state.chosen_guess,
            &mut report.stats,
            Some(&state.seed),
            Some(&root_token),
        ) {
            Ok((sched, gstats, seed)) => {
                let ms = sched.makespan(inst);
                report.replayed = true;
                best = Some((sched, ms, gstats, state.chosen_guess, seed));
            }
            Err(fail) => report.failures.push((state.chosen_guess, fail)),
        }
    }

    if best.is_none() {
        // Geometric guess grid with ratio `1 + eps * GRID_FACTOR`.
        const GRID_FACTOR: f64 = 0.5;
        let eps = cfg.epsilon;
        let step = 1.0 + eps * GRID_FACTOR;
        let mut grid = Vec::new();
        let mut t = lb;
        while t < ub * (1.0 - 1e-12) {
            grid.push(t);
            t *= step;
        }
        grid.push(ub);

        // Binary search the smallest guess that succeeds, one window of
        // `speculative_guesses` nodes at a time: likely midpoints race
        // ahead of the verdict, and the commit order below guarantees the
        // chosen guess is exactly the one a plain bisection would pick.
        // A one-node window is the plain bisection.
        let (mut lo, mut hi) = (0usize, grid.len() - 1);
        // Nearest grid index to the similarity-cache hint, if any. Only
        // the first probe is overridden; bisection is correct from any
        // starting midpoint inside [lo, hi].
        let mut first_mid = hint.map(|h| {
            let up = grid.partition_point(|&g| g < h);
            if up == 0 {
                0
            } else if up >= grid.len() {
                grid.len() - 1
            } else if (h - grid[up - 1]).abs() <= (grid[up] - h).abs() {
                up - 1
            } else {
                up
            }
        });
        let cap = cfg.speculative_guesses.max(1);
        'windows: while lo <= hi {
            let window = build_window(lo, hi, cap, &root_token, first_mid.take());
            // The three speculation counters are *structural*: they
            // depend only on the window shapes and the verdict path,
            // never on which thread finished first, so reports stay
            // byte-identical at any thread count. Without speculation
            // nothing is launched ahead of its verdict.
            if cap > 1 {
                report.stats.speculative_guesses_launched += window.len() as u64;
            }
            let committed = execute_window(cfg.solver_threads, &window, |node| {
                let mut nstats = Stats::default();
                let g = grid[node.mid];
                let res = try_guess(cfg, inst, g, &mut nstats, None, Some(&node.token));
                (res, nstats)
            });
            report.stats.speculative_wins += committed.len() as u64 - 1;
            report.stats.guesses_cancelled += (window.len() - committed.len()) as u64;
            let mut stop = false;
            for (idx, res, nstats) in committed {
                // Merging the private per-node stats in commit order
                // reproduces the sequential totals: `try_guess` only
                // ever adds deltas, and `Stats::add` is fieldwise.
                report.stats.add(&nstats);
                report.guesses_tried += 1;
                let node = &window[idx];
                match res {
                    Ok((sched, gstats, seed)) => {
                        let ms = sched.makespan(inst);
                        let better = best.as_ref().is_none_or(|&(_, bms, _, _, _)| ms < bms);
                        if better {
                            best = Some((sched, ms, gstats, grid[node.mid], seed));
                        }
                        if node.mid == 0 {
                            stop = true;
                        } else {
                            lo = node.lo;
                            hi = node.mid - 1;
                        }
                    }
                    Err(GuessFailure::Cancelled) => {
                        // The portfolio deadline fired mid-guess. A
                        // cancelled guess is inconclusive — raising `lo`
                        // on it could certify a wrong "smallest feasible
                        // guess" — so the search stops here and the LPT
                        // arm below answers.
                        report.failures.push((grid[node.mid], GuessFailure::Cancelled));
                        stop = true;
                    }
                    Err(fail) => {
                        report.failures.push((grid[node.mid], fail));
                        lo = node.mid + 1;
                        hi = node.hi;
                    }
                }
            }
            if stop {
                break 'windows;
            }
        }
    }

    let (mut schedule, mut makespan, state) = match best {
        Some((sched, ms, gstats, guess, seed)) => {
            report.chosen_guess = Some(guess);
            report.last_success = Some(gstats);
            (sched, ms, Some(SolverState { chosen_guess: guess, seed }))
        }
        None => {
            report.fell_back_to_lpt = true;
            report.stats.lpt_fallbacks += 1;
            (ub_sched.clone(), ub, None)
        }
    };

    // The guess pipeline can only beat LPT or match it; keep whichever
    // is better under the true sizes. The state stays valid either way —
    // it describes the pipeline solve, not which schedule won.
    let lpt_won = ub < makespan;
    if lpt_won {
        schedule = ub_sched;
        makespan = ub;
    }
    // Portfolio accounting: the deadline fired and the always-running
    // bag-aware-LPT arm supplied the answer.
    if deadline.is_some() && root_token.is_cancelled() && (lpt_won || report.fell_back_to_lpt) {
        report.stats.portfolio_winner += 1;
    }

    // Safety net: the paper path yields a feasible schedule; repair
    // loudly if a phase misbehaved.
    report.safety_net_moves = safety_net(inst, &mut schedule);
    if report.safety_net_moves > 0 {
        makespan = schedule.makespan(inst);
    }
    if let Some((h, cursor)) = &obs_session {
        report.profile = Some(h.profile_since(cursor));
    }
    report.elapsed = start.elapsed();
    debug_assert!(schedule.is_feasible(inst));
    Ok((EptasResult { schedule, makespan, report }, state))
}

/// The per-guess result type shared by the inline walk and the
/// speculative workers.
type GuessOutcome = Result<(Schedule, GuessStats, PatternSolution), GuessFailure>;

/// One node of a speculative prediction window: a `(lo, hi)` search
/// range with its midpoint guess and the two possible continuations.
struct SpecNode {
    lo: usize,
    hi: usize,
    mid: usize,
    /// Continuation when this guess succeeds (search moves down).
    success: Option<usize>,
    /// Continuation when this guess fails (search moves up).
    failure: Option<usize>,
    /// Child of the tree-parent's token, so cancelling a mispredicted
    /// branch cancels its whole subtree.
    token: CancelToken,
}

/// Build the speculative prediction tree over the binary-search range
/// `[lo, hi]`: each node's children are exactly the ranges a plain
/// bisection would visit next on success / failure, expanded
/// breadth-first (success side first) up to `cap` nodes. The tree shape
/// is a pure function of `(lo, hi, cap, root_mid)` — no timing enters
/// it.
///
/// `root_mid` overrides the root node's probe point (the similarity
/// cache's hinted first guess); children still bisect their own ranges,
/// so the tree stays a pure function of its arguments and the
/// structural speculation counters stay deterministic.
fn build_window(
    lo: usize,
    hi: usize,
    cap: usize,
    root: &CancelToken,
    root_mid: Option<usize>,
) -> Vec<SpecNode> {
    let mut nodes = vec![SpecNode {
        lo,
        hi,
        mid: root_mid.filter(|&m| m >= lo && m <= hi).unwrap_or((lo + hi) / 2),
        success: None,
        failure: None,
        token: root.child(),
    }];
    let mut queue = VecDeque::from([0usize]);
    while let Some(i) = queue.pop_front() {
        let (nlo, nhi, nmid) = (nodes[i].lo, nodes[i].hi, nodes[i].mid);
        // Success continuation: `hi = mid - 1` (the search stops at
        // `mid == 0` instead, and exits when the range empties).
        if nmid > 0 && nlo < nmid && nodes.len() < cap {
            let token = nodes[i].token.child();
            nodes[i].success = Some(nodes.len());
            queue.push_back(nodes.len());
            let (clo, chi) = (nlo, nmid - 1);
            nodes.push(SpecNode {
                lo: clo,
                hi: chi,
                mid: (clo + chi) / 2,
                success: None,
                failure: None,
                token,
            });
        }
        // Failure continuation: `lo = mid + 1`.
        if nmid < nhi && nodes.len() < cap {
            let token = nodes[i].token.child();
            nodes[i].failure = Some(nodes.len());
            queue.push_back(nodes.len());
            let (clo, chi) = (nmid + 1, nhi);
            nodes.push(SpecNode {
                lo: clo,
                hi: chi,
                mid: (clo + chi) / 2,
                success: None,
                failure: None,
                token,
            });
        }
    }
    nodes
}

/// Walk the verdict path through a window, committing nodes in grid
/// order. `obtain` produces node `i`'s outcome (inline, or by waiting on
/// a racing worker); the walk cancels the mispredicted subtree the
/// moment each verdict lands. The returned commit sequence is exactly
/// the node sequence a plain bisection would have executed.
fn walk_committed(
    window: &[SpecNode],
    mut obtain: impl FnMut(usize) -> (GuessOutcome, Stats),
) -> Vec<(usize, GuessOutcome, Stats)> {
    let mut committed = Vec::new();
    let mut cur = 0usize;
    loop {
        let (res, nstats) = obtain(cur);
        let node = &window[cur];
        let next = match &res {
            Ok(_) => {
                if let Some(f) = node.failure {
                    window[f].token.cancel();
                }
                if node.mid == 0 {
                    None
                } else {
                    node.success
                }
            }
            Err(GuessFailure::Cancelled) => {
                // Deadline: the whole search stops; nothing to predict.
                if let Some(s) = node.success {
                    window[s].token.cancel();
                }
                if let Some(f) = node.failure {
                    window[f].token.cancel();
                }
                None
            }
            Err(_) => {
                if let Some(s) = node.success {
                    window[s].token.cancel();
                }
                node.failure
            }
        };
        committed.push((cur, res, nstats));
        match next {
            Some(n) => cur = n,
            None => break,
        }
    }
    committed
}

/// Execute one speculative window, solving each node with `guess`: with
/// one thread only the verdict-path nodes run (speculation costs nothing,
/// counters stay structural); with more, workers claim nodes in
/// breadth-first order and race ahead while the calling thread commits
/// along the actual path. A worker whose guess panics stores the panic in
/// the node's slot; when the walk reaches that node, it cancels the
/// window and resumes the panic on the calling thread, as the one-thread
/// walk would have raised it.
fn execute_window(
    threads: usize,
    window: &[SpecNode],
    guess: impl Fn(&SpecNode) -> (GuessOutcome, Stats) + Sync,
) -> Vec<(usize, GuessOutcome, Stats)> {
    let threads = threads.max(1).min(window.len());
    if threads <= 1 {
        return walk_committed(window, |i| guess(&window[i]));
    }
    let claimed = AtomicUsize::new(0);
    // Each slot holds its node's outcome, or the panic its guess raised.
    let slots: Vec<Mutex<Option<_>>> = (0..window.len()).map(|_| Mutex::new(None)).collect();
    let gate = (Mutex::new(()), Condvar::new());
    // Each speculative node records its spans under a private region:
    // after the commit walk, losers' regions are discarded so cancelled
    // work is visible in the trace but never in the profile (keeping
    // profile counts byte-identical to the sequential walk).
    let obs_handle = obs::handle();
    let regions: Vec<u64> = match &obs_handle {
        Some(h) => window.iter().map(|_| h.new_region()).collect(),
        None => Vec::new(),
    };
    std::thread::scope(|scope| {
        let (claimed, slots, gate, regions, guess) = (&claimed, &slots, &gate, &regions, &guess);
        for w in 0..threads {
            let worker_handle = obs_handle.clone();
            scope.spawn(move || {
                let _obs = worker_handle.map(|h| h.install(&format!("spec-{w}")));
                loop {
                    let i = claimed.fetch_add(1, Ordering::Relaxed);
                    if i >= window.len() {
                        break;
                    }
                    if !regions.is_empty() {
                        obs::set_region(regions[i]);
                    }
                    let node = &window[i];
                    // A node cancelled before it started still fills its
                    // slot: path nodes are never cancelled except by the
                    // portfolio deadline, where `Cancelled` is the answer.
                    let out = if node.token.is_cancelled() {
                        Ok((Err(GuessFailure::Cancelled), Stats::default()))
                    } else {
                        std::panic::catch_unwind(AssertUnwindSafe(|| guess(node)))
                    };
                    *slots[i].lock().unwrap() = Some(out);
                    let _g = gate.0.lock().unwrap();
                    gate.1.notify_all();
                }
            });
        }
        let committed = walk_committed(window, |i| loop {
            // Taken in its own statement, so the slot's lock is released
            // before a stored panic resumes.
            let out = slots[i].lock().unwrap().take();
            match out {
                Some(Ok(out)) => return out,
                Some(Err(panic)) => {
                    for node in window {
                        node.token.cancel();
                    }
                    std::panic::resume_unwind(panic);
                }
                None => {}
            }
            let g = gate.0.lock().unwrap();
            // Timed wait: robust against the store landing between the
            // slot check and the wait.
            drop(gate.1.wait_timeout(g, Duration::from_millis(5)).unwrap());
        });
        if let Some(h) = &obs_handle {
            let mut kept = vec![false; window.len()];
            for &(i, _, _) in &committed {
                kept[i] = true;
            }
            for (i, &r) in regions.iter().enumerate() {
                if !kept[i] {
                    h.discard_region(r);
                }
            }
        }
        // The path is committed; stop whatever speculation is still in
        // flight so the scope join is prompt.
        for node in window {
            node.token.cancel();
        }
        committed
    })
}

/// Run the full pipeline for one makespan guess. Work counters are
/// accumulated into `stats` incrementally, phase by phase, so the cost
/// of guesses that *fail* midway still shows up in the report. When
/// `replay` carries a seed from a previous solve of the same shape, the
/// pattern phase skips pricing and the MILP and hands the
/// cached solution to placement; the seed for the *next* replay is
/// always returned alongside the schedule. A tripped `cancel` token aborts at
/// the next phase boundary (or inside the MILP / pricing loop) with
/// [`GuessFailure::Cancelled`].
///
/// Every pricing master stops its enrichment at the round cap, continues
/// phase B warm and seeds the restricted MILP's root with its final
/// basis. A guess that then fails for any reason but a cancellation,
/// after the cap cut a narrow master short, runs once more on the retry
/// path: narrow masters enriched to convergence, phase B and the root
/// solved cold ([`Enrichment`]); the second attempt's verdict stands.
fn try_guess(
    cfg: &EptasConfig,
    inst: &Instance,
    t0: f64,
    stats: &mut Stats,
    replay: Option<&PatternSolution>,
    cancel: Option<&CancelToken>,
) -> Result<(Schedule, GuessStats, PatternSolution), GuessFailure> {
    let _guess_span = obs::Span::enter("guess");
    let mut enrich = Enrichment::default();
    match run_guess(cfg, inst, t0, stats, replay, cancel, &mut enrich) {
        Err(fail) if fail != GuessFailure::Cancelled && enrich.narrow_cut => {
            let mut retry = Enrichment { retry: true, narrow_cut: false };
            run_guess(cfg, inst, t0, stats, replay, cancel, &mut retry)
        }
        res => res,
    }
}

/// One attempt of [`try_guess`], with phase-B enrichment as `enrich`
/// asks.
fn run_guess(
    cfg: &EptasConfig,
    inst: &Instance,
    t0: f64,
    stats: &mut Stats,
    replay: Option<&PatternSolution>,
    cancel: Option<&CancelToken>,
    enrich: &mut Enrichment,
) -> Result<(Schedule, GuessStats, PatternSolution), GuessFailure> {
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
    let (rounded, trans) = {
        let _span = obs::Span::enter("transform");
        let rounded = scale_and_round(&sizes, t0, cfg.epsilon).ok_or(GuessFailure::JobTooLarge)?;
        let class = classify(&rounded, inst.num_machines());
        let priority = select_priority(inst, &rounded, &class, cfg);
        let trans = transform(inst, &rounded, &class, &priority);
        (rounded, trans)
    };
    if cancelled() {
        return Err(GuessFailure::Cancelled);
    }

    // Pattern generation (column-generation pricing over the partition
    // ladder) and the MILP solve; all pattern, pricing and LP work
    // counters are recorded inside.
    let mut solve = PatternSolve::new(&trans, cfg).enrichment(enrich);
    if let Some(seed) = replay {
        solve = solve.replay(seed);
    }
    if let Some(token) = cancel {
        solve = solve.cancel_token(token);
    }
    let sol = {
        let _span = obs::Span::enter("patterns");
        solve.run(stats)?
    };
    if cancelled() {
        return Err(GuessFailure::Cancelled);
    }
    let (ps, out) = (&sol.patterns, &sol.outcome);

    let mut state = WorkState::new(trans.tinst.num_jobs(), inst.num_machines());
    let (la, lemma7_swaps) = {
        let _span = obs::Span::enter("place.large");
        let la = assign_large(&trans, ps, &out.x, &mut state)?;
        // repair_conflicts records its swaps into `stats` itself, so
        // work done before a SwapRepair abort is not lost.
        let lemma7_swaps = repair_conflicts(&trans, &mut state, &la.conflicts, stats)?;
        (la, lemma7_swaps)
    };

    let small_stats = {
        let _span = obs::Span::enter("place.small");
        place_priority_smalls(&trans, ps, out, &la.machine_pattern, &mut state);
        place_nonpriority_smalls(&trans, cfg.epsilon, &mut state);
        repair_priority_conflicts(&trans, &la.origin, &mut state)
    };
    stats.swap_repair_rounds += small_stats.lemma11_moves as u64;

    if cancelled() {
        return Err(GuessFailure::Cancelled);
    }
    let mediums = {
        let _span = obs::Span::enter("place.medium_flow");
        reinsert_medium(inst, &trans, &rounded, &mut state, stats)?
    };
    stats.mediums_reinserted += mediums.len() as u64;
    let (schedule, lemma4_swaps) = {
        let _span = obs::Span::enter("place.undo");
        undo_transform(inst, &trans, &state, &mediums)?
    };
    stats.swap_repair_rounds += lemma4_swaps as u64;

    let gstats = GuessStats {
        patterns: ps.patterns.len(),
        symbols: ps.symbols.len(),
        priority_bags: trans.is_priority_tbag.iter().filter(|&&p| p).count(),
        milp_nodes: out.nodes,
        lp_iterations: out.lp_iterations,
        lemma7_swaps,
        lemma11_moves: small_stats.lemma11_moves,
        lemma4_swaps,
        medium_reinserted: mediums.len(),
        filler_jobs: trans.filler_for.iter().filter(|f| f.is_some()).count(),
    };
    Ok((schedule, gstats, sol))
}

/// Move conflicting jobs to the least-loaded conflict-free machine until
/// the schedule is feasible. Returns the number of moves.
fn safety_net(inst: &Instance, sched: &mut Schedule) -> usize {
    let mut moves = 0usize;
    loop {
        let conflicts = sched.conflicts(inst);
        if conflicts.is_empty() {
            return moves;
        }
        let loads = sched.loads(inst);
        for (_, job) in conflicts {
            let bag = inst.bag_of(job);
            // Recompute occupancy lazily; correctness over speed — this
            // path is cold by construction.
            let mut occupied = vec![false; inst.num_machines()];
            for (other, &mid) in sched.assignment().iter().enumerate() {
                if other != job.idx() && inst.bag_of(JobId(other as u32)) == bag {
                    occupied[mid.idx()] = true;
                }
            }
            let target = (0..inst.num_machines())
                .filter(|&i| !occupied[i])
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
                .expect("validated instance: |B| <= m");
            sched.assign(job, MachineId(target as u32));
            moves += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use bagsched_types::gen;
    use bagsched_types::validate_schedule;

    #[test]
    fn empty_instance() {
        let inst = bagsched_types::InstanceBuilder::new(3).build();
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn infeasible_instance_rejected() {
        let inst = Instance::new(&[(1.0, 0), (1.0, 0)], 1);
        assert!(matches!(
            Solver::with_epsilon(0.5).solve_instance(&inst),
            Err(EptasError::Infeasible(_))
        ));
    }

    #[test]
    fn single_job() {
        let inst = Instance::new(&[(3.5, 0)], 2);
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        assert_eq!(r.makespan, 3.5);
        validate_schedule(&inst, &r.schedule).unwrap();
    }

    #[test]
    fn tiny_instance_feasible_and_bounded() {
        let inst = Instance::new(&[(0.9, 0), (0.9, 1), (0.4, 2), (0.05, 0), (0.05, 3)], 3);
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        validate_schedule(&inst, &r.schedule).unwrap();
        let lb = lower_bounds(&inst).combined();
        assert!(r.makespan >= lb - 1e-9);
        assert!(r.makespan <= lb * (1.0 + 3.0 * 0.5) + 1e-9, "makespan {}", r.makespan);
        assert_eq!(r.report.safety_net_moves, 0, "paper path must not need the net");
    }

    #[test]
    fn families_feasible_no_safety_net() {
        for family in gen::Family::ALL {
            let inst = family.generate(24, 3, 11);
            let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
            validate_schedule(&inst, &r.schedule)
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert_eq!(r.report.safety_net_moves, 0, "{}: safety net engaged", family.name());
        }
    }

    #[test]
    fn beats_or_matches_lpt() {
        for seed in 0..3 {
            let inst = gen::uniform(20, 3, 8, seed);
            let r = Solver::with_epsilon(0.4).solve_instance(&inst).unwrap();
            let lpt = conflict_aware_lpt(&inst).makespan(&inst);
            assert!(r.makespan <= lpt + 1e-9, "seed {seed}: {} > {lpt}", r.makespan);
        }
    }

    /// With a machine per job the driver answers without the LPT tables,
    /// and its answer is the schedule, makespan and report the LPT path
    /// gives such an instance.
    #[test]
    fn machine_per_job_answer_is_the_lpt_schedule() {
        for family in gen::Family::ALL {
            for extra in [0, 7] {
                let base = family.generate(24, 3, 5);
                let inst = base.with_machines(base.num_jobs() + extra);
                let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
                let lpt = conflict_aware_lpt(&inst);
                assert_eq!(r.schedule.assignment(), lpt.assignment(), "{}", family.name());
                let ms = lpt.makespan(&inst);
                assert_eq!(r.makespan.to_bits(), ms.to_bits(), "{}", family.name());
                assert_eq!(r.report.lpt_upper_bound.to_bits(), ms.to_bits());
                assert_eq!(r.report.chosen_guess, Some(ms));
                assert_eq!(r.report.lower_bound, lower_bounds(&inst).combined());
                assert!(r.report.lower_bound >= ms, "{}: not optimal", family.name());
                assert!(!r.report.fell_back_to_lpt && r.report.guesses_tried == 0);
            }
        }
    }

    /// The first hot shape of the daemon benchmark, a narrow master:
    /// capped at `ENRICH_ROUNDS`, its one guess prices 8 rounds, all of
    /// them enrichment. Pricing it to convergence takes 75 rounds and the
    /// branch-and-bound over that pool 24 nodes.
    #[test]
    fn narrow_masters_stop_at_the_enrichment_cap() {
        let inst = gen::clustered(120, 40, 40, 5, 2_000_000);
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        validate_schedule(&inst, &r.schedule).unwrap();
        assert!(!r.report.fell_back_to_lpt && r.report.stats.lpt_fallbacks == 0);
        let rounds = r.report.stats.pricing_rounds;
        assert!(rounds > 0 && rounds <= 8, "{rounds} pricing rounds");
    }

    /// With `priority_cap = 1`, at the chosen guess the first attempt
    /// cuts a narrow master short and fails the swap repair. The retry
    /// takes the slow path: narrow masters priced to convergence, phase B
    /// started cold, and a cold root. It succeeds, so the solve reports no
    /// failed guess.
    ///
    /// Cold LP solves are the `milp.simplex` spans. The first attempt
    /// solves one per master start (phase A) and, with a seeded root and
    /// a warm phase B, none in the tree. The retry solves three: phase A,
    /// phase B and the root, the root being its one node that did not
    /// start warm.
    #[test]
    fn a_guess_that_fails_on_a_capped_pool_is_retried_uncapped() {
        let inst = gen::uniform(40, 13, 13, 1);
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.priority_cap = Some(1);
        let r = Solver::new(cfg.clone()).solve_instance(&inst).unwrap();
        validate_schedule(&inst, &r.schedule).unwrap();
        assert!(r.report.failures.is_empty(), "{:?}", r.report.failures);
        assert!(!r.report.fell_back_to_lpt);
        let guess = r.report.chosen_guess.unwrap();

        let attempt = |enrich: &mut Enrichment| {
            let rec = obs::Recorder::new();
            let _obs = rec.install("test");
            let mut stats = Stats::default();
            let fail = run_guess(&cfg, &inst, guess, &mut stats, None, None, enrich).err();
            let cold = rec.profile().get("milp.simplex").map_or(0, |p| p.count);
            (fail, stats, cold)
        };
        let mut fast = Enrichment::default();
        let (fail, stats, cold) = attempt(&mut fast);
        assert_eq!(fail, Some(GuessFailure::SwapRepair));
        assert!(fast.narrow_cut, "the failed attempt cut no narrow master");
        assert_eq!(stats.node_warm_starts, stats.milp_nodes, "the seeded root solved cold");
        assert_eq!(cold, 1, "phase A is the first attempt's only cold LP");
        let mut retry = Enrichment { retry: true, narrow_cut: false };
        let (fail, stats, cold_retry) = attempt(&mut retry);
        assert_eq!(fail, None);
        assert!(!retry.narrow_cut);
        assert_eq!(stats.node_warm_starts + 1, stats.milp_nodes, "the retry's root started warm");
        assert_eq!(cold_retry, 3, "the retry solves phase A, phase B and the root cold");
    }

    #[test]
    fn fig1_gadget_near_optimal() {
        let inst = gen::fig1_gadget(3);
        let r = Solver::with_epsilon(0.4).solve_instance(&inst).unwrap();
        validate_schedule(&inst, &r.schedule).unwrap();
        // OPT = 1.0 exactly; the EPTAS must land within 1 + O(eps).
        assert!(r.makespan <= 1.0 + 3.0 * 0.4 + 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn report_carries_diagnostics() {
        let inst = gen::uniform(15, 3, 6, 2);
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        assert!(r.report.guesses_tried >= 1);
        assert!(r.report.lower_bound > 0.0);
        assert!(r.report.lpt_upper_bound >= r.report.lower_bound - 1e-9);
        assert!(!r.report.replayed, "cold solve must not claim a replay");
        if !r.report.fell_back_to_lpt {
            assert!(r.report.chosen_guess.is_some());
        }
    }

    #[test]
    fn session_replay_matches_cold_solve() {
        // Solving through an explicit session handle must reproduce the
        // cold schedule byte for byte: the replay hands the captured
        // pattern solution to placement, and every placement phase is
        // deterministic in its input.
        let inst = gen::uniform(40, 4, 12, 7);
        let solver = Solver::with_epsilon(0.5);
        let (cold, state) = solver.solve_session(&inst, None).unwrap();
        let state = state.expect("pipeline win must yield replay state");
        let (warm, state2) = solver.solve_session(&inst, Some(&state)).unwrap();
        assert!(warm.report.replayed, "seeded session must replay");
        assert!(!cold.report.replayed);
        assert_eq!(warm.schedule.assignment(), cold.schedule.assignment());
        assert_eq!(warm.makespan.to_bits(), cold.makespan.to_bits());
        assert_eq!(warm.report.guesses_tried, 1, "replay must skip the binary search");
        assert!(state2.is_some(), "replay must refresh the state");
        // The replay skips enumeration/pricing entirely.
        assert_eq!(warm.report.stats.patterns_enumerated, 0);
        assert_eq!(warm.report.stats.pricing_rounds, 0);
    }

    #[test]
    fn stats_accumulate_across_guesses() {
        // An instance the full pipeline engages on (patterns, MILP, flow,
        // repair all run): every aggregate counter must reflect real work.
        let inst = gen::uniform(40, 4, 12, 7);
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        let stats = &r.report.stats;
        for (name, value) in stats.named() {
            // The seed pool can already be LP-complete, in which case the
            // pricing loop converges without generating a single column;
            // the aggregation counters stay zero when the accepted guess
            // has no priority bags at all (everything small) — the
            // clustered test below covers them.
            // The branch-and-price trio is conditional too: dual pivots /
            // node warm starts need a node LP that actually re-optimizes
            // (a dive of all-optimal-at-parent-basis children pivots
            // zero times), and tree columns only appear when a node dive
            // was missing a column.
            // The lifecycle pair only moves when the purge threshold
            // actually fires (big degenerate masters); short solves never
            // reach a refactorization; `lpt_fallbacks` is an assertion
            // counter that must stay zero on instances the pipeline wins.
            // The cache trio belongs to `Solver` with a cache attached —
            // a plain one-shot solve never touches it.
            // The parallel-execution counters only move when pricing
            // shards, guess speculation or a portfolio deadline are
            // configured; the defaults run the classic sequential path.
            // The coarsening trio engages only past the symbol budget,
            // and `cache_near_hits` needs a solver-level cache.
            let may_be_zero = matches!(
                name,
                "columns_generated"
                    | "bag_classes"
                    | "symbols_after_aggregation"
                    | "dual_pivots"
                    | "node_warm_starts"
                    | "tree_columns_generated"
                    | "basis_refactorizations"
                    | "columns_purged"
                    | "columns_readmitted"
                    | "lpt_fallbacks"
                    | "cache_hits"
                    | "cache_misses"
                    | "cache_evictions"
                    | "pricing_shards_run"
                    | "speculative_guesses_launched"
                    | "speculative_wins"
                    | "guesses_cancelled"
                    | "portfolio_winner"
                    | "coarse_classes_formed"
                    | "repair_jobs_moved"
                    | "repair_failures"
                    | "cache_near_hits"
            );
            if may_be_zero {
                continue;
            }
            assert!(value > 0, "counter {name} stayed zero on a full-pipeline instance");
        }
        assert!(
            stats.lp_solves >= stats.milp_nodes,
            "B&B contributes one LP per node; pricing master re-solves only add"
        );
        // Per-guess stats of the winning guess are a lower bound on the
        // aggregate (failed guesses only add).
        if let Some(s) = &r.report.last_success {
            assert!(stats.patterns_enumerated >= s.patterns as u64);
            assert!(stats.simplex_pivots >= s.lp_iterations as u64);
        }
    }

    #[test]
    fn lp_solves_diverge_from_milp_nodes_on_priced_instances() {
        // Every pricing round re-solves the master LP without exploring a
        // branch-and-bound node, so on an instance where the pricing loop
        // runs at all the two counters must separate. (Before column
        // generation the two were always equal — one LP relaxation per
        // explored node.)
        let inst = gen::uniform(40, 4, 12, 7);
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        let stats = &r.report.stats;
        assert!(stats.pricing_rounds > 0, "instance was expected to exercise pricing");
        assert!(
            stats.lp_solves > stats.milp_nodes,
            "lp_solves ({}) must exceed milp_nodes ({}) once master re-solves are counted",
            stats.lp_solves,
            stats.milp_nodes
        );
    }

    #[test]
    fn aggregation_counters_populate_on_clustered_instances() {
        // Tight clustered instances have priority bags at every real
        // guess, so the class/aggregation counters must be live.
        let inst = gen::clustered(60, 20, 20, 5, 2);
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        let stats = &r.report.stats;
        assert!(stats.bag_classes > 0, "no bag classes counted");
        assert!(stats.symbols_after_aggregation > 0, "no aggregated symbols counted");
        assert!(
            stats.bag_classes <= stats.symbols_after_aggregation,
            "a class contributes at least one symbol"
        );
    }

    #[test]
    fn speculative_search_matches_sequential() {
        // The speculative window commits verdicts in grid order, so the
        // entire solve — schedule, makespan, guess sequence, every work
        // counter — must match the plain bisection; only the three
        // structural speculation counters may differ from zero.
        let inst = gen::uniform(40, 4, 12, 7);
        let base = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.speculative_guesses = 3;
        let spec = Solver::new(cfg).solve_instance(&inst).unwrap();
        assert_eq!(spec.schedule.assignment(), base.schedule.assignment());
        assert_eq!(spec.makespan.to_bits(), base.makespan.to_bits());
        assert_eq!(spec.report.guesses_tried, base.report.guesses_tried);
        assert!(spec.report.stats.speculative_guesses_launched > 0);
        let mut masked = spec.report.stats;
        masked.speculative_guesses_launched = 0;
        masked.speculative_wins = 0;
        masked.guesses_cancelled = 0;
        assert_eq!(masked, base.report.stats);
    }

    #[test]
    fn sharded_pricing_matches_plain_at_any_thread_count() {
        // Shard count fixed, thread count varied: the merge is a pure
        // function of the shard results, so schedules and reports are
        // identical at 1 and 4 threads.
        let inst = gen::uniform(40, 4, 12, 7);
        let solve = |threads: usize| {
            let mut cfg = EptasConfig::with_epsilon(0.5);
            cfg.pricing_shards = 2;
            cfg.solver_threads = threads;
            Solver::new(cfg).solve_instance(&inst).unwrap()
        };
        let a = solve(1);
        let b = solve(4);
        assert_eq!(a.schedule.assignment(), b.schedule.assignment());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.report.stats, b.report.stats);
        assert!(a.report.stats.pricing_shards_run > 0, "sharded rounds must be counted");
    }

    #[test]
    fn portfolio_deadline_yields_lpt_schedule() {
        // A deadline that fires immediately forces every guess to cancel;
        // the LPT arm must answer with a feasible schedule and the
        // portfolio counter must record the win.
        let inst = gen::uniform(40, 4, 12, 7);
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.portfolio_deadline_ms = Some(0);
        let r = Solver::new(cfg).solve_instance(&inst).unwrap();
        validate_schedule(&inst, &r.schedule).unwrap();
        assert!(r.report.fell_back_to_lpt, "all guesses cancelled: LPT must answer");
        assert_eq!(r.report.stats.portfolio_winner, 1);
        assert!(r.report.failures.iter().any(|(_, f)| matches!(f, GuessFailure::Cancelled)));
        assert!((r.makespan - r.report.lpt_upper_bound).abs() < 1e-12);
    }

    #[test]
    fn stats_zero_on_lpt_shortcut() {
        // A single job is solved by the LPT-already-optimal shortcut; no
        // pipeline work should be counted.
        let inst = Instance::new(&[(3.5, 0)], 2);
        let r = Solver::with_epsilon(0.5).solve_instance(&inst).unwrap();
        assert_eq!(r.report.stats, Stats::default());
    }

    /// A speculative worker whose path guess panics must not leave the
    /// committing thread waiting on its slot: the window unwinds with the
    /// worker's panic, within a timeout.
    #[test]
    fn a_panicking_path_guess_unwinds_the_window() {
        let root = CancelToken::new();
        let window = build_window(0, 6, 3, &root, None);
        let path_mid = window[0].mid;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                execute_window(2, &window, |node| {
                    if node.mid == path_mid {
                        panic!("injected guess panic");
                    }
                    (Err(GuessFailure::MilpInfeasible), Stats::default())
                })
            }));
            let msg = out.err().and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            let _ = tx.send(msg);
        });
        let msg = rx.recv_timeout(Duration::from_secs(10)).expect("the window hung on the panic");
        assert_eq!(msg.as_deref(), Some("injected guess panic"));
    }
}
