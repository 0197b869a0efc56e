//! Session-oriented solver facade with cross-request state caching.
//!
//! [`Solver`] is the EPTAS entry point. It owns an [`EptasConfig`] and,
//! optionally, a bounded LRU cache of [`SolverState`] handles keyed by
//! the rounded-instance [`fingerprint`]: the winning makespan guess plus
//! the pattern solution that won it. A later request whose instance
//! rounds to the same shape *replays* that state: it validates the
//! symbol table and re-runs placement on the cached pattern solution,
//! skipping the guess search, pattern enumeration, column-generation
//! pricing and the MILP. Replay is validated structurally (bit-exact
//! guess, symbol-table equality), so a fingerprint collision degrades to
//! a cold solve instead of a wrong schedule.
//!
//! Three entry points, least to most explicit:
//!
//! * [`Solver::solve`] — wire-level: takes a [`SolveRequest`] (its own
//!   epsilon per request), never panics, answers with a
//!   [`SolveResponse`].
//! * [`Solver::solve_instance`] — one-shot [`Instance`] solve through
//!   the cache.
//! * [`Solver::solve_session`] — caller-held state: pass the
//!   [`SolverState`] from the previous solve, get the refreshed one
//!   back. Bypasses the shared cache entirely.

use crate::config::EptasConfig;
use crate::driver::{solve_session_inner, EptasError, EptasResult};
use crate::milp_model::PatternSolution;
use bagsched_types::{
    coarse_fingerprint, fingerprint, CacheTag, Instance, SolveRequest, SolveResponse,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Opaque per-shape solver state: everything needed to replay a solve of
/// a structurally identical instance without re-searching.
#[derive(Debug, Clone)]
pub struct SolverState {
    /// The winning makespan guess of the captured solve.
    pub(crate) chosen_guess: f64,
    /// The pattern-phase solution of that guess, its replay seed.
    pub(crate) seed: PatternSolution,
}

impl SolverState {
    /// The makespan guess the replay retries first.
    pub fn chosen_guess(&self) -> f64 {
        self.chosen_guess
    }
}

/// Snapshot of the solver-state cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests answered by replaying cached state.
    pub hits: u64,
    /// Requests that solved cold (no usable cached state).
    pub misses: u64,
    /// States evicted to respect the capacity bound.
    pub evictions: u64,
    /// Requests that found the same shape already solving cold and
    /// waited for that leader instead of duplicating the solve.
    pub coalesced_waits: u64,
    /// Exact misses rescued by the similarity tier: a
    /// [`coarse_fingerprint`] neighbour's chosen guess seeded the cold
    /// search's first probe. These solves still count as misses — the
    /// tier saves search steps, not the solve.
    pub near_hits: u64,
}

/// Tick-stamped LRU map. Capacities are small (a server keeps at most a
/// few hundred states), so min-scan eviction beats a linked structure.
struct Lru {
    cap: usize,
    tick: u64,
    map: HashMap<u64, (SolverState, u64)>,
    /// Similarity tier: coarse fingerprint → (chosen guess, tick). A
    /// full state would replay wrongly against a merely *similar*
    /// instance, so only the winning guess is kept — enough to seed the
    /// binary search's first probe. Same capacity bound, refreshed on
    /// every publish.
    near: HashMap<u64, (f64, u64)>,
}

impl Lru {
    fn new(cap: usize) -> Self {
        Lru { cap: cap.max(1), tick: 0, map: HashMap::new(), near: HashMap::new() }
    }

    fn get(&mut self, key: u64) -> Option<SolverState> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|entry| {
            entry.1 = tick;
            entry.0.clone()
        })
    }

    /// Insert (or refresh) `key`; returns `true` if another entry was
    /// evicted to make room.
    fn put(&mut self, key: u64, state: SolverState) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(oldest) = self.map.iter().min_by_key(|(_, (_, t))| *t).map(|(&k, _)| k) {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(key, (state, self.tick));
        evicted
    }

    /// The similarity tier's guess for a coarse key, if any.
    fn get_near(&mut self, key: u64) -> Option<f64> {
        self.tick += 1;
        let tick = self.tick;
        self.near.get_mut(&key).map(|entry| {
            entry.1 = tick;
            entry.0
        })
    }

    /// Record (or refresh) the winning guess under a coarse key. Shares
    /// the exact map's capacity bound but evicts silently — near
    /// entries are hints, not state, so their churn is not surfaced in
    /// the eviction counter.
    fn put_near(&mut self, key: u64, guess: f64) {
        self.tick += 1;
        if !self.near.contains_key(&key) && self.near.len() >= self.cap {
            if let Some(oldest) = self.near.iter().min_by_key(|(_, (_, t))| *t).map(|(&k, _)| k) {
                self.near.remove(&oldest);
            }
        }
        self.near.insert(key, (guess, self.tick));
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.near.clear();
    }
}

/// Lock the state cache. A solve that panicked while holding the lock
/// may have left the maps half-updated, so a poisoned cache is emptied
/// and its poison cleared rather than trusted: the next requests solve
/// cold and refill it.
fn lock_cache(cache: &Mutex<Lru>) -> MutexGuard<'_, Lru> {
    cache.lock().unwrap_or_else(|poisoned| {
        let mut lru = poisoned.into_inner();
        lru.clear();
        cache.clear_poison();
        lru
    })
}

/// The session-oriented EPTAS solver. Cheap to share behind an `Arc`:
/// all methods take `&self`, the cache is internally synchronized, and
/// counters are atomics.
pub struct Solver {
    cfg: EptasConfig,
    cache: Option<Mutex<Lru>>,
    /// Shapes currently solving cold, for request coalescing: followers
    /// of an in-flight leader wait on the gate instead of duplicating
    /// the solve, then replay the state the leader published.
    inflight: Mutex<HashMap<u64, Gate>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced_waits: AtomicU64,
    near_hits: AtomicU64,
}

/// A leader-completion gate: `true` once the leading solve finished
/// (successfully or not) and removed itself from the in-flight map.
type Gate = Arc<(Mutex<bool>, Condvar)>;

/// The coalescing leader's hold on its gate. Dropping it removes the
/// gate from the in-flight map, opens it and wakes every follower, on
/// the normal path and while a panicking solve unwinds alike, so no
/// follower waits on a leader that is gone. Both locks are taken
/// poison-tolerant: a release that panicked during an unwind would
/// abort the process.
struct GateRelease<'a> {
    inflight: &'a Mutex<HashMap<u64, Gate>>,
    key: u64,
}

impl Drop for GateRelease<'_> {
    fn drop(&mut self) {
        let gate = lock(self.inflight).remove(&self.key);
        if let Some(gate) = gate {
            *lock(&gate.0) = true;
            gate.1.notify_all();
        }
    }
}

/// Take a lock whose data stays consistent even if a holder panicked
/// (single map operations, a flag): poison is ignored.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Solver {
    /// A solver without a state cache: every solve is cold.
    pub fn new(cfg: EptasConfig) -> Self {
        Solver {
            cfg,
            cache: None,
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
            near_hits: AtomicU64::new(0),
        }
    }

    /// Shorthand: default configuration at `eps`, no cache.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Solver::new(EptasConfig::with_epsilon(epsilon))
    }

    /// A solver with a solver-state cache holding up to `capacity`
    /// states (at least one).
    pub fn with_cache(cfg: EptasConfig, capacity: usize) -> Self {
        Solver { cache: Some(Mutex::new(Lru::new(capacity))), ..Solver::new(cfg) }
    }

    /// The configuration in use (per-request epsilon overrides it on the
    /// wire path).
    pub fn config(&self) -> &EptasConfig {
        &self.cfg
    }

    /// Lifetime totals of the state cache. All zero when the solver was
    /// built without a cache.
    pub fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
            near_hits: self.near_hits.load(Ordering::Relaxed),
        }
    }

    /// Number of states currently cached.
    pub fn cached_states(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| lock_cache(c).len())
    }

    /// One-shot solve through the shared cache. With a cache attached,
    /// the report's `cache_hits`/`cache_misses`/`cache_evictions`
    /// counters and the `replayed` flag record what the cache did for
    /// this request.
    pub fn solve_instance(&self, inst: &Instance) -> Result<EptasResult, EptasError> {
        self.solve_cached(&self.cfg, inst)
    }

    /// Explicit session solve: replays `state` when given, returns the
    /// refreshed state for the caller to hold. Does not touch the shared
    /// cache or its counters.
    pub fn solve_session(
        &self,
        inst: &Instance,
        state: Option<&SolverState>,
    ) -> Result<(EptasResult, Option<SolverState>), EptasError> {
        solve_session_inner(&self.cfg, inst, state, None)
    }

    /// Wire-level entry point: solve a [`SolveRequest`] (with its own
    /// epsilon) and answer with a [`SolveResponse`]. Never panics on
    /// hostile input — an out-of-range epsilon or infeasible instance
    /// comes back as an error response.
    pub fn solve(&self, req: &SolveRequest) -> SolveResponse {
        let start = Instant::now();
        let error = |msg: String| SolveResponse {
            id: req.id,
            ok: false,
            error: Some(msg),
            makespan: 0.0,
            assignment: Vec::new(),
            cache: CacheTag::Miss,
            elapsed_us: start.elapsed().as_micros() as u64,
        };
        // The wire deserializer already rejects non-finite / non-positive
        // epsilon; the config layer additionally caps it.
        if !(req.epsilon > 0.0 && req.epsilon <= 0.95) {
            return error(format!("epsilon must be in (0, 0.95], got {}", req.epsilon));
        }
        let mut cfg = if req.epsilon == self.cfg.epsilon {
            self.cfg.clone()
        } else {
            EptasConfig { epsilon: req.epsilon, ..self.cfg.clone() }
        };
        // A per-request deadline turns on the portfolio for this solve
        // only; absent, the server-wide configuration stands.
        if req.deadline_ms.is_some() {
            cfg.portfolio_deadline_ms = req.deadline_ms;
        }
        match self.solve_cached(&cfg, &req.instance) {
            Ok(res) => {
                let cache = if res.report.replayed {
                    CacheTag::Hit
                } else if res.report.stats.cache_near_hits > 0 {
                    CacheTag::Near
                } else {
                    CacheTag::Miss
                };
                SolveResponse {
                    id: req.id,
                    ok: true,
                    error: None,
                    makespan: res.makespan,
                    assignment: res.schedule.assignment().iter().map(|m| m.0).collect(),
                    cache,
                    elapsed_us: start.elapsed().as_micros() as u64,
                }
            }
            Err(e) => error(e.to_string()),
        }
    }

    fn solve_cached(&self, cfg: &EptasConfig, inst: &Instance) -> Result<EptasResult, EptasError> {
        let Some(cache) = &self.cache else {
            return solve_session_inner(cfg, inst, None, None).map(|(result, _)| result);
        };
        let key = fingerprint(inst, cfg.epsilon);
        let near_key = coarse_fingerprint(inst, cfg.epsilon);

        // Coalescing: a cache miss either elects this thread the cold
        // leader for the shape, or finds a leader already in flight and
        // waits on its gate, replaying the published state afterwards.
        // A leader that publishes nothing (LPT shortcut, error) simply
        // leaves the next waiter to elect itself — progress, never a
        // livelock.
        let mut release = None;
        let cached = loop {
            if let Some(state) = lock_cache(cache).get(key) {
                break Some(state);
            }
            let gate = match lock(&self.inflight).entry(key) {
                Entry::Occupied(e) => Some(e.get().clone()),
                Entry::Vacant(v) => {
                    v.insert(Arc::new((Mutex::new(false), Condvar::new())));
                    None
                }
            };
            match gate {
                Some(gate) => {
                    self.coalesced_waits.fetch_add(1, Ordering::Relaxed);
                    let (gate_lock, cv) = &*gate;
                    let mut done = lock(gate_lock);
                    while !*done {
                        done = cv.wait(done).unwrap_or_else(PoisonError::into_inner);
                    }
                }
                None => {
                    release = Some(GateRelease { inflight: &self.inflight, key });
                    // Double-check: a leader may have published between
                    // our cache miss and taking leadership.
                    break lock_cache(cache).get(key);
                }
            }
        };

        // Similarity tier: on an exact miss, a coarse-fingerprint
        // neighbour's winning guess seeds the cold search's first probe.
        // A hint is advisory — bisection stays correct from any starting
        // midpoint — so a stale neighbour costs probes, never
        // correctness.
        let hint = if cached.is_none() { lock_cache(cache).get_near(near_key) } else { None };
        let solved = solve_session_inner(cfg, inst, cached.as_ref(), hint);
        let outcome = solved.map(|(mut res, state)| {
            if res.report.replayed {
                self.hits.fetch_add(1, Ordering::Relaxed);
                res.report.stats.cache_hits += 1;
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                res.report.stats.cache_misses += 1;
                if hint.is_some() {
                    self.near_hits.fetch_add(1, Ordering::Relaxed);
                    res.report.stats.cache_near_hits += 1;
                }
            }
            if let Some(state) = state {
                // A miss caches a copy of its state: the solve's own
                // vectors keep the slack they grew with, which every
                // resident state would hold (64 cached n=120 states:
                // ~0.5 MB more peak RSS), while a clone allocates each
                // at its length. A hit's state already is such a copy.
                let state = if res.report.replayed { state } else { state.clone() };
                let mut lru = lock_cache(cache);
                lru.put_near(near_key, state.chosen_guess);
                if lru.put(key, state) {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    res.report.stats.cache_evictions += 1;
                }
            }
            res
        });
        // Publish-then-release order matters: the state is in the cache
        // (above) before any waiter wakes, so followers hit. The gate
        // opens on the error path and on a panic's unwind too — waiters
        // must never hang on a failed leader.
        drop(release);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagsched_types::gen;
    use bagsched_types::validate_schedule;

    /// Distinct uniform instances; `salt` shifts the generator seed so
    /// tests control how many unique fingerprints they create.
    fn inst(salt: u64) -> Instance {
        gen::uniform(40, 4, 12, 7 + salt)
    }

    #[test]
    fn cache_hit_replays_identical_schedule() {
        let solver = Solver::with_cache(EptasConfig::with_epsilon(0.5), 4);
        let cold = solver.solve_instance(&inst(0)).unwrap();
        assert!(!cold.report.replayed);
        assert_eq!(cold.report.stats.cache_misses, 1);
        let warm = solver.solve_instance(&inst(0)).unwrap();
        assert!(warm.report.replayed, "second solve of the same shape must hit");
        assert_eq!(warm.report.stats.cache_hits, 1);
        assert_eq!(warm.schedule.assignment(), cold.schedule.assignment());
        assert_eq!(warm.makespan.to_bits(), cold.makespan.to_bits());
        assert_eq!(
            solver.cache_counters(),
            CacheCounters { hits: 1, misses: 1, evictions: 0, coalesced_waits: 0, near_hits: 0 }
        );
        validate_schedule(&inst(0), &warm.schedule).unwrap();
    }

    #[test]
    fn uncached_solver_records_nothing() {
        let solver = Solver::with_epsilon(0.5);
        let r = solver.solve_instance(&inst(0)).unwrap();
        assert_eq!(r.report.stats.cache_hits, 0);
        assert_eq!(r.report.stats.cache_misses, 0);
        assert_eq!(solver.cache_counters(), CacheCounters::default());
        assert_eq!(solver.cached_states(), 0);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let solver = Solver::with_cache(EptasConfig::with_epsilon(0.5), 2);
        solver.solve_instance(&inst(0)).unwrap();
        solver.solve_instance(&inst(1)).unwrap();
        assert_eq!(solver.cached_states(), 2);
        // Third distinct shape evicts the least recently used (salt 0).
        let r = solver.solve_instance(&inst(2)).unwrap();
        assert_eq!(r.report.stats.cache_evictions, 1);
        assert_eq!(solver.cached_states(), 2);
        // Salt 1 and 2 still hit; salt 0 is gone and misses again.
        assert!(solver.solve_instance(&inst(1)).unwrap().report.replayed);
        assert!(solver.solve_instance(&inst(2)).unwrap().report.replayed);
        assert!(!solver.solve_instance(&inst(0)).unwrap().report.replayed);
        let c = solver.cache_counters();
        assert_eq!((c.hits, c.misses), (2, 4));
        assert_eq!(c.evictions, 2, "re-solving salt 0 evicts again at capacity");
    }

    #[test]
    fn lru_touch_on_hit_protects_entry() {
        let solver = Solver::with_cache(EptasConfig::with_epsilon(0.5), 2);
        solver.solve_instance(&inst(0)).unwrap();
        solver.solve_instance(&inst(1)).unwrap();
        // Touch salt 0 so salt 1 becomes the eviction victim.
        assert!(solver.solve_instance(&inst(0)).unwrap().report.replayed);
        solver.solve_instance(&inst(2)).unwrap();
        assert!(solver.solve_instance(&inst(0)).unwrap().report.replayed, "touched entry survives");
    }

    #[test]
    fn wire_solve_answers_and_hits() {
        let solver = Solver::with_cache(EptasConfig::with_epsilon(0.5), 4);
        let req = SolveRequest { id: 7, epsilon: 0.5, deadline_ms: None, instance: inst(0) };
        let cold = solver.solve(&req);
        assert!(cold.ok, "{:?}", cold.error);
        assert_eq!(cold.id, 7);
        assert_ne!(cold.cache, CacheTag::Hit);
        assert_eq!(cold.assignment.len(), inst(0).num_jobs());
        let warm = solver.solve(&SolveRequest { id: 8, ..req });
        assert!(warm.ok);
        assert_eq!(warm.cache, CacheTag::Hit);
        assert_eq!(warm.assignment, cold.assignment);
        assert_eq!(warm.makespan.to_bits(), cold.makespan.to_bits());
    }

    #[test]
    fn wire_solve_rejects_bad_epsilon_and_infeasible() {
        let solver = Solver::with_epsilon(0.5);
        let bad_eps = solver.solve(&SolveRequest {
            id: 1,
            epsilon: 1.5,
            deadline_ms: None,
            instance: inst(0),
        });
        assert!(!bad_eps.ok);
        assert!(bad_eps.error.as_deref().unwrap().contains("epsilon"));
        let infeasible = Instance::new(&[(1.0, 0), (1.0, 0)], 1);
        let r = solver.solve(&SolveRequest {
            id: 2,
            epsilon: 0.5,
            deadline_ms: None,
            instance: infeasible,
        });
        assert!(!r.ok);
        assert!(r.error.is_some());
        assert!(r.assignment.is_empty());
    }

    /// A request naming `u32::MAX` machines for two jobs is answered
    /// (one job per machine) instead of allocating per-machine tables
    /// that abort the process.
    #[test]
    fn wire_solve_answers_a_machine_count_at_the_u32_limit() {
        let solver = Solver::with_cache(EptasConfig::with_epsilon(0.5), 4);
        let r = solver.solve(&SolveRequest {
            id: 4,
            epsilon: 0.5,
            deadline_ms: None,
            instance: Instance::new(&[(2.0, 0), (1.0, 1)], u32::MAX as usize),
        });
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.makespan, 2.0);
        assert_eq!(r.assignment.len(), 2);
        assert_ne!(r.assignment[0], r.assignment[1]);
    }

    /// Finite sizes whose sum overflows f64 are refused, not answered
    /// with an infinite makespan — by cached and uncached solvers alike.
    #[test]
    fn wire_solve_rejects_overflowing_total_size() {
        for solver in
            [Solver::with_epsilon(0.5), Solver::with_cache(EptasConfig::with_epsilon(0.5), 4)]
        {
            for machines in [1, 3] {
                let r = solver.solve(&SolveRequest {
                    id: 3,
                    epsilon: 0.5,
                    deadline_ms: None,
                    instance: Instance::new(&[(1.7e308, 0), (1e308, 1)], machines),
                });
                assert!(!r.ok, "{machines} machines: answered with makespan {}", r.makespan);
                assert!(r.error.as_deref().unwrap().contains("overflows"));
                assert!(r.assignment.is_empty());
            }
        }
    }

    #[test]
    fn concurrent_same_shape_requests_coalesce() {
        // Four threads race the same shape: exactly one solves cold, the
        // rest replay the leader's published state (whether they waited
        // on the gate or arrived after it closed).
        let solver = Solver::with_cache(EptasConfig::with_epsilon(0.5), 4);
        let shape = inst(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let r = solver.solve_instance(&shape).unwrap();
                    validate_schedule(&shape, &r.schedule).unwrap();
                });
            }
        });
        let c = solver.cache_counters();
        assert_eq!(c.misses, 1, "one leader solves cold");
        assert_eq!(c.hits, 3, "followers replay the leader's state");
        assert!(c.coalesced_waits <= 3, "at most the three followers wait");
    }

    #[test]
    fn panicking_leader_still_opens_its_gate() {
        // A leader whose solve panics releases its gate while unwinding:
        // the waiting follower wakes, leads a solve of its own, and the
        // in-flight map ends empty.
        use std::time::{Duration, Instant};
        let solver = Arc::new(Solver::with_cache(EptasConfig::with_epsilon(0.5), 4));
        let key = fingerprint(&inst(0), 0.5);
        // A leader mid-solve: its gate sits closed in the in-flight map.
        solver.inflight.lock().unwrap().insert(key, Arc::new((Mutex::new(false), Condvar::new())));
        let (tx, rx) = std::sync::mpsc::channel();
        let follower = Arc::clone(&solver);
        // Not scoped: a hung follower must fail the test, not hang it, so
        // the join waits until the follower has answered.
        let handle = std::thread::spawn(move || {
            tx.send(follower.solve_instance(&inst(0)).is_ok()).unwrap();
        });
        let start = Instant::now();
        while solver.cache_counters().coalesced_waits == 0 {
            assert!(start.elapsed() < Duration::from_secs(5), "follower never reached the gate");
            std::thread::yield_now();
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _release = GateRelease { inflight: &solver.inflight, key };
            panic!("leader solve failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(true),
            "the follower must wake, lead and solve"
        );
        handle.join().unwrap();
        assert!(solver.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn poisoned_cache_is_emptied_and_keeps_serving() {
        // A thread panics while holding the cache lock. The solver must
        // not turn that into a panic on every later request: the next
        // lock empties the half-trusted cache, clears the poison, and
        // repeat and new shapes both solve.
        let solver = Solver::with_cache(EptasConfig::with_epsilon(0.5), 4);
        let repeat = inst(0);
        solver.solve_instance(&repeat).unwrap();
        assert_eq!(solver.cached_states(), 1);
        let cache = solver.cache.as_ref().unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = cache.lock().unwrap();
            panic!("panic while holding the cache lock");
        }));
        assert!(unwound.is_err() && cache.is_poisoned());
        let again = solver.solve_instance(&repeat).unwrap();
        validate_schedule(&repeat, &again.schedule).unwrap();
        assert!(!again.report.replayed, "a poisoned cache is emptied, not replayed from");
        assert!(!cache.is_poisoned());
        let fresh = inst(1);
        let r = solver.solve_instance(&fresh).unwrap();
        validate_schedule(&fresh, &r.schedule).unwrap();
        assert_eq!(solver.cached_states(), 2);
        assert!(solver.solve_instance(&repeat).unwrap().report.replayed);
    }

    #[test]
    fn near_tier_seeds_similar_shape_and_stays_correct() {
        // Shape B is shape A with one job size jittered by a part in a
        // million: the exact fingerprint separates them (cold solve
        // required), the coarse one does not, so B's binary search
        // starts from A's cached winning guess.
        use bagsched_types::{coarse_fingerprint, fingerprint, JobId};
        let shape_a = inst(0);
        let jobs: Vec<(f64, u32)> = (0..shape_a.num_jobs())
            .map(|j| {
                let id = JobId(j as u32);
                let jitter = if j == 0 { 1.0 + 1e-6 } else { 1.0 };
                (shape_a.size(id) * jitter, shape_a.bag_of(id).0)
            })
            .collect();
        let shape_b = Instance::new(&jobs, shape_a.num_machines());
        assert_ne!(fingerprint(&shape_a, 0.5), fingerprint(&shape_b, 0.5));
        assert_eq!(
            coarse_fingerprint(&shape_a, 0.5),
            coarse_fingerprint(&shape_b, 0.5),
            "test premise: the shapes must share a coarse fingerprint"
        );
        let solver = Solver::with_cache(EptasConfig::with_epsilon(0.5), 4);
        let a = solver.solve_instance(&shape_a).unwrap();
        assert_eq!(a.report.stats.cache_near_hits, 0, "nothing cached yet");
        let b = solver.solve_instance(&shape_b).unwrap();
        assert!(!b.report.replayed, "a near hit is still an exact miss");
        assert_eq!(b.report.stats.cache_misses, 1);
        assert_eq!(b.report.stats.cache_near_hits, 1, "A's guess must seed B's search");
        assert_eq!(solver.cache_counters().near_hits, 1);
        validate_schedule(&shape_b, &b.schedule).unwrap();
        // The hint only moves the search's first probe; the answer must
        // stay inside the same approximation envelope a cold solve of B
        // delivers.
        let cold = Solver::with_epsilon(0.5).solve_instance(&shape_b).unwrap();
        assert!(b.makespan <= cold.makespan * (1.0 + 0.5) + 1e-9);
    }

    #[test]
    fn per_request_epsilon_keys_the_cache() {
        // Same instance at a different epsilon must not replay the other
        // epsilon's state: the fingerprint folds epsilon in.
        let solver = Solver::with_cache(EptasConfig::with_epsilon(0.5), 4);
        let a = solver.solve(&SolveRequest {
            id: 1,
            epsilon: 0.5,
            deadline_ms: None,
            instance: inst(0),
        });
        let b = solver.solve(&SolveRequest {
            id: 2,
            epsilon: 0.4,
            deadline_ms: None,
            instance: inst(0),
        });
        assert!(a.ok && b.ok);
        assert_ne!(b.cache, CacheTag::Hit, "different epsilon is a different cache key");
        let again = solver.solve(&SolveRequest {
            id: 3,
            epsilon: 0.4,
            deadline_ms: None,
            instance: inst(0),
        });
        assert_eq!(again.cache, CacheTag::Hit);
    }
}
