//! Observability primitives: hierarchical phase spans, aggregated
//! phase profiles, log2-bucketed latency histograms, and a Chrome
//! trace-event exporter.
//!
//! The design is driven by the workspace's determinism discipline:
//!
//! * **Zero cost when off.** [`Span::enter`] checks one thread-local
//!   `Option` and returns an inert guard when no [`Recorder`] is
//!   installed — a few nanoseconds, no allocation, no clock read. The
//!   solver is instrumented unconditionally; only installing a
//!   recorder turns the instrumentation on.
//! * **Timing is advisory, counts are structural.** A
//!   [`PhaseProfile`] carries per-phase wall times (nondeterministic,
//!   redacted everywhere bytes are compared — see
//!   `bagsched_bench::json::redact_nondeterministic`) *and* per-phase
//!   call counts, which are a function of the algorithm alone and can
//!   be gated as strictly as any other counter.
//! * **Thread-aware.** Contexts do not leak across thread spawns;
//!   the parallel seams (`bagsched_core::par`, the speculative
//!   guess window) capture an [`ObsHandle`] and install it explicitly
//!   in each worker, so every OS thread gets its own track and its
//!   own span stack. Self-time is per-thread: a span's `self_ns`
//!   excludes child spans opened *on the same thread*; work a child
//!   thread does concurrently is attributed to that thread's spans.
//! * **Cancelled work is visible but quarantined.** Speculative
//!   guesses that lose the race record their spans under a *region*
//!   that is marked discarded after the commit walk. Discarded
//!   regions still appear in the Chrome trace (marked `cancelled`)
//!   but are excluded from [`Recorder::profile`], so profile counts
//!   stay byte-identical at any thread count.
//!
//! Span names are `&'static str` dotted paths (`"pricing.master_lp"`).
//! The taxonomy used by the solver is documented in the README's
//! "Observability" section.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The region id every context starts in; never discarded.
const ROOT_REGION: u64 = 0;

/// One completed span occurrence.
#[derive(Debug, Clone)]
pub struct Event {
    /// Dotted phase name (`"milp.bnb"`).
    pub name: &'static str,
    /// Start offset from the recorder's epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall duration, nanoseconds.
    pub dur_ns: u64,
    /// Duration minus same-thread child spans, nanoseconds.
    pub self_ns: u64,
    /// Region the span was opened under (see [`Recorder::new_region`]).
    pub region: u64,
}

struct ThreadBuf {
    /// Stable per-recorder track id (1-based registration order).
    tid: u64,
    name: Mutex<String>,
    /// Only the owning thread pushes; readers lock briefly to snapshot.
    events: Mutex<Vec<Event>>,
}

struct Inner {
    epoch: Instant,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    discarded: Mutex<Vec<u64>>,
    next_region: AtomicU64,
}

impl Inner {
    fn register(&self, name: &str) -> Arc<ThreadBuf> {
        let mut threads = self.threads.lock().unwrap();
        let buf = Arc::new(ThreadBuf {
            tid: threads.len() as u64 + 1,
            name: Mutex::new(name.to_string()),
            events: Mutex::new(Vec::new()),
        });
        threads.push(Arc::clone(&buf));
        buf
    }
}

/// A handle to an active recording session. Create one, [`install`]
/// it on the driving thread, and pass [`handle`]s into any threads
/// spawned while it is live.
///
/// [`install`]: Recorder::install
/// [`handle`]: Recorder::handle
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder; its creation instant is the trace epoch.
    pub fn new() -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                threads: Mutex::new(Vec::new()),
                discarded: Mutex::new(Vec::new()),
                next_region: AtomicU64::new(ROOT_REGION + 1),
            }),
        }
    }

    /// Make this recorder current on the calling thread until the
    /// returned guard drops. `thread_name` labels the trace track.
    pub fn install(&self, thread_name: &str) -> ObsGuard {
        self.handle().install(thread_name)
    }

    /// A cloneable token for propagating the recording context into a
    /// spawned thread. Captures the *root* region; use
    /// [`ObsHandle::with_region`] to scope the worker's spans.
    pub fn handle(&self) -> ObsHandle {
        ObsHandle { inner: Arc::clone(&self.inner), region: ROOT_REGION }
    }

    /// Allocate a fresh region id (for work that may later be
    /// discarded wholesale, e.g. one speculative guess).
    pub fn new_region(&self) -> u64 {
        self.inner.next_region.fetch_add(1, Ordering::Relaxed)
    }

    /// Exclude every span recorded under `region` from
    /// [`Recorder::profile`]. The spans stay in the Chrome trace,
    /// marked `cancelled`.
    pub fn discard_region(&self, region: u64) {
        if region != ROOT_REGION {
            self.inner.discarded.lock().unwrap().push(region);
        }
    }

    /// Snapshot the per-track event counts, so a later
    /// [`profile_since`](Recorder::profile_since) covers only events
    /// recorded after this point (plus whole tracks created after it).
    pub fn cursor(&self) -> Cursor {
        let threads = self.inner.threads.lock().unwrap();
        Cursor(threads.iter().map(|b| (b.tid, b.events.lock().unwrap().len())).collect())
    }

    /// Aggregate every non-discarded event into a [`PhaseProfile`].
    pub fn profile(&self) -> PhaseProfile {
        self.profile_since(&Cursor(Vec::new()))
    }

    /// [`profile`](Recorder::profile) restricted to events recorded
    /// after `cursor` was taken.
    pub fn profile_since(&self, cursor: &Cursor) -> PhaseProfile {
        let discarded = self.inner.discarded.lock().unwrap().clone();
        let threads = self.inner.threads.lock().unwrap().clone();
        let mut profile = PhaseProfile::default();
        for buf in threads {
            let skip =
                cursor.0.iter().find(|(tid, _)| *tid == buf.tid).map(|(_, len)| *len).unwrap_or(0);
            let events = buf.events.lock().unwrap();
            for ev in events.iter().skip(skip) {
                if !discarded.contains(&ev.region) {
                    profile.record(ev.name, ev.dur_ns, ev.self_ns);
                }
            }
        }
        profile.sort();
        profile
    }

    /// Render every recorded event (discarded regions included, marked
    /// `"cancelled": true`) as Chrome trace-event JSON — load the file
    /// in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`. One
    /// track per thread that ever installed this recorder.
    pub fn chrome_trace(&self) -> String {
        let discarded = self.inner.discarded.lock().unwrap().clone();
        let threads = self.inner.threads.lock().unwrap().clone();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        for buf in &threads {
            let name = buf.name.lock().unwrap().clone();
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    buf.tid,
                    escape_json(&name)
                ),
                &mut first,
            );
        }
        for buf in &threads {
            let events = buf.events.lock().unwrap();
            for ev in events.iter() {
                let cancelled = discarded.contains(&ev.region);
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\
                         \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"cancelled\":{}}}}}",
                        escape_json(ev.name),
                        buf.tid,
                        ev.start_ns as f64 / 1e3,
                        ev.dur_ns as f64 / 1e3,
                        cancelled
                    ),
                    &mut first,
                );
            }
        }
        out.push_str("]}");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Opaque snapshot for [`Recorder::profile_since`].
pub struct Cursor(Vec<(u64, usize)>);

/// Cloneable token carrying the recording context (and a region)
/// across a thread spawn.
#[derive(Clone)]
pub struct ObsHandle {
    inner: Arc<Inner>,
    region: u64,
}

impl ObsHandle {
    /// The same context scoped to `region`: spans recorded by a thread
    /// that installs this handle land in that region.
    pub fn with_region(mut self, region: u64) -> ObsHandle {
        self.region = region;
        self
    }

    /// See [`Recorder::new_region`].
    pub fn new_region(&self) -> u64 {
        self.inner.next_region.fetch_add(1, Ordering::Relaxed)
    }

    /// See [`Recorder::discard_region`].
    pub fn discard_region(&self, region: u64) {
        if region != ROOT_REGION {
            self.inner.discarded.lock().unwrap().push(region);
        }
    }

    /// See [`Recorder::cursor`].
    pub fn cursor(&self) -> Cursor {
        Recorder { inner: Arc::clone(&self.inner) }.cursor()
    }

    /// See [`Recorder::profile_since`].
    pub fn profile_since(&self, cursor: &Cursor) -> PhaseProfile {
        Recorder { inner: Arc::clone(&self.inner) }.profile_since(cursor)
    }

    /// Make the context current on the calling thread until the guard
    /// drops (the previous context, if any, is restored).
    pub fn install(&self, thread_name: &str) -> ObsGuard {
        let buf = self.inner.register(thread_name);
        let prev = CTX.with(|c| {
            c.borrow_mut().replace(Ctx {
                inner: Arc::clone(&self.inner),
                buf,
                stack: Vec::new(),
                region: self.region,
            })
        });
        ObsGuard { prev: Some(prev) }
    }
}

/// Capture the calling thread's current context (with its current
/// region) for propagation into a spawned thread; `None` when no
/// recorder is installed.
pub fn handle() -> Option<ObsHandle> {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| ObsHandle { inner: Arc::clone(&ctx.inner), region: ctx.region })
    })
}

/// Whether a recorder is installed on the calling thread.
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Switch the calling thread's current region, returning the previous
/// one (no-op returning the root region, 0, when no recorder is
/// installed). Spans opened after the switch land in `region`.
pub fn set_region(region: u64) -> u64 {
    CTX.with(|c| {
        let mut b = c.borrow_mut();
        match b.as_mut() {
            None => ROOT_REGION,
            Some(ctx) => std::mem::replace(&mut ctx.region, region),
        }
    })
}

struct Frame {
    child_ns: u64,
}

struct Ctx {
    inner: Arc<Inner>,
    buf: Arc<ThreadBuf>,
    stack: Vec<Frame>,
    region: u64,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Uninstalls (or restores) the thread's context on drop.
pub struct ObsGuard {
    prev: Option<Option<Ctx>>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CTX.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// RAII phase timer. `let _s = Span::enter("pricing.master_lp");`
/// times the enclosing scope; nesting is tracked per thread so the
/// aggregated profile can report self-time.
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Open a span. Inert (no clock read, no allocation) when no
    /// recorder is installed on this thread.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        let active = CTX.with(|c| {
            let mut b = c.borrow_mut();
            match b.as_mut() {
                None => false,
                Some(ctx) => {
                    ctx.stack.push(Frame { child_ns: 0 });
                    true
                }
            }
        });
        Span { name, start: if active { Some(Instant::now()) } else { None } }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        CTX.with(|c| {
            let mut b = c.borrow_mut();
            let Some(ctx) = b.as_mut() else { return };
            let Some(frame) = ctx.stack.pop() else { return };
            let dur_ns = end.duration_since(start).as_nanos() as u64;
            let self_ns = dur_ns.saturating_sub(frame.child_ns);
            if let Some(parent) = ctx.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            let start_ns = start.duration_since(ctx.inner.epoch).as_nanos() as u64;
            ctx.buf.events.lock().unwrap().push(Event {
                name: self.name,
                start_ns,
                dur_ns,
                self_ns,
                region: ctx.region,
            });
        });
    }
}

/// Aggregated timing for one phase name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseStat {
    /// Dotted phase name.
    pub name: String,
    /// Number of span occurrences (structural; deterministic for a
    /// fixed configuration and seed).
    pub count: u64,
    /// Summed wall time, nanoseconds (nondeterministic).
    pub total_ns: u64,
    /// Summed self time (minus same-thread children), nanoseconds.
    pub self_ns: u64,
    /// Longest single occurrence, nanoseconds.
    pub max_ns: u64,
}

/// Per-phase aggregate over a recording: one [`PhaseStat`] per
/// distinct span name, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseProfile {
    /// The per-phase rows, sorted by `name`.
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    fn record(&mut self, name: &str, dur_ns: u64, self_ns: u64) {
        let stat = match self.phases.iter_mut().find(|p| p.name == name) {
            Some(s) => s,
            None => {
                self.phases.push(PhaseStat { name: name.to_string(), ..PhaseStat::default() });
                self.phases.last_mut().unwrap()
            }
        };
        stat.count += 1;
        stat.total_ns += dur_ns;
        stat.self_ns += self_ns;
        stat.max_ns = stat.max_ns.max(dur_ns);
    }

    fn sort(&mut self) {
        self.phases.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Whether no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The row for `name`, if that phase ever ran.
    pub fn get(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Fold another profile in (counts and times sum, maxes max).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for p in &other.phases {
            let stat = match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(s) => s,
                None => {
                    self.phases.push(PhaseStat { name: p.name.clone(), ..PhaseStat::default() });
                    self.phases.last_mut().unwrap()
                }
            };
            stat.count += p.count;
            stat.total_ns += p.total_ns;
            stat.self_ns += p.self_ns;
            stat.max_ns = stat.max_ns.max(p.max_ns);
        }
        self.sort();
    }

    /// The profile with every wall time zeroed and the structural
    /// counts kept — what determinism gates compare.
    pub fn redacted(&self) -> PhaseProfile {
        PhaseProfile {
            phases: self
                .phases
                .iter()
                .map(|p| PhaseStat {
                    name: p.name.clone(),
                    count: p.count,
                    total_ns: 0,
                    self_ns: 0,
                    max_ns: 0,
                })
                .collect(),
        }
    }
}

/// Number of log2 buckets: bucket 0 holds zero, bucket `i >= 1` holds
/// values in `[2^(i-1), 2^i)`; the top bucket saturates.
pub const HIST_BUCKETS: usize = 40;

/// A fixed-size log2-bucketed histogram of nonnegative integer
/// samples (the daemon records request latencies in microseconds).
///
/// Recording is O(1) and allocation-free; quantiles interpolate
/// linearly inside the winning bucket, so they are exact at bucket
/// boundaries and within a factor of 2 everywhere else — plenty for
/// latency monitoring, and the fixed footprint makes per-op
/// histograms cheap to keep forever.
#[derive(Clone)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { counts: [0; HIST_BUCKETS], total: 0, max: 0 }
    }

    /// The bucket index for `value`: its bit length, capped at the top
    /// bucket.
    pub fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram in.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated
    /// within the winning bucket and clamped to the exact observed
    /// max. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= rank {
                if i == 0 {
                    return 0;
                }
                let lo = 1u64 << (i - 1);
                let hi = if i >= 63 { u64::MAX } else { 1u64 << i };
                let frac = (rank - cum as f64) / c as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return (est as u64).min(self.max).max(lo.min(self.max));
            }
            cum = next;
        }
        self.max
    }

    /// `(p50, p99, p999)` in one call.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.99), self.quantile(0.999))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn span_is_inert_without_recorder() {
        assert!(!active());
        let _s = Span::enter("nothing");
        assert!(handle().is_none());
        // No recorder anywhere: dropping must be a no-op, not a panic.
    }

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let rec = Recorder::new();
        {
            let _g = rec.install("main");
            let _outer = Span::enter("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = Span::enter("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let p = rec.profile();
        let outer = p.get("outer").unwrap();
        let inner = p.get("inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        // Self excludes the nested span entirely.
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns,
            "outer self {} vs total {} inner {}",
            outer.self_ns,
            outer.total_ns,
            inner.total_ns
        );
        assert_eq!(outer.max_ns, outer.total_ns);
    }

    #[test]
    fn contexts_do_not_cross_thread_spawns_implicitly() {
        let rec = Recorder::new();
        let _g = rec.install("main");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!active(), "context leaked into a spawned thread");
                let _s = Span::enter("ghost");
            });
        });
        assert!(rec.profile().is_empty());
    }

    #[test]
    fn handles_propagate_into_scoped_threads_with_own_tracks() {
        let rec = Recorder::new();
        let _g = rec.install("main");
        let _outer = Span::enter("outer");
        let h = handle().unwrap();
        std::thread::scope(|s| {
            for i in 0..2 {
                let h = h.clone();
                s.spawn(move || {
                    let _g = h.install(&format!("worker-{i}"));
                    let _s = Span::enter("work");
                    std::thread::sleep(Duration::from_millis(1));
                });
            }
        });
        drop(_outer);
        let p = rec.profile();
        assert_eq!(p.get("work").unwrap().count, 2);
        // Cross-thread children do not subtract from the parent's
        // self-time (self-time is per-thread), but both phases exist.
        assert_eq!(p.get("outer").unwrap().count, 1);
        let trace = rec.chrome_trace();
        assert!(trace.contains("worker-0") && trace.contains("worker-1"));
    }

    #[test]
    fn discarded_regions_vanish_from_profile_but_stay_in_trace() {
        let rec = Recorder::new();
        let loser = rec.new_region();
        {
            let _g = rec.handle().with_region(loser).install("speculative");
            let _s = Span::enter("guess");
            let _t = Span::enter("pricing.dfs");
        }
        {
            let _g = rec.install("committed");
            let _s = Span::enter("guess");
        }
        rec.discard_region(loser);
        let p = rec.profile();
        assert_eq!(p.get("guess").unwrap().count, 1, "cancelled guess leaked into the profile");
        assert!(p.get("pricing.dfs").is_none());
        let trace = rec.chrome_trace();
        assert!(trace.contains("pricing.dfs"), "cancelled span missing from the trace");
        assert!(trace.contains("\"cancelled\":true"));
        assert!(trace.contains("\"cancelled\":false"));
    }

    #[test]
    fn cursor_scopes_profiles_to_new_events() {
        let rec = Recorder::new();
        let _g = rec.install("main");
        {
            let _s = Span::enter("before");
        }
        let cur = rec.cursor();
        {
            let _s = Span::enter("after");
        }
        let p = rec.profile_since(&cur);
        assert!(p.get("before").is_none());
        assert_eq!(p.get("after").unwrap().count, 1);
        assert_eq!(rec.profile().phases.len(), 2);
    }

    #[test]
    fn profile_merge_and_redact() {
        let mut a = PhaseProfile::default();
        a.record("x", 10, 5);
        a.record("x", 30, 30);
        let mut b = PhaseProfile::default();
        b.record("x", 100, 100);
        b.record("y", 7, 7);
        a.merge(&b);
        let x = a.get("x").unwrap();
        assert_eq!((x.count, x.total_ns, x.self_ns, x.max_ns), (3, 140, 135, 100));
        assert_eq!(a.get("y").unwrap().count, 1);
        let r = a.redacted();
        assert_eq!(r.get("x").unwrap().count, 3);
        assert_eq!(r.get("x").unwrap().total_ns, 0);
        assert_eq!(r.get("y").unwrap().max_ns, 0);
        // Two profiles differing only in times redact equal.
        let mut c = PhaseProfile::default();
        c.record("x", 1, 1);
        c.record("x", 2, 2);
        c.record("x", 3, 3);
        let mut d = PhaseProfile::default();
        d.record("y", 9, 9);
        c.merge(&d);
        assert_ne!(a, c);
        assert_eq!(a.redacted(), c.redacted());
    }

    #[test]
    fn trace_is_valid_json_shape() {
        let rec = Recorder::new();
        {
            let _g = rec.install("main \"quoted\"");
            let _s = Span::enter("phase");
        }
        let t = rec.chrome_trace();
        assert!(t.starts_with("{\"traceEvents\":["));
        assert!(t.ends_with("]}"));
        assert!(t.contains("\\\"quoted\\\""));
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("\"ph\":\"M\""));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        // Saturation: everything from 2^(HIST_BUCKETS-2) up shares the
        // top bucket.
        assert_eq!(Histogram::bucket_of(1 << (HIST_BUCKETS - 2)), HIST_BUCKETS - 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 100 samples spread uniformly in [64, 128): one bucket.
        for v in 0..100u64 {
            h.record(64 + (v * 64) / 100);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!((64..128).contains(&p50), "p50 {p50} outside the bucket");
        assert!((90..=105).contains(&p50), "p50 {p50} should land mid-bucket");
        let p999 = h.quantile(0.999);
        assert!(p999 <= h.max(), "quantile exceeded the observed max");
        assert!(h.quantile(1.0) as f64 >= h.max() as f64 * 0.99);
        // Monotone in q.
        assert!(h.quantile(0.1) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [3u64, 17, 900, 70_000] {
            a.record(v);
            both.record(v);
        }
        for v in [5u64, 250_000, 1] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn histogram_top_bucket_saturates() {
        let mut h = Histogram::new();
        let huge = u64::MAX - 5;
        h.record(huge);
        h.record(huge);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), huge);
        // The estimate is clamped to the observed max, never beyond.
        assert!(h.quantile(0.99) <= huge);
        assert!(h.quantile(0.99) >= 1 << (HIST_BUCKETS - 2));
    }

    #[test]
    fn zero_only_histogram() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.999), 0);
        assert_eq!(h.max(), 0);
    }
}
