//! Load generation against a running daemon, with a latency report.
//!
//! The workload is a deterministic mix of *hot* requests (drawn from a
//! small set of repeated instance shapes — these hit the server's
//! solver-state cache after their first occurrence) and *cold* requests
//! (each a unique shape). `repeat_ratio` controls the mix; hot and cold
//! requests are interleaved evenly so the latency split is not an
//! artifact of ordering.
//!
//! Two loop modes:
//!
//! * **closed loop** (default): `concurrency` connections each send
//!   their next request as soon as the previous reply lands; latency is
//!   pure service time.
//! * **open loop** (`open_loop_rps`): requests are emitted on a fixed
//!   schedule regardless of completions; latency is measured from the
//!   *scheduled* send time, so queueing delay counts — the standard way
//!   to expose coordinated omission.
//!
//! The report carries p50/p99/p999 overall and split by cache
//! hit/miss, throughput, and the server's own lifetime counters; it
//! serializes to JSON and an earlier report can be used as a baseline
//! ([`compare`]).

use crate::protocol::{Client, StatsReply};
use bagsched_types::{gen, CacheTag, Instance, SolveRequest};
use serde::{Deserialize, DeserializeError, Serialize, Value};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Workload and loop configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Total requests to send.
    pub requests: usize,
    /// Concurrent connections (each gets `requests / concurrency` of
    /// the stream, strided so the hot/cold mix stays even per thread).
    pub concurrency: usize,
    /// Fraction of requests drawn from the repeated hot shapes.
    pub repeat_ratio: f64,
    /// Number of distinct hot shapes.
    pub shapes: usize,
    /// Workload family (a [`gen::Family`] name). `"uniform"` honours
    /// `bags`; the other families derive their bag count from the shape.
    pub family: String,
    /// Jobs per generated instance.
    pub jobs: usize,
    /// Machines per generated instance.
    pub machines: usize,
    /// Bags per generated instance.
    pub bags: usize,
    /// Approximation parameter sent with every request.
    pub epsilon: f64,
    /// `Some(rps)` switches to open-loop mode at that aggregate rate.
    pub open_loop_rps: Option<f64>,
    /// Base seed for instance generation.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7741".into(),
            requests: 200,
            concurrency: 4,
            repeat_ratio: 0.8,
            shapes: 4,
            family: "uniform".into(),
            jobs: 40,
            machines: 4,
            bags: 12,
            epsilon: 0.5,
            open_loop_rps: None,
            seed: 1,
        }
    }
}

impl LoadConfig {
    /// Small deterministic run for smoke tests: guaranteed to contain
    /// repeated shapes (and therefore cache hits) in under a minute.
    pub fn quick() -> Self {
        LoadConfig {
            requests: 40,
            concurrency: 2,
            repeat_ratio: 0.5,
            shapes: 2,
            jobs: 24,
            machines: 3,
            bags: 8,
            ..LoadConfig::default()
        }
    }
}

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl Percentiles {
    fn from_sorted(sorted: &[u64]) -> Option<Percentiles> {
        if sorted.is_empty() {
            return None;
        }
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        Some(Percentiles { p50: at(0.50), p99: at(0.99), p999: at(0.999) })
    }
}

impl Serialize for Percentiles {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("p50_micros".into(), self.p50.to_value()),
            ("p99_micros".into(), self.p99.to_value()),
            ("p999_micros".into(), self.p999.to_value()),
        ])
    }
}

impl Deserialize for Percentiles {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        Ok(Percentiles {
            p50: u64::from_value(v.field("p50_micros")?)?,
            p99: u64::from_value(v.field("p99_micros")?)?,
            p999: u64::from_value(v.field("p999_micros")?)?,
        })
    }
}

/// The bencher's result: client-side latency/throughput plus the
/// server's own counters.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed (transport or solver error).
    pub errors: u64,
    /// Wall-clock of the whole run, microseconds.
    pub elapsed_micros: u64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Latency over all completed requests.
    pub overall: Percentiles,
    /// Completed requests the server answered from cached state.
    pub hits: u64,
    /// Completed requests the server solved cold.
    pub misses: u64,
    /// Completed cold requests whose search was seeded by a similar
    /// cached state (the server's `cache: "near"` tag; counted inside
    /// `misses` too, for continuity with older reports).
    pub near: u64,
    /// Latency of cache-hit requests (absent if none).
    pub hit_latency: Option<Percentiles>,
    /// Latency of cache-miss requests (absent if none).
    pub miss_latency: Option<Percentiles>,
    /// Latency of near-hit requests (absent if none).
    pub near_latency: Option<Percentiles>,
    /// Client-observed latency minus the server's own `elapsed_us`,
    /// per request: wire + framing + queueing overhead. In open-loop
    /// mode this includes queueing delay by design.
    pub overhead: Percentiles,
    /// Requests where the server claimed *more* elapsed time than the
    /// client observed — an accounting bug if ever nonzero.
    pub elapsed_inversions: u64,
    /// Server lifetime counters sampled after the run.
    pub server: StatsReply,
}

impl Serialize for LoadReport {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("completed".into(), self.completed.to_value()),
            ("errors".into(), self.errors.to_value()),
            ("elapsed_micros".into(), self.elapsed_micros.to_value()),
            ("throughput_rps".into(), self.throughput_rps.to_value()),
            ("overall".into(), self.overall.to_value()),
            ("cache_hits".into(), self.hits.to_value()),
            ("cache_misses".into(), self.misses.to_value()),
            ("cache_near".into(), self.near.to_value()),
            ("hit_latency".into(), self.hit_latency.to_value()),
            ("miss_latency".into(), self.miss_latency.to_value()),
            ("near_latency".into(), self.near_latency.to_value()),
            ("overhead".into(), self.overhead.to_value()),
            ("elapsed_inversions".into(), self.elapsed_inversions.to_value()),
            ("server".into(), self.server.to_value()),
        ])
    }
}

impl Deserialize for LoadReport {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        Ok(LoadReport {
            completed: u64::from_value(v.field("completed")?)?,
            errors: u64::from_value(v.field("errors")?)?,
            elapsed_micros: u64::from_value(v.field("elapsed_micros")?)?,
            throughput_rps: f64::from_value(v.field("throughput_rps")?)?,
            overall: Percentiles::from_value(v.field("overall")?)?,
            hits: u64::from_value(v.field("cache_hits")?)?,
            misses: u64::from_value(v.field("cache_misses")?)?,
            near: u64::from_value(v.field("cache_near")?)?,
            hit_latency: Option::<Percentiles>::from_value(v.field("hit_latency")?)?,
            miss_latency: Option::<Percentiles>::from_value(v.field("miss_latency")?)?,
            near_latency: Option::<Percentiles>::from_value(v.field("near_latency")?)?,
            overhead: Percentiles::from_value(v.field("overhead")?)?,
            elapsed_inversions: u64::from_value(v.field("elapsed_inversions")?)?,
            server: StatsReply::from_value(v.field("server")?)?,
        })
    }
}

impl LoadReport {
    /// Render the human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests: {} completed, {} errors in {:.2}s ({:.1} req/s)\n",
            self.completed,
            self.errors,
            self.elapsed_micros as f64 / 1e6,
            self.throughput_rps
        ));
        let line = |tag: &str, p: &Percentiles| {
            format!(
                "{tag:<12} p50 {:>8} us   p99 {:>8} us   p99.9 {:>8} us\n",
                p.p50, p.p99, p.p999
            )
        };
        out.push_str(&line("overall", &self.overall));
        if let Some(p) = &self.hit_latency {
            out.push_str(&line("cache hit", p));
        }
        if let Some(p) = &self.miss_latency {
            out.push_str(&line("cache miss", p));
        }
        if let Some(p) = &self.near_latency {
            out.push_str(&line("near hit", p));
        }
        out.push_str(&line("overhead", &self.overhead));
        if self.elapsed_inversions > 0 {
            out.push_str(&format!(
                "WARNING: {} requests reported more server time than the client observed\n",
                self.elapsed_inversions
            ));
        }
        out.push_str(&format!(
            "cache: {} hits / {} misses ({} near) client-side; server lifetime {} hits / {} misses / {} evictions, {} states resident\n",
            self.hits,
            self.misses,
            self.near,
            self.server.cache_hits,
            self.server.cache_misses,
            self.server.cache_evictions,
            self.server.cached_states
        ));
        if self.server.uptime_secs > 0 || !self.server.ops.is_empty() {
            out.push_str(&format!(
                "server: up {}s, {} inflight, {} near hits\n",
                self.server.uptime_secs, self.server.inflight, self.server.near_hits
            ));
        }
        for op in &self.server.ops {
            out.push_str(&format!(
                "server {:<6} x{:<6} p50 {:>8} us   p99 {:>8} us   p99.9 {:>8} us   max {:>8} us\n",
                op.op, op.count, op.p50_us, op.p99_us, op.p999_us, op.max_us
            ));
        }
        if !self.server.slow.is_empty() {
            out.push_str(&format!("server slow ring ({} entries):\n", self.server.slow.len()));
            for s in &self.server.slow {
                let top = s
                    .phases
                    .iter()
                    .max_by_key(|p| p.total_us)
                    .map(|p| format!("{} {} us", p.name, p.total_us))
                    .unwrap_or_else(|| "no phases".into());
                out.push_str(&format!(
                    "  req {} {} us ({}), hottest phase: {top}\n",
                    s.id,
                    s.micros,
                    s.cache.as_str()
                ));
            }
        }
        out
    }
}

/// Gate a fresh report against a baseline. Thresholds are generous (3x)
/// — this catches "the cache stopped working" and order-of-magnitude
/// regressions, not scheduler jitter.
pub fn compare(current: &LoadReport, baseline: &LoadReport) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    if current.errors > 0 {
        violations.push(format!("{} requests errored (baseline gate requires 0)", current.errors));
    }
    if baseline.hits > 0 && current.hits == 0 {
        violations.push("baseline had cache hits but this run had none".into());
    }
    if baseline.overall.p50 > 0 && current.overall.p50 > baseline.overall.p50.saturating_mul(3) {
        violations.push(format!(
            "overall p50 regressed {}us -> {}us (>3x)",
            baseline.overall.p50, current.overall.p50
        ));
    }
    if baseline.throughput_rps > 0.0 && current.throughput_rps < baseline.throughput_rps / 3.0 {
        violations.push(format!(
            "throughput regressed {:.1} -> {:.1} req/s (>3x)",
            baseline.throughput_rps, current.throughput_rps
        ));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Valid [`LoadConfig::family`] names, for flag validation and usage
/// text.
pub fn family_names() -> Vec<&'static str> {
    gen::Family::ALL.iter().map(|f| f.name()).collect()
}

/// Build the deterministic request stream for a config.
///
/// Request `i` is *hot* when the running count of hot requests lags
/// `repeat_ratio * i` (an error-diffusion pattern: hot and cold
/// interleave evenly at any prefix). Hot requests cycle through
/// `shapes` fixed generator seeds; cold requests each get a unique one.
pub fn build_requests(cfg: &LoadConfig) -> Vec<SolveRequest> {
    let ratio = cfg.repeat_ratio.clamp(0.0, 1.0);
    (0..cfg.requests)
        .map(|i| {
            let hot = ((i + 1) as f64 * ratio).floor() > (i as f64 * ratio).floor();
            let gen_seed = if hot {
                cfg.seed + (i % cfg.shapes.max(1)) as u64
            } else {
                cfg.seed + 10_000 + i as u64
            };
            let instance: Instance = match gen::Family::parse(&cfg.family) {
                Some(f) if f != gen::Family::Uniform => {
                    f.generate(cfg.jobs, cfg.machines, gen_seed)
                }
                _ => gen::uniform(cfg.jobs, cfg.machines, cfg.bags, gen_seed),
            };
            SolveRequest { id: i as u64, epsilon: cfg.epsilon, deadline_ms: None, instance }
        })
        .collect()
}

struct Sample {
    micros: u64,
    /// The server's own `elapsed_us` for the request, for the
    /// client-vs-server latency cross-check.
    server_micros: u64,
    cache: CacheTag,
    ok: bool,
}

/// Run the workload; blocks until every request has been answered (or
/// failed) and the server counters are sampled.
pub fn run(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let requests = Arc::new(build_requests(cfg));
    let concurrency = cfg.concurrency.max(1);
    let errors = Arc::new(AtomicU64::new(0));
    let start = Instant::now();

    let mut threads = Vec::with_capacity(concurrency);
    for worker in 0..concurrency {
        let requests = Arc::clone(&requests);
        let errors = Arc::clone(&errors);
        let addr = cfg.addr.clone();
        let open_interval = cfg
            .open_loop_rps
            .filter(|&rps| rps > 0.0)
            .map(|rps| Duration::from_secs_f64(1.0 / rps));
        threads.push(thread::spawn(move || -> io::Result<Vec<Sample>> {
            let mut client = Client::connect(&addr)?;
            let mut samples = Vec::new();
            let base = Instant::now();
            let mut idx = worker;
            while idx < requests.len() {
                let begin = match open_interval {
                    Some(interval) => {
                        // Open loop: send on the global schedule; latency
                        // counts from the scheduled instant, so a slow
                        // server accrues queueing delay instead of
                        // silently slowing the load down.
                        let scheduled = base + interval * idx as u32;
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        scheduled
                    }
                    None => Instant::now(),
                };
                match client.solve(&requests[idx]) {
                    Ok(resp) => samples.push(Sample {
                        micros: begin.elapsed().as_micros() as u64,
                        server_micros: resp.elapsed_us,
                        cache: resp.cache,
                        ok: resp.ok,
                    }),
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        // The connection may be out of sync; re-dial.
                        client = Client::connect(&addr)?;
                    }
                }
                idx += concurrency;
            }
            Ok(samples)
        }));
    }

    let mut samples = Vec::with_capacity(cfg.requests);
    for t in threads {
        match t.join() {
            Ok(Ok(s)) => samples.extend(s),
            Ok(Err(e)) => return Err(e),
            Err(_) => return Err(io::Error::other("load worker panicked")),
        }
    }
    let elapsed = start.elapsed();

    let mut report = LoadReport {
        errors: errors.load(Ordering::Relaxed),
        elapsed_micros: elapsed.as_micros() as u64,
        ..LoadReport::default()
    };
    let mut all = Vec::new();
    let mut hit_lat = Vec::new();
    let mut miss_lat = Vec::new();
    let mut near_lat = Vec::new();
    let mut overhead = Vec::new();
    for s in &samples {
        if !s.ok {
            report.errors += 1;
            continue;
        }
        report.completed += 1;
        all.push(s.micros);
        // Cross-check: the client's view must be at least the server's
        // own measurement; the difference is wire + queueing overhead.
        if s.server_micros > s.micros {
            report.elapsed_inversions += 1;
        }
        overhead.push(s.micros.saturating_sub(s.server_micros));
        match s.cache {
            CacheTag::Hit => {
                report.hits += 1;
                hit_lat.push(s.micros);
            }
            CacheTag::Near => {
                // Near hits are misses that got a warm start; count
                // them under misses too so older baselines compare.
                report.misses += 1;
                report.near += 1;
                near_lat.push(s.micros);
                miss_lat.push(s.micros);
            }
            CacheTag::Miss => {
                report.misses += 1;
                miss_lat.push(s.micros);
            }
        }
    }
    all.sort_unstable();
    hit_lat.sort_unstable();
    miss_lat.sort_unstable();
    near_lat.sort_unstable();
    overhead.sort_unstable();
    report.overall = Percentiles::from_sorted(&all).unwrap_or_default();
    report.hit_latency = Percentiles::from_sorted(&hit_lat);
    report.miss_latency = Percentiles::from_sorted(&miss_lat);
    report.near_latency = Percentiles::from_sorted(&near_lat);
    report.overhead = Percentiles::from_sorted(&overhead).unwrap_or_default();
    report.throughput_rps = report.completed as f64 / elapsed.as_secs_f64().max(1e-9);
    report.server = Client::connect(&cfg.addr)?.stats().map_err(io::Error::other)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_mix_matches_ratio() {
        let cfg = LoadConfig { requests: 100, repeat_ratio: 0.7, shapes: 3, ..LoadConfig::quick() };
        let reqs = build_requests(&cfg);
        assert_eq!(reqs.len(), 100);
        // Hot requests cycle over `shapes` seeds, so counting distinct
        // fingerprints bounds the hot fraction: 70 hot + 30 unique cold.
        let mut prints: Vec<u64> =
            reqs.iter().map(|r| bagsched_types::fingerprint(&r.instance, r.epsilon)).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), 3 + 30, "3 hot shapes + 30 unique cold shapes");
        // The mix is even: any prefix holds roughly ratio * len hot.
        let hot_in_prefix = reqs[..20]
            .iter()
            .filter(|r| {
                let fp = bagsched_types::fingerprint(&r.instance, r.epsilon);
                reqs.iter()
                    .filter(|o| bagsched_types::fingerprint(&o.instance, o.epsilon) == fp)
                    .count()
                    > 1
            })
            .count();
        assert!((12..=16).contains(&hot_in_prefix), "got {hot_in_prefix} hot in first 20");
    }

    #[test]
    fn percentiles_from_sorted() {
        assert_eq!(Percentiles::from_sorted(&[]), None);
        let p = Percentiles::from_sorted(&[10]).unwrap();
        assert_eq!((p.p50, p.p99, p.p999), (10, 10, 10));
        let v: Vec<u64> = (1..=1000).collect();
        let p = Percentiles::from_sorted(&v).unwrap();
        assert_eq!(p.p50, 501);
        assert_eq!(p.p99, 990);
        assert_eq!(p.p999, 999);
    }

    #[test]
    fn report_roundtrips_and_compares() {
        let report = LoadReport {
            completed: 40,
            errors: 0,
            elapsed_micros: 1_000_000,
            throughput_rps: 40.0,
            overall: Percentiles { p50: 100, p99: 300, p999: 500 },
            hits: 18,
            misses: 22,
            near: 3,
            hit_latency: Some(Percentiles { p50: 20, p99: 40, p999: 50 }),
            miss_latency: Some(Percentiles { p50: 200, p99: 400, p999: 600 }),
            near_latency: Some(Percentiles { p50: 150, p99: 350, p999: 550 }),
            overhead: Percentiles { p50: 30, p99: 80, p999: 120 },
            elapsed_inversions: 0,
            server: StatsReply {
                requests: 41,
                cache_hits: 18,
                cache_misses: 22,
                ..Default::default()
            },
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.completed, 40);
        assert_eq!(back.overall, report.overall);
        assert_eq!(back.hit_latency, report.hit_latency);
        assert_eq!(back.server, report.server);
        assert!(compare(&back, &report).is_ok(), "a run must pass against itself");

        let mut broken = back.clone();
        broken.hits = 0;
        let violations = compare(&broken, &report).unwrap_err();
        assert!(violations.iter().any(|v| v.contains("cache hits")));
        let mut slow = back.clone();
        slow.overall.p50 = 1_000;
        assert!(compare(&slow, &report).is_err());
    }

    #[test]
    fn render_mentions_cache_split() {
        let report = LoadReport {
            completed: 2,
            hits: 1,
            misses: 1,
            hit_latency: Some(Percentiles::default()),
            miss_latency: Some(Percentiles::default()),
            ..Default::default()
        };
        let text = report.render();
        assert!(text.contains("cache hit"));
        assert!(text.contains("cache miss"));
    }
}
