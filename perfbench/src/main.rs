//! The bagsched benchmark: end-to-end metrics with tracing off, per-layer
//! attribution in a separate traced run.
//!
//! ```text
//! perfbench --workload tight-milp|loose-place|serve-mix --seed N
//!           --seconds S --trace 0|1 --server-bin PATH --out-dir DIR
//!           [--cell-seed N] [--source-id ID]
//! ```
//!
//! Prints a human-readable summary to stderr, then two lines to stdout: a
//! detail object (run metadata, tail percentiles, engagement checks,
//! unmeasured metrics) and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Both lines are also
//! written to `DIR`, with a Chrome trace per traced run. Exit codes: `0`
//! done, `2` usage, `1` the run could not complete, `4` a schedule failed
//! validation.

mod inproc;
mod layers;
mod reference;
mod sample;
mod serve;

use bagsched::eptas::EptasConfig;
use bagsched::types::CacheTag;
use reference::Reference;
use sample::{by_cell, by_tag, geomean, median, tail, Failure, Op};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Approximation parameter of every solve.
pub const EPSILON: f64 = 0.5;
/// Set-ups per run, at least the first and at most the second, until
/// `SETUP_BUDGET_S` is spent; `setup_s` is their median. A set-up can
/// take well under a millisecond, so it repeats often enough for the
/// median to hold still.
const SETUP_REPS: (usize, usize) = (3, 101);
const SETUP_BUDGET_S: f64 = 1.0;
/// `serve-mix` timed requests per connection per second of `--seconds`,
/// about what one caller completes on two cores. Every run sends the same
/// requests: a miss is a new shape whose cost varies from 0.07 s to 10 s,
/// so a run cut at a time would time a different set of shapes.
const SERVE_REQUESTS_PER_CONN_SECOND: f64 = 3.5;
/// The daemon's slow-request threshold in the traced run.
const TRACED_SLOW_US: u64 = 100_000;

/// End-to-end metrics: name and unit, reported by every workload. The
/// hit tail is in the detail line only: on `serve-mix` it is a sub-3-ms
/// loopback round trip at p87.5, and scheduler wake-ups on two cores
/// spread it 17-27% (quartiles over median) between runs.
const END_TO_END: [(&str, &str); 9] = [
    ("solve_s", "s"),
    ("serve_rps", "req/s"),
    ("hit_p50_ms", "ms"),
    ("near_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("makespan_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit, reported by every traced run.
const PER_LAYER: [(&str, &str); 51] = [
    ("server.overhead_p50_ms", "ms"),
    ("server.protocol_errors", "count"),
    ("solver.hit_share", "share"),
    ("solver.near_share", "share"),
    ("solver.evictions", "count"),
    ("solver.coalesced_waits", "count"),
    ("solver.replay_p50_ms", "ms"),
    ("solver.near_cold_p50_ms", "ms"),
    ("solver.cold_p50_ms", "ms"),
    ("solver.resident_states", "count"),
    ("driver.outside_guess_s", "s"),
    ("driver.guesses", "count"),
    ("driver.failed_guesses", "count"),
    ("driver.lpt_won_share", "share"),
    ("driver.pipeline_ratio", "ratio"),
    ("transform.s", "s"),
    ("stage.transform.s", "s"),
    ("patterns.s", "s"),
    ("stage.patterns.s", "s"),
    ("pricing.master_lp.self_s", "s"),
    ("pricing.dfs.self_s", "s"),
    ("pricing.tree.self_s", "s"),
    ("pricing.rounds", "count"),
    ("pricing.columns_generated", "count"),
    ("pricing.dfs_nodes", "count"),
    ("pricing.columns_purged", "count"),
    ("classes.bag_classes", "count"),
    ("classes.symbols", "count"),
    ("milp.simplex.count", "count"),
    ("milp.simplex.self_s", "s"),
    ("milp.simplex.warm.self_s", "s"),
    ("milp.dual.count", "count"),
    ("milp.dual.self_s", "s"),
    ("milp.bnb.self_s", "s"),
    ("milp.nodes", "count"),
    ("milp.warm_node_share", "share"),
    ("milp.simplex_pivots", "count"),
    ("milp.dual_pivots", "count"),
    ("milp.refactorizations", "count"),
    ("milp.self_share", "share"),
    ("declass.self_s", "s"),
    ("declass.repair_jobs_moved", "count"),
    ("place.large.s", "s"),
    ("place.small.s", "s"),
    ("place.medium_flow.s", "s"),
    ("place.undo.s", "s"),
    ("stage.place.s", "s"),
    ("place.swap_repair_rounds", "count"),
    ("place.flow_augmentations", "count"),
    ("bench.trace_overhead_share", "share"),
    ("bench.client_stats_ms", "ms"),
];

const WORKLOADS: [&str; 3] = ["tight-milp", "loose-place", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
    cell_seed: u64,
    source_id: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2,
        seconds: 30.0,
        trace: false,
        server_bin: PathBuf::new(),
        out_dir: PathBuf::from(".bench_out"),
        cell_seed: 2,
        source_id: "unknown".into(),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |what: &str| value.parse::<u64>().map_err(|_| format!("{what} needs an integer"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num("--seed")?,
            "--seconds" => args.seconds = num("--seconds")?.max(1) as f64,
            "--trace" => args.trace = num("--trace")? != 0,
            "--server-bin" => args.server_bin = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--cell-seed" => args.cell_seed = num("--cell-seed")?,
            "--source-id" => args.source_id = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.workload == "serve-mix" && args.server_bin.as_os_str().is_empty() {
        return Err("serve-mix needs --server-bin".into());
    }
    Ok(args)
}

/// The unit every size is expressed in: an exact power of two picked by
/// the seed (seed 2 is unit 1). Scaling by a power of two changes every
/// input number but no step of the solver, whose work varies 2-3x
/// between generated instances of one shape; the instances themselves
/// come from `--cell-seed`.
fn unit_of(seed: u64) -> f64 {
    2f64.powi(((seed + 1) % 7) as i32 - 3)
}

/// Named engagement checks: each workload asserts that it still
/// exercises the layer it was chosen for.
#[derive(Default)]
pub struct Checks {
    passed: std::collections::BTreeSet<String>,
    failed: Vec<(String, String)>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, name: &str, on: &str) {
        if ok {
            self.passed.insert(name.to_string());
        } else {
            self.fail(name, on);
        }
    }

    pub fn fail(&mut self, name: &str, on: &str) {
        self.failed.push((name.to_string(), on.to_string()));
    }

    fn to_json(&self) -> Value {
        let failed_names: Vec<&String> = self.failed.iter().map(|(n, _)| n).collect();
        let passed =
            self.passed.iter().filter(|n| !failed_names.contains(n)).map(|n| text(n.as_str()));
        obj([
            ("passed", Value::Arr(passed.collect())),
            (
                "failed",
                Value::Arr(
                    self.failed
                        .iter()
                        .map(|(n, on)| obj([("check", text(n)), ("on", text(on))]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// VmHWM of the process whose status file is `path`, MiB.
pub fn vm_hwm_mb(path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number; a non-finite one has no JSON spelling and becomes `null`.
fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Num(x)
    } else {
        Value::Null
    }
}

fn int(x: u64) -> Value {
    Value::Num(x as f64)
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// `v` as JSON on one line: the vendored printer indents, and a JSON
/// string holds no raw newline, so dropping line breaks and indentation
/// keeps the document intact.
fn one_line(v: &Value) -> String {
    let pretty = serde_json::to_string_pretty(v).expect("every number is finite");
    pretty.lines().map(str::trim_start).collect()
}

fn proc_field(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn metadata(args: &Args, cfg: &EptasConfig) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get()) as u64;
    obj([
        ("workload", text(&args.workload)),
        ("seed", int(args.seed)),
        ("cell_seed", int(args.cell_seed)),
        ("unit", num(unit_of(args.seed))),
        ("epsilon", num(cfg.epsilon)),
        ("solver_threads", int(cfg.solver_threads as u64)),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("build_profile", text(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("source", text(&args.source_id)),
        ("nproc", int(nproc)),
        ("cpu_model", text(proc_field("/proc/cpuinfo", "model name"))),
        ("mem_total", text(proc_field("/proc/meminfo", "MemTotal"))),
    ])
}

/// What a run measured, before formatting.
struct Outcome {
    ops: Vec<Op>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Vec<(String, Value)>,
    traces: Vec<(String, String)>,
}

/// The end-to-end metrics of a set of operations over `cells` cells. A
/// median latency is each cell's median combined over the cells with
/// samples by geometric mean, and `solve_s` is one cold solve of every
/// cell at its median, so neither depends on how many samples of each
/// cell a run took; a tail is taken over every cell's samples at once.
/// Latencies are taken by `pick`; `rate` is the workload's own
/// `serve_rps`.
fn end_to_end(
    ops: &[Op],
    cells: usize,
    pick: fn(&Op) -> f64,
    rate: f64,
    peak_rss_mb: f64,
    setup_s: f64,
) -> (Vec<(&'static str, f64, &'static str)>, Value) {
    let lat = |tag| by_cell(ops, cells, tag, pick);
    let (hits, nears, misses) = (lat(CacheTag::Hit), lat(CacheTag::Near), lat(CacheTag::Miss));
    let over_cells = |groups: &[Vec<f64>], stat: fn(&[f64]) -> f64| {
        geomean(&groups.iter().filter(|g| !g.is_empty()).map(|g| stat(g)).collect::<Vec<_>>())
    };
    let p50 = |groups: &[Vec<f64>]| over_cells(groups, median);
    let (hit_tail, miss_tail) = (tail(&hits.concat()), tail(&misses.concat()));
    let ratios = by_cell(ops, cells, CacheTag::Hit, |op| op.ratio)
        .into_iter()
        .zip(by_cell(ops, cells, CacheTag::Near, |op| op.ratio))
        .zip(by_cell(ops, cells, CacheTag::Miss, |op| op.ratio))
        .map(|((h, n), m)| [h, n, m].concat())
        .collect::<Vec<_>>();
    let values = [
        misses.iter().filter(|g| !g.is_empty()).map(|g| median(g)).sum::<f64>() / 1e3,
        rate,
        p50(&hits),
        p50(&nears),
        p50(&misses),
        miss_tail.value,
        over_cells(&ratios, geomean),
        peak_rss_mb,
        setup_s,
    ];
    let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect();
    let tail_json = |t: sample::Tail| {
        obj([
            ("ms", num(t.value)),
            ("percentile", num(t.percentile)),
            ("samples", int(t.count as u64)),
        ])
    };
    let counts =
        |groups: &[Vec<f64>]| Value::Arr(groups.iter().map(|g| int(g.len() as u64)).collect());
    let failed = ops.iter().filter(|op| op.failure.is_some()).count();
    let detail = obj([
        ("hit_tail", tail_json(hit_tail)),
        ("miss_tail", tail_json(miss_tail)),
        (
            "samples_by_cell",
            obj([("hit", counts(&hits)), ("near", counts(&nears)), ("miss", counts(&misses))]),
        ),
        ("failed_share", num(failed as f64 / ops.len().max(1) as f64)),
    ]);
    (metrics, detail)
}

/// The median set-up time, at the reference kernel's nominal speed and as
/// measured, seconds.
struct SetupTime {
    scaled_s: f64,
    raw_s: f64,
}

/// Set up until `SETUP_REPS` and `SETUP_BUDGET_S` say stop; returns the
/// set-up time and the last set-up, after `discard`ing the others.
fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(SetupTime, T), String> {
    let (min, max) = SETUP_REPS;
    let (mut raw, mut kernel) = (Vec::new(), Vec::new());
    let mut reference = Reference::new();
    loop {
        let t = Instant::now();
        let value = setup()?;
        raw.push(t.elapsed().as_secs_f64());
        kernel.push(reference.time());
        let spent: f64 = raw.iter().sum();
        if raw.len() >= max || (raw.len() >= min && spent >= SETUP_BUDGET_S) {
            let raw_s = median(&raw);
            let scaled_s = reference::scaled(raw_s, median(&kernel));
            return Ok((SetupTime { scaled_s, raw_s }, value));
        }
        discard(value)?;
    }
}

/// The end-to-end metrics at the reference kernel's nominal speed, with
/// the same metrics as measured and the host's reference time in `detail`.
fn scaled_end_to_end(
    ops: &[Op],
    cells: usize,
    rate: impl Fn(fn(&Op) -> f64) -> f64,
    peak_rss_mb: f64,
    setup: &SetupTime,
    detail: &mut Vec<(String, Value)>,
) -> Vec<(&'static str, f64, &'static str)> {
    let scaled: fn(&Op) -> f64 = Op::scaled_ms;
    let raw: fn(&Op) -> f64 = |op| op.latency_ms;
    let (metrics, e2e) = end_to_end(ops, cells, scaled, rate(scaled), peak_rss_mb, setup.scaled_s);
    let (unscaled, _) = end_to_end(ops, cells, raw, rate(raw), peak_rss_mb, setup.raw_s);
    let refs: Vec<f64> = ops.iter().map(|op| op.ref_ms).filter(|r| r.is_finite()).collect();
    detail.push(("end_to_end".into(), e2e));
    detail.push(("reference_p50_ms".into(), num(median(&refs))));
    detail.push(("reference_nominal_ms".into(), num(reference::NOMINAL_MS)));
    detail.push(("unscaled".into(), obj(unscaled.iter().map(|&(n, v, _)| (n, num(v))))));
    metrics
}

fn in_process(args: &Args, cfg: &EptasConfig, checks: &mut Checks) -> Result<Outcome, String> {
    let unit = unit_of(args.seed);
    let (setup, spec) =
        repeat_setup(|| Ok(inproc::spec(&args.workload, args.cell_seed, unit)), |_| Ok(()))?;
    let cells = &spec.cells;
    for cell in cells {
        checks.expect(inproc::is_near_copy(&cell.inst, &cell.near), "near-copy-shape", &cell.name);
    }
    let mut detail =
        vec![("cells".to_string(), Value::Arr(cells.iter().map(|c| text(&c.name)).collect()))];

    if !args.trace {
        let start = Instant::now();
        let ops = inproc::timed(&spec, cfg, args.seconds, checks);
        detail.push(("wall_s".into(), num(start.elapsed().as_secs_f64())));
        let rss = vm_hwm_mb("/proc/self/status").ok_or("cannot read VmHWM")?;
        let rate = |pick| inproc::mix_rate(&spec, &ops, pick);
        let metrics = scaled_end_to_end(&ops, cells.len(), rate, rss, &setup, &mut detail);
        return Ok(Outcome { ops, metrics, detail, traces: Vec::new() });
    }

    let t = inproc::traced(&spec, cfg, checks);
    let att = &t.attribution;
    let traced_cold_s: f64 = t
        .cycle
        .ops
        .iter()
        .filter(|op| op.tag == CacheTag::Miss)
        .map(|op| op.latency_ms / 1e3)
        .sum();
    if args.workload == "loose-place" {
        // Placement and driver work must carry this workload, not the MILP.
        checks.expect(att.milp_self_s() < 0.01 * traced_cold_s, "milp-under-1pct", &args.workload);
    }
    let mut m = BTreeMap::new();
    att.metrics(&mut m);
    let ops = &t.cycle.ops;
    let c = t.cycle.solver.cache_counters();
    let solves = (c.hits + c.misses).max(1) as f64;
    m.insert("solver.hit_share", c.hits as f64 / solves);
    m.insert("solver.near_share", c.near_hits as f64 / solves);
    m.insert("solver.evictions", c.evictions as f64);
    m.insert("solver.coalesced_waits", c.coalesced_waits as f64);
    m.insert("solver.replay_p50_ms", median(&by_tag(ops, CacheTag::Hit, |op| op.solver_ms)));
    m.insert("solver.near_cold_p50_ms", median(&by_tag(ops, CacheTag::Near, |op| op.solver_ms)));
    m.insert("solver.cold_p50_ms", median(&by_tag(ops, CacheTag::Miss, |op| op.solver_ms)));
    m.insert("solver.resident_states", t.cycle.solver.cached_states() as f64);
    m.insert("milp.self_share", att.milp_self_s() / traced_cold_s);
    m.insert("bench.trace_overhead_share", traced_cold_s / t.untraced_cold_s - 1.0);
    detail.push(("solves_attributed".into(), int(att.solves)));
    let no_daemon = "no daemon in an in-process workload";
    let not_measured = [
        ("server.overhead_p50_ms", no_daemon),
        ("server.protocol_errors", no_daemon),
        ("bench.client_stats_ms", no_daemon),
    ];
    detail.push(("attributed".into(), text("the cold solves of one recorded cycle")));
    detail.push(("traced_solve_s".into(), num(traced_cold_s)));
    detail.push(("untraced_solve_s".into(), num(t.untraced_cold_s)));
    let metrics = per_layer(m, &not_measured, &mut detail);
    let name = format!("{}-seed{}.trace.json", args.workload, args.seed);
    let mut ops = t.untraced_ops;
    ops.extend(t.cycle.ops);
    Ok(Outcome { ops, metrics, detail, traces: vec![(name, t.trace)] })
}

fn serve_mix(args: &Args, cfg: &EptasConfig, checks: &mut Checks) -> Result<Outcome, String> {
    let unit = unit_of(args.seed);
    let per_conn = (args.seconds * SERVE_REQUESTS_PER_CONN_SECOND).round() as usize;
    let slow_us = if args.trace { TRACED_SLOW_US } else { 0 };
    let (setup, (stream, daemon)) = repeat_setup(
        || {
            let stream = serve::stream(args.cell_seed, unit, per_conn, checks);
            Ok((stream, serve::Daemon::start(&args.server_bin, slow_us)?))
        },
        |(_, daemon)| daemon.stop(),
    )?;
    let mut detail = vec![
        ("connections".to_string(), int(serve::CONNECTIONS as u64)),
        ("loop".to_string(), text("closed: each connection waits for its reply")),
    ];

    if !args.trace {
        let p = serve::pass(&daemon, &stream, per_conn)?;
        daemon.stop()?;
        serve::check_pass(&stream, &p, checks);
        let timed = p.timed_ops();
        // A closed loop with one caller completes one request per latency.
        let rate =
            |pick: fn(&Op) -> f64| timed.len() as f64 / (timed.iter().map(pick).sum::<f64>() / 1e3);
        detail.push(("timed_requests".into(), int(timed.len() as u64)));
        detail.push(("wall_s".into(), num(p.wall_s)));
        let metrics =
            scaled_end_to_end(&timed, serve::CELLS, rate, p.peak_rss_mb, &setup, &mut detail);
        return Ok(Outcome { ops: p.all_ops(), metrics, detail, traces: Vec::new() });
    }

    // Traced: a third of the stream through an untraced daemon (for the
    // tracing overhead), through the daemon with its slow ring armed and
    // through the in-process mirror with a recorder installed.
    let limit = per_conn / 3;
    let plain = serve::Daemon::start(&args.server_bin, 0)?;
    let untraced = serve::pass(&plain, &stream, limit)?;
    plain.stop()?;
    let p = serve::pass(&daemon, &stream, limit)?;
    daemon.stop()?;
    serve::check_pass(&stream, &p, checks);
    let mirror = serve::mirror(&stream, limit, cfg, checks);

    let mut m = BTreeMap::new();
    mirror.attribution.metrics(&mut m);
    let s = &p.stats;
    let solves = (s.cache_hits + s.cache_misses).max(1) as f64;
    let timed = p.timed_ops();
    let server_ms = |tag| median(&by_tag(&timed, tag, |op| op.solver_ms));
    let overhead: Vec<f64> = timed
        .iter()
        .filter(|op| op.failure.is_none())
        .map(|op| op.latency_ms - op.solver_ms)
        .collect();
    m.insert("server.overhead_p50_ms", median(&overhead));
    m.insert("server.protocol_errors", s.protocol_errors as f64);
    m.insert("solver.hit_share", s.cache_hits as f64 / solves);
    m.insert("solver.near_share", s.near_hits as f64 / solves);
    m.insert("solver.evictions", s.cache_evictions as f64);
    m.insert("solver.coalesced_waits", s.coalesced_waits as f64);
    m.insert("solver.replay_p50_ms", server_ms(CacheTag::Hit));
    m.insert("solver.near_cold_p50_ms", server_ms(CacheTag::Near));
    m.insert("solver.cold_p50_ms", server_ms(CacheTag::Miss));
    m.insert("solver.resident_states", s.cached_states as f64);
    m.insert("milp.self_share", mirror.attribution.milp_self_s() / mirror.attribution.solve_wall_s);
    m.insert("bench.trace_overhead_share", p.wall_s / untraced.wall_s - 1.0);
    m.insert("bench.client_stats_ms", p.stats_ms);
    detail.push(("timed_requests".into(), int(timed.len() as u64)));
    detail.push(("solves_attributed".into(), int(mirror.attribution.solves)));
    detail.push((
        "attributed".into(),
        text("server.* and solver.*: the daemon with its slow ring armed; the rest: every request of the in-process mirror"),
    ));
    detail.push(("traced_solve_s".into(), num(p.wall_s)));
    detail.push(("untraced_solve_s".into(), num(untraced.wall_s)));
    detail.push(("slow_ring_entries".into(), int(s.slow.len() as u64)));
    let metrics = per_layer(m, &[], &mut detail);
    let ring = String::from_utf8_lossy(&bagsched_server::protocol::encode(s)).into_owned();
    let mut ops = untraced.all_ops();
    ops.extend(p.all_ops());
    ops.extend(mirror.ops);
    let traces = vec![
        (format!("serve-mix-seed{}.trace.json", args.seed), mirror.trace),
        (format!("serve-mix-seed{}.daemon-stats.json", args.seed), ring),
    ];
    Ok(Outcome { ops, metrics, detail, traces })
}

/// Order `values` as `PER_LAYER`, recording which ones were not measured.
fn per_layer(
    values: BTreeMap<&'static str, f64>,
    not_measured: &[(&str, &str)],
    detail: &mut Vec<(String, Value)>,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut missing = Vec::new();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().filter(|v| v.is_finite());
            if v.is_none() {
                let why = not_measured
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("no samples in this run", |(_, w)| *w);
                missing.push((name.to_string(), text(why)));
            }
            (name, v.unwrap_or(0.0), unit)
        })
        .collect();
    detail.push(("not_measured".into(), Value::Obj(missing)));
    metrics
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut cfg = EptasConfig::with_epsilon(EPSILON);
    cfg.solver_threads = 1;
    let mut checks = Checks::default();
    let outcome = if args.workload == "serve-mix" {
        serve_mix(&args, &cfg, &mut checks)
    } else {
        in_process(&args, &cfg, &mut checks)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let failures: Vec<&Failure> = outcome.ops.iter().filter_map(|op| op.failure.as_ref()).collect();
    let invalid = failures
        .iter()
        .any(|f| matches!(f, Failure::InvalidSchedule(_) | Failure::MakespanMismatch));
    let correct = failures.is_empty() && checks.failed.is_empty();

    let mut detail =
        vec![("meta".to_string(), metadata(&args, &cfg)), ("checks".to_string(), checks.to_json())];
    detail.extend(outcome.detail);
    let first: Vec<Value> = failures.iter().take(5).map(|f| text(f.describe())).collect();
    detail.push(("failures".into(), Value::Arr(first)));
    let detail = obj([("detail", Value::Obj(detail))]);
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", int(outcome.ops.len() as u64)),
        ("failed", int(failures.len() as u64)),
        (
            "metrics",
            obj(outcome
                .metrics
                .iter()
                .map(|&(n, v, u)| (n, obj([("value", num(v)), ("unit", text(u))])))),
        ),
    ]);

    for &(n, v, u) in &outcome.metrics {
        eprintln!("{n:<28} {v:>14.6} {u}");
    }
    for (name, on) in &checks.failed {
        eprintln!("engagement check failed: {name} ({on})");
    }
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|_| {
        std::fs::write(
            args.out_dir.join(format!("{stem}.json")),
            format!("{}\n{}\n", one_line(&detail), one_line(&result)),
        )?;
        for (name, body) in &outcome.traces {
            std::fs::write(args.out_dir.join(name), body)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("warning: cannot write results to {}: {e}", args.out_dir.display());
    }
    println!("{}", one_line(&detail));
    println!("{}", one_line(&result));
    if invalid {
        std::process::exit(4);
    }
}
