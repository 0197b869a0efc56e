//! The daemon workload, `serve-mix`: a `bagsched-server` process driven
//! through `bagsched_server::Client` by a closed loop over one
//! connection, which waits for its schedule before sending the next
//! request.
//!
//! The connection owns two hot shapes (tight clustered n=120, m=40) and
//! walks a fixed pattern: half exact repeats of its hot shapes (hits), a
//! fifth jittered copies of them (near hits), the rest unique shapes
//! (misses). Unique shapes outnumber the 64 cache slots, so inserts and
//! evictions run beside the hits.

use bagsched::eptas::obs::Recorder;
use bagsched::eptas::{EptasConfig, EptasResult, Solver};
use bagsched::types::{
    gen, lowerbound::lower_bounds, CacheTag, Instance, MachineId, Schedule, SolveRequest,
};
use bagsched_server::{Client, StatsReply};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::inproc::{is_near_copy, jittered, solve_op, tag_of, CACHE_CAPACITY};
use crate::layers::{stage_replay, Attribution};
use crate::reference::Reference;
use crate::sample::{check_schedule, smooth_reference, Failure, Op};
use crate::{Checks, EPSILON};

/// Client connections. One caller at a time keeps the reference kernel,
/// timed between its requests, from competing with the daemon's solves
/// for the two cores.
pub const CONNECTIONS: usize = 1;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Hot shapes per connection.
const HOT: usize = 2;
/// The request pattern each connection repeats after warming its hot
/// shapes: 5 hits, 2 near hits, 3 misses.
const PATTERN: [CacheTag; 10] = [
    CacheTag::Hit,
    CacheTag::Miss,
    CacheTag::Hit,
    CacheTag::Near,
    CacheTag::Hit,
    CacheTag::Miss,
    CacheTag::Hit,
    CacheTag::Hit,
    CacheTag::Near,
    CacheTag::Miss,
];
/// Stage-replayed cold solves of the mirrored stream (the first ones of
/// each connection): enough for the pipeline ratio, cheap enough for the
/// traced run's time budget.
const STAGE_REPLAYS_PER_CONNECTION: usize = 4;

/// Cells of the stream: each hot shape of each connection (its hits and
/// near hits), and the unique shapes (the misses). The hot shapes differ
/// in cost, so a median over both would sit in the gap between them.
pub const CELLS: usize = CONNECTIONS * (HOT + 1);

/// One planned request.
pub struct Req {
    pub req: SolveRequest,
    pub lower_bound: f64,
    /// The cache outcome the stream was built to produce.
    pub planned: CacheTag,
    /// The cell its operation counts under.
    pub cell: usize,
}

/// One connection's requests: its hot shapes' first solves, sent before
/// timing starts, then the pattern.
pub struct Conn {
    pub warm: Vec<Req>,
    pub timed: Vec<Req>,
}

/// The request stream: one ordered list per connection.
pub struct Stream {
    pub conns: Vec<Conn>,
}

fn shape(seed: u64, unit: f64) -> Instance {
    gen::clustered(120, 40, 40, 5, seed).scaled(unit)
}

/// Build the stream: `per_conn` timed requests per connection, shapes
/// generated from `cell_seed`, sizes in `unit`s. A shorter stream is a
/// prefix of a longer one, connection by connection.
pub fn stream(cell_seed: u64, unit: f64, per_conn: usize, checks: &mut Checks) -> Stream {
    let base = cell_seed * 1_000_000;
    let conns = (0..CONNECTIONS)
        .map(|c| {
            let seeds = base + (c as u64) * 100_000;
            let hot: Vec<Instance> = (0..HOT).map(|h| shape(seeds + h as u64, unit)).collect();
            let mut next_id = (c * (HOT + per_conn)) as u64;
            let mut req = |inst: Instance, planned: CacheTag, cell: usize| {
                next_id += 1;
                let lower_bound = lower_bounds(&inst).combined();
                let req = SolveRequest {
                    id: next_id,
                    epsilon: EPSILON,
                    deadline_ms: None,
                    instance: inst,
                };
                Req { req, lower_bound, planned, cell: c * (HOT + 1) + cell }
            };
            let warm = hot
                .iter()
                .enumerate()
                .map(|(h, inst)| req(inst.clone(), CacheTag::Miss, h))
                .collect();
            let (mut misses, mut nears) = (0u64, 0u32);
            let timed = (0..per_conn)
                .map(|i| {
                    let (h, hot_shape) = (i % HOT, &hot[i % HOT]);
                    match PATTERN[i % PATTERN.len()] {
                        CacheTag::Hit => req(hot_shape.clone(), CacheTag::Hit, h),
                        CacheTag::Near => {
                            // A distinct jitter per request keeps every near
                            // copy an exact miss.
                            nears += 1;
                            let near = jittered(hot_shape, nears);
                            let ok = is_near_copy(hot_shape, &near);
                            checks.expect(ok, "near-copy-shape", "serve stream");
                            req(near, CacheTag::Near, h)
                        }
                        CacheTag::Miss => {
                            misses += 1;
                            req(shape(seeds + 1_000 + misses, unit), CacheTag::Miss, HOT)
                        }
                    }
                })
                .collect();
            Conn { warm, timed }
        })
        .collect();
    Stream { conns }
}

/// A running `bagsched-server` child process.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Start the daemon on a free port and wait until it answers `ping`.
    /// `slow_us` 0 installs no recorder anywhere in the daemon.
    pub fn start(bin: &Path, slow_us: u64) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .args(["--cache", &CACHE_CAPACITY.to_string(), "--epsilon", &EPSILON.to_string()])
            .args(["--solver-threads", "1", "--slow-us", &slow_us.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(n), Some(addr)) if n > 0 => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not report its address (got {line:?})"));
            }
        };
        let daemon = Daemon { child, _stdout: stdout, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(daemon.addr.as_str())
                .and_then(|mut c| c.ping().map_err(|e| std::io::Error::other(e.to_string())))
            {
                Ok(ack) if ack.ok => return Ok(daemon),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                other => return Err(format!("daemon did not answer ping: {other:?}")),
            }
        }
    }

    /// Peak resident memory of the daemon so far (VmHWM), MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let ack = Client::connect(self.addr.as_str())
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (ack, status.success()) {
                    (Ok(a), true) if a.ok => Ok(()),
                    (ack, _) => Err(format!("daemon shutdown: ack {ack:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Check one daemon reply against its request.
fn check_reply(r: &Req, resp: &bagsched::types::SolveResponse) -> Option<Failure> {
    if !resp.ok {
        return Some(Failure::Error(resp.error.clone().unwrap_or_default()));
    }
    let inst = &r.req.instance;
    let m = inst.num_machines();
    if resp.assignment.len() != inst.num_jobs() || resp.assignment.iter().any(|&i| i as usize >= m)
    {
        return Some(Failure::InvalidSchedule("assignment does not fit the instance".into()));
    }
    let schedule =
        Schedule::from_assignment(resp.assignment.iter().map(|&i| MachineId(i)).collect(), m);
    check_schedule(inst, &schedule, resp.makespan)
}

/// Send one request and time it from the caller's side.
fn send(client: &mut Client, r: &Req) -> Op {
    let t = Instant::now();
    let reply = client.solve(&r.req);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    match reply {
        Ok(resp) => Op {
            tag: resp.cache,
            latency_ms,
            solver_ms: resp.elapsed_us as f64 / 1e3,
            ratio: resp.makespan / r.lower_bound,
            failure: check_reply(r, &resp),
            cell: r.cell,
            ref_ms: f64::NAN,
        },
        Err(e) => Op::error(e.to_string(), latency_ms, r.cell),
    }
}

/// One pass of the stream through a daemon.
pub struct Pass {
    /// The warm-up operations, one list per connection.
    pub warm: Vec<Vec<Op>>,
    /// The timed operations, one list per connection.
    pub timed: Vec<Vec<Op>>,
    /// Wall time of the timed part, seconds.
    pub wall_s: f64,
    pub stats: StatsReply,
    /// Client-observed latency of the `stats` call, ms.
    pub stats_ms: f64,
    pub peak_rss_mb: f64,
}

impl Pass {
    /// Every timed operation.
    pub fn timed_ops(&self) -> Vec<Op> {
        self.timed.iter().flatten().cloned().collect()
    }

    /// Every operation, warm-up included.
    pub fn all_ops(&self) -> Vec<Op> {
        self.warm.iter().chain(&self.timed).flatten().cloned().collect()
    }
}

/// Warm every connection's hot shapes, then drive the first `limit` timed
/// requests of all connections at once.
pub fn pass(daemon: &Daemon, stream: &Stream, limit: usize) -> Result<Pass, String> {
    // Timing starts when every connection has warmed its hot shapes.
    let barrier = Barrier::new(CONNECTIONS);
    type ConnOps = (Vec<Op>, Vec<Op>, f64);
    let per_conn: Vec<Result<ConnOps, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .conns
            .iter()
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let warmed = Client::connect(daemon.addr.as_str())
                        .map_err(|e| e.to_string())
                        .map(|mut client| {
                            let warm: Vec<Op> =
                                conn.warm.iter().map(|r| send(&mut client, r)).collect();
                            (client, warm)
                        });
                    // Every connection reaches the barrier, failed or not.
                    barrier.wait();
                    let (mut client, warm) = warmed?;
                    let mut reference = Reference::new();
                    let start = Instant::now();
                    let mut timed = Vec::new();
                    for r in conn.timed.iter().take(limit) {
                        let mut op = send(&mut client, r);
                        // The worker answers the ping once it is done with
                        // the request, so the kernel runs on an idle daemon.
                        client.ping().map_err(|e| e.to_string())?;
                        op.ref_ms = reference.time();
                        timed.push(op);
                    }
                    smooth_reference(&mut timed);
                    Ok((warm, timed, start.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let (mut warm, mut timed, mut wall_s) = (Vec::new(), Vec::new(), 0f64);
    for conn in per_conn {
        let (w, t, s) = conn?;
        warm.push(w);
        timed.push(t);
        wall_s = wall_s.max(s);
    }
    let mut client = Client::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let stats = client.stats().map_err(|e| e.to_string())?;
    let stats_ms = t.elapsed().as_secs_f64() * 1e3;
    let peak_rss_mb = daemon.peak_rss_mb().ok_or("cannot read the daemon's VmHWM")?;
    Ok(Pass { warm, timed, wall_s, stats, stats_ms, peak_rss_mb })
}

/// The engagement checks of a pass: every cache outcome occurs, the
/// stream produced the outcomes it was built for, and the daemon's own
/// counters agree with the client's per-tag counts.
pub fn check_pass(stream: &Stream, p: &Pass, checks: &mut Checks) {
    let timed = p.timed_ops();
    let count = |ops: &[Op], tag| ops.iter().filter(|op| op.tag == tag).count() as u64;
    let all_seen =
        [CacheTag::Hit, CacheTag::Near, CacheTag::Miss].iter().all(|&t| count(&timed, t) > 0);
    checks.expect(all_seen, "all-cache-outcomes", "serve-mix");
    let planned = stream.conns.iter().zip(p.warm.iter().zip(&p.timed)).all(|(conn, (w, t))| {
        let reqs = conn.warm.iter().chain(&conn.timed);
        reqs.zip(w.iter().chain(t)).all(|(r, op)| r.planned == op.tag)
    });
    checks.expect(planned, "outcomes-as-planned", "serve-mix");
    let all = p.all_ops();
    let (hits, nears, misses) =
        (count(&all, CacheTag::Hit), count(&all, CacheTag::Near), count(&all, CacheTag::Miss));
    let s = &p.stats;
    let agree = s.cache_hits == hits && s.near_hits == nears && s.cache_misses == nears + misses;
    checks.expect(agree, "daemon-stats-agree", "serve-mix");
}

/// The in-process mirror of the stream: the same requests through one
/// cached `Solver` shared by one thread per connection, with a recorder
/// installed, so the daemon workload gets the same per-layer attribution
/// as the in-process ones.
pub struct Mirror {
    pub ops: Vec<Op>,
    pub attribution: Attribution,
    pub trace: String,
}

pub fn mirror(stream: &Stream, limit: usize, cfg: &EptasConfig, checks: &mut Checks) -> Mirror {
    let solver = Solver::with_cache(cfg.clone(), CACHE_CAPACITY);
    let rec = Recorder::new();
    let reqs = |c: usize| {
        let conn = &stream.conns[c];
        conn.warm.iter().chain(conn.timed.iter().take(limit)).collect::<Vec<_>>()
    };
    let results: Vec<Vec<(Op, Option<EptasResult>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..stream.conns.len())
            .map(|c| {
                let (solver, handle, reqs) = (&solver, rec.handle(), reqs(c));
                scope.spawn(move || {
                    let _obs = handle.install(&format!("conn-{c}"));
                    let solve = |r: &&Req| solve_op(solver, &r.req.instance, r.lower_bound, r.cell);
                    reqs.iter().map(solve).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mirror thread panicked")).collect()
    });
    // The recorder's profile, not the per-solve ones: with two threads
    // solving at once, a solve's profile also holds the other's spans.
    let mut attribution = Attribution { profile: rec.profile(), ..Attribution::default() };
    let mut ops = Vec::new();
    for (c, results) in results.into_iter().enumerate() {
        let mut replays = 0;
        for (r, (op, res)) in reqs(c).into_iter().zip(results) {
            ops.push(op);
            let Some(res) = res else { continue };
            attribution.add(&res);
            if tag_of(&res) == CacheTag::Hit || replays >= STAGE_REPLAYS_PER_CONNECTION {
                continue;
            }
            replays += 1;
            let inst = &r.req.instance;
            match res.report.chosen_guess.map(|g| stage_replay(cfg, inst, g, r.lower_bound)) {
                Some(Ok(stage)) => attribution.stages.push(stage),
                Some(Err(e)) => checks.fail("stage-replay", &e),
                None => checks.fail("stage-replay", "no chosen guess"),
            }
        }
    }
    Mirror { ops, attribution, trace: rec.chrome_trace() }
}
