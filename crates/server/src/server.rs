//! The long-running scheduling daemon.
//!
//! One acceptor thread hands accepted connections to a fixed pool of
//! worker threads over an mpsc channel; each worker owns a connection
//! for its lifetime and loops frames through the shared
//! [`Solver`]. The solver's state cache is the
//! whole point of staying resident: repeat traffic replays cached
//! pattern solutions instead of re-searching (see
//! `bagsched_core::solver`).
//!
//! Shutdown is cooperative: the `shutdown` op (or
//! [`ServerHandle::shutdown`]) raises a flag and pokes the listener with
//! a self-connection so the blocking `accept` observes it; workers drain
//! their current connections and exit when the channel closes.

use crate::metrics::{Metrics, Op, SlowEntry};
use crate::protocol::{
    decode, encode, read_frame_polled, write_frame, Ack, ProtocolError, Request, StatsReply,
};
use bagsched_core::{obs, EptasConfig, Solver};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Read-poll interval on worker connections: the latency bound between
/// the stop flag rising and idle connections being closed.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads. Each owns one connection at a time, so this also
    /// bounds concurrent connections; excess connections queue.
    pub workers: usize,
    /// Capacity of the solver-state cache.
    pub cache_capacity: usize,
    /// Default epsilon (each request carries its own; this seeds the
    /// config the per-request epsilon is spliced into).
    pub epsilon: f64,
    /// Solver threads per request. Above 1 this turns on the parallel
    /// solver seams (sharded pricing DFS and speculative guess racing)
    /// with this many shards / speculative guesses. The *shard count*
    /// is taken verbatim (it is part of the solve configuration, so
    /// answers stay machine-independent); the *thread count* actually
    /// used is clamped so `workers * solver_threads` does not
    /// oversubscribe the machine — threads never change results.
    pub solver_threads: usize,
    /// Latency threshold (microseconds) above which a solve enters the
    /// slow-request ring — with the per-phase profile captured by a
    /// per-request span recorder — served by the `stats` op. `0`
    /// disables the ring *and* the per-request recorder (the
    /// zero-overhead path); latency histograms stay on either way.
    pub slow_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            cache_capacity: 64,
            epsilon: 0.5,
            solver_threads: 1,
            slow_us: 100_000,
        }
    }
}

struct Shared {
    solver: Solver,
    addr: SocketAddr,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    metrics: Metrics,
    stop: AtomicBool,
}

/// Handle to a running daemon: its bound address plus the thread handles
/// needed to wait for or force termination.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the daemon terminates (via the `shutdown` op).
    pub fn wait(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Stop the daemon from the hosting process and wait for it.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        self.wait();
    }
}

/// Bind, spawn the worker pool, and start accepting. Returns once the
/// socket is listening; the daemon runs on background threads.
pub fn serve(cfg: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let mut ecfg = EptasConfig::with_epsilon(cfg.epsilon);
    let requested = cfg.solver_threads.max(1);
    if requested > 1 {
        // Shard/speculation counts follow the request verbatim; only the
        // thread budget is divided among the worker pool.
        let avail = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ecfg.solver_threads = requested.min((avail / cfg.workers.max(1)).max(1));
        ecfg.pricing_shards = requested;
        ecfg.speculative_guesses = requested;
    }
    let solver = Solver::with_cache(ecfg, cfg.cache_capacity);
    let shared = Arc::new(Shared {
        solver,
        addr,
        requests: AtomicU64::new(0),
        protocol_errors: AtomicU64::new(0),
        metrics: Metrics::new(cfg.slow_us),
        stop: AtomicBool::new(false),
    });

    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for i in 0..cfg.workers.max(1) {
        let rx = Arc::clone(&rx);
        let shared = Arc::clone(&shared);
        workers.push(thread::Builder::new().name(format!("bagsched-worker-{i}")).spawn(
            move || loop {
                // Take the next connection; a closed channel means the
                // acceptor is gone and the pool should drain out.
                let conn = rx.lock().unwrap().recv();
                match conn {
                    Ok(stream) => handle_connection(stream, &shared),
                    Err(_) => return,
                }
            },
        )?);
    }

    let accept_shared = Arc::clone(&shared);
    let acceptor = thread::Builder::new().name("bagsched-accept".into()).spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.stop.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                let _ = stream.set_nodelay(true);
                // A send can only fail if every worker already exited,
                // which only happens on shutdown.
                if tx.send(stream).is_err() {
                    break;
                }
            }
        }
        // Dropping the sender closes the channel; idle workers exit.
    })?;

    Ok(ServerHandle { addr, shared, acceptor, workers })
}

/// Serve one connection until the peer hangs up, a framing error forces
/// a drop, or a shutdown op arrives.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // Poll rather than block indefinitely so a raised stop flag can
    // close idle connections instead of waiting for the peer to hang up.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    loop {
        // The poll hook runs on every read-timeout tick — before a frame
        // starts *and between its header and body* — so a shutdown
        // cannot be held off by a peer that stalls mid-frame.
        let frame =
            match read_frame_polled(&mut stream, &mut || !shared.stop.load(Ordering::SeqCst)) {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(ProtocolError::Stopped) => return,
                Err(e) => {
                    // Framing is out of sync (oversized prefix, truncated
                    // payload): answer best-effort, then drop the connection.
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = write_frame(&mut stream, &encode(&Ack::err(e.to_string())));
                    return;
                }
            };
        let request = match decode::<Request>(&frame) {
            Ok(request) => request,
            Err(e) => {
                // The frame itself was well-formed, so the stream is
                // still in sync: report and keep serving.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                if write_frame(&mut stream, &encode(&Ack::err(e.to_string()))).is_err() {
                    return;
                }
                continue;
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let op_start = Instant::now();
        let reply = match request {
            Request::Solve(req) => {
                // Gauge covers the whole solve; the guard decrements on
                // every exit path.
                let _inflight = shared.metrics.enter();
                // With the slow ring enabled, a per-request recorder
                // captures the phase profile so an over-threshold solve
                // can say where its time went. With it disabled nothing
                // is installed and spans stay no-ops.
                let recorder = shared.metrics.profiling().then(obs::Recorder::new);
                let resp = {
                    let _obs = recorder.as_ref().map(|r| r.install("server-worker"));
                    shared.solver.solve(&req)
                };
                shared.metrics.record(Op::Solve, resp.elapsed_us);
                if let Some(r) = &recorder {
                    shared.metrics.offer_slow(SlowEntry {
                        id: resp.id,
                        micros: resp.elapsed_us,
                        cache: resp.cache,
                        profile: r.profile(),
                    });
                }
                encode(&resp)
            }
            Request::Stats => {
                let c = shared.solver.cache_counters();
                let reply = encode(&StatsReply {
                    requests: shared.requests.load(Ordering::Relaxed),
                    protocol_errors: shared.protocol_errors.load(Ordering::Relaxed),
                    cache_hits: c.hits,
                    cache_misses: c.misses,
                    cache_evictions: c.evictions,
                    cached_states: shared.solver.cached_states() as u64,
                    coalesced_waits: c.coalesced_waits,
                    near_hits: c.near_hits,
                    inflight: shared.metrics.inflight(),
                    uptime_secs: shared.metrics.uptime_secs(),
                    ops: shared.metrics.op_latencies(),
                    slow: shared.metrics.slow_requests(),
                });
                shared.metrics.record(Op::Stats, op_start.elapsed().as_micros() as u64);
                reply
            }
            Request::Ping => {
                shared.metrics.record(Op::Ping, op_start.elapsed().as_micros() as u64);
                encode(&Ack::ok())
            }
            Request::Shutdown => {
                let _ = write_frame(&mut stream, &encode(&Ack::ok()));
                shared.stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(shared.addr);
                return;
            }
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}
