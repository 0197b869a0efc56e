//! End-to-end tests against an in-process daemon on an ephemeral port:
//! cache behavior over the wire, hostile-input handling at the socket
//! level, load-generator integration, and shutdown.

use bagsched_server::load::{self, LoadConfig};
use bagsched_server::protocol::{read_frame, write_frame, Ack, Client, MAX_FRAME};
use bagsched_server::server::{serve, ServerConfig, ServerHandle};
use bagsched_types::{gen, CacheTag, SolveRequest};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn start() -> ServerHandle {
    serve(&ServerConfig::default()).expect("bind ephemeral port")
}

#[test]
fn solve_twice_hits_cache_with_identical_answer() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let req = SolveRequest {
        id: 1,
        epsilon: 0.5,
        deadline_ms: None,
        instance: gen::uniform(24, 3, 8, 5),
    };

    let cold = client.solve(&req).unwrap();
    assert!(cold.ok, "{:?}", cold.error);
    assert_ne!(cold.cache, CacheTag::Hit, "first solve of a shape must miss");
    assert_eq!(cold.assignment.len(), 24);

    let warm = client.solve(&SolveRequest { id: 2, ..req }).unwrap();
    assert!(warm.ok);
    assert_eq!(warm.cache, CacheTag::Hit, "second solve of the same shape must hit");
    assert_eq!(warm.id, 2);
    assert_eq!(warm.assignment, cold.assignment, "replay must be byte-identical");
    assert_eq!(warm.makespan.to_bits(), cold.makespan.to_bits());

    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cached_states, 1);
    assert_eq!(stats.requests, 3, "two solves + this stats call");
    assert_eq!(stats.coalesced_waits, 0, "sequential requests never wait on a leader");
    server.shutdown();
}

#[test]
fn stats_op_serves_latency_metrics_and_slow_ring() {
    // Threshold of 1 µs: every solve is "slow", so the ring fills and
    // each entry carries the phase profile of its solve.
    let server = serve(&ServerConfig { slow_us: 1, ..ServerConfig::default() }).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let req = SolveRequest {
        id: 31,
        epsilon: 0.5,
        deadline_ms: None,
        instance: gen::uniform(24, 3, 8, 7),
    };
    let cold = client.solve(&req).unwrap();
    assert!(cold.ok);
    assert!(cold.elapsed_us > 0, "server must report its own latency");
    assert_eq!(cold.cache.as_str(), "miss");
    let warm = client.solve(&SolveRequest { id: 32, ..req }).unwrap();
    assert_eq!(warm.cache.as_str(), "hit");
    assert!(client.ping().unwrap().ok);

    let stats = client.stats().unwrap();
    assert_eq!(stats.inflight, 0, "nothing in flight between requests");
    assert_eq!(stats.solver_panics, 0, "no solve panicked");
    // Both ops that ran have a latency summary; quantiles are ordered.
    let solve = stats.ops.iter().find(|o| o.op == "solve").expect("solve op summary");
    assert_eq!(solve.count, 2);
    assert!(solve.p50_us <= solve.p99_us && solve.p99_us <= solve.p999_us);
    assert!(solve.p999_us <= solve.max_us);
    assert!(stats.ops.iter().any(|o| o.op == "ping"));
    // The slow ring holds both solves, oldest first, with phase rows
    // on the cold one (the hit replays and runs no solver phases).
    assert_eq!(stats.slow.len(), 2);
    assert_eq!(stats.slow[0].id, 31);
    assert_eq!(stats.slow[1].id, 32);
    assert_eq!(stats.slow[1].cache.as_str(), "hit");
    assert!(
        stats.slow[0].phases.iter().any(|p| p.name == "guess"),
        "cold solve must profile its guess search: {:?}",
        stats.slow[0].phases
    );
    server.shutdown();
}

#[test]
fn slow_ring_disabled_at_zero_threshold() {
    let server = serve(&ServerConfig { slow_us: 0, ..ServerConfig::default() }).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let req = SolveRequest {
        id: 41,
        epsilon: 0.5,
        deadline_ms: None,
        instance: gen::uniform(24, 3, 8, 9),
    };
    assert!(client.solve(&req).unwrap().ok);
    let stats = client.stats().unwrap();
    assert!(stats.slow.is_empty(), "threshold 0 must disable the ring");
    assert!(stats.ops.iter().any(|o| o.op == "solve"), "histograms stay on");
    server.shutdown();
}

#[test]
fn per_request_deadline_is_honoured_on_the_wire() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    // A zero deadline cancels every EPTAS guess instantly; the portfolio's
    // LPT arm must still answer with a full feasible assignment.
    let req = SolveRequest {
        id: 5,
        epsilon: 0.5,
        deadline_ms: Some(0),
        instance: gen::uniform(24, 3, 8, 5),
    };
    let resp = client.solve(&req).unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.assignment.len(), 24);
    assert!(resp.makespan > 0.0);
    server.shutdown();
}

#[test]
fn slow_peer_dribbling_a_frame_is_served_not_dropped() {
    let server = start();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let payload = br#"{"op": "ping"}"#;
    // Send the header, stall past the server's read-poll interval, then
    // send the body: the worker must keep waiting (no shutdown pending)
    // instead of treating the timeout tick as a broken frame.
    raw.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(400));
    raw.write_all(payload).unwrap();
    raw.flush().unwrap();
    let reply = read_frame(&mut raw).unwrap().expect("server must answer the completed frame");
    let ack: Ack = bagsched_server::protocol::decode(&reply).unwrap();
    assert!(ack.ok, "a slow but well-formed frame must be served: {:?}", ack.error);
    server.shutdown();
}

#[test]
fn shutdown_drains_despite_a_peer_stalled_mid_frame() {
    let server = start();
    let addr = server.addr();
    // Occupy a worker with a half-sent frame that never completes.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(&100u32.to_be_bytes()).unwrap();
    stalled.write_all(b"abc").unwrap();
    stalled.flush().unwrap();
    // Give a worker time to adopt the connection and park mid-frame.
    std::thread::sleep(Duration::from_millis(100));
    let mut client = Client::connect(addr).unwrap();
    assert!(client.shutdown().unwrap().ok);
    // The worker polls the stop flag between header and body, so the
    // drain completes within a poll interval instead of hanging.
    server.wait();
}

#[test]
fn infeasible_instance_is_an_error_response_not_a_crash() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    // Two jobs of one bag on one machine: no feasible schedule exists.
    let req = SolveRequest {
        id: 9,
        epsilon: 0.5,
        deadline_ms: None,
        instance: bagsched_types::Instance::new(&[(1.0, 0), (1.0, 0)], 1),
    };
    let resp = client.solve(&req).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.is_some());
    assert!(resp.assignment.is_empty());
    // The connection and server both survive.
    assert!(client.ping().unwrap().ok);
    server.shutdown();
}

#[test]
fn machine_count_at_the_u32_limit_is_answered_and_the_daemon_lives() {
    let server = start();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // Two jobs on 2^32 - 1 machines: per-machine tables of that size
    // cannot be allocated, and a failed allocation aborts the process.
    let request = br#"{"op":"solve","request":{"id":5,"epsilon":0.5,"instance":{"jobs":[{"id":0,"size":2.0,"bag":0},{"id":1,"size":1.0,"bag":1}],"machines":4294967295,"num_bags":2}}}"#;
    write_frame(&mut raw, request).unwrap();
    let reply = read_frame(&mut raw).unwrap().expect("the daemon answers");
    let resp: bagsched_types::SolveResponse = bagsched_server::protocol::decode(&reply).unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.makespan, 2.0);
    assert_eq!(resp.assignment.len(), 2);
    assert_ne!(resp.assignment[0], resp.assignment[1]);
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.ping().unwrap().ok);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_rejected() {
    let server = start();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // A prefix promising 4 GiB must be refused before allocation.
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    raw.flush().unwrap();
    let reply = read_frame(&mut raw).unwrap().expect("server answers before dropping");
    let ack: Ack = bagsched_server::protocol::decode(&reply).unwrap();
    assert!(!ack.ok);
    assert!(ack.error.unwrap().contains(&MAX_FRAME.to_string()));
    // The connection is dropped (framing was unrecoverable) but the
    // server keeps serving new connections.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.ping().unwrap().ok);
    server.shutdown();
}

#[test]
fn truncated_frame_does_not_wedge_the_server() {
    let server = start();
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        // Promise 100 bytes, send 10, hang up mid-frame.
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(b"0123456789").unwrap();
        raw.flush().unwrap();
    }
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.ping().unwrap().ok);
    let stats = client.stats().unwrap();
    assert!(stats.protocol_errors >= 1, "the truncated frame must be counted");
    server.shutdown();
}

#[test]
fn malformed_json_gets_error_ack_and_connection_survives() {
    let server = start();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, b"{this is not json").unwrap();
    let reply = read_frame(&mut raw).unwrap().unwrap();
    let ack: Ack = bagsched_server::protocol::decode(&reply).unwrap();
    assert!(!ack.ok);
    // Well-formed frame with an unknown op: also a polite error.
    write_frame(&mut raw, br#"{"op": "mine-bitcoin"}"#).unwrap();
    let reply = read_frame(&mut raw).unwrap().unwrap();
    let ack: Ack = bagsched_server::protocol::decode(&reply).unwrap();
    assert!(!ack.ok);
    assert!(ack.error.unwrap().contains("mine-bitcoin"));
    // Same connection still serves valid requests: framing stayed in sync.
    write_frame(&mut raw, br#"{"op": "ping"}"#).unwrap();
    let reply = read_frame(&mut raw).unwrap().unwrap();
    let ack: Ack = bagsched_server::protocol::decode(&reply).unwrap();
    assert!(ack.ok);
    server.shutdown();
}

#[test]
fn load_generator_quick_run_sees_hits() {
    let server = start();
    let cfg = LoadConfig { addr: server.addr().to_string(), ..LoadConfig::quick() };
    let report = load::run(&cfg).unwrap();
    assert_eq!(report.errors, 0);
    assert_eq!(report.completed, cfg.requests as u64);
    assert!(report.hits >= 1, "quick workload repeats shapes, so hits must appear");
    assert!(report.misses >= 1);
    assert_eq!(report.server.cache_hits, report.hits, "client and server must agree");
    assert!(report.hit_latency.is_some() && report.miss_latency.is_some());
    assert!(report.throughput_rps > 0.0);
    // A fresh identical run must pass the baseline gate against itself.
    let again = load::run(&cfg).unwrap();
    assert!(load::compare(&again, &report).is_ok());
    server.shutdown();
}

#[test]
fn open_loop_mode_completes() {
    let server = start();
    let cfg = LoadConfig {
        addr: server.addr().to_string(),
        requests: 10,
        concurrency: 2,
        open_loop_rps: Some(200.0),
        ..LoadConfig::quick()
    };
    let report = load::run(&cfg).unwrap();
    assert_eq!(report.completed + report.errors, 10);
    assert_eq!(report.errors, 0);
    server.shutdown();
}

#[test]
fn shutdown_op_terminates_the_daemon() {
    let server = start();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    assert!(client.shutdown().unwrap().ok);
    // wait() returns promptly once the acceptor and workers drain.
    server.wait();
    // New connections are refused (or accepted by the dying listener and
    // never served); either way a solve round-trip must fail.
    if let Ok(mut c) = Client::connect(addr) {
        assert!(c.ping().is_err());
    }
}
