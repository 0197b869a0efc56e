//! Length-prefixed JSON wire protocol and the blocking client.
//!
//! Every frame is a big-endian `u32` byte length followed by that many
//! bytes of UTF-8 JSON, capped at [`MAX_FRAME`]. Requests are tagged
//! objects (`{"op": "solve", "request": {...}}`); replies are the bare
//! payload for the op ([`SolveResponse`], [`StatsReply`], [`Ack`]).
//!
//! Hostile input is a first-class case: an oversized length prefix is
//! rejected before any allocation, a truncated frame surfaces as a
//! protocol error (the connection is dropped — framing is out of sync),
//! and malformed JSON inside a well-formed frame gets an error [`Ack`]
//! while the connection stays usable. The vendored `serde_json` parser
//! plus the validating `Instance` deserializer turn garbage into typed
//! errors, never panics.

use bagsched_types::{CacheTag, SolveRequest, SolveResponse};
use serde::{Deserialize, DeserializeError, Serialize, Value};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Hard cap on frame payloads (16 MiB): far above any real instance,
/// small enough that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// Transport failure (includes mid-frame EOF: framing is unrecoverable).
    Io(io::Error),
    /// No frame started within the socket's read timeout. Only surfaces
    /// on sockets with a read timeout set (the server's poll loop); the
    /// stream is still at a frame boundary and it is safe to retry.
    Idle,
    /// [`read_frame_polled`]'s `keep_waiting` said to give up (server
    /// shutdown). May strike mid-frame; the connection is done either
    /// way.
    Stopped,
    /// The length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// The payload was not UTF-8.
    BadUtf8,
    /// The payload was not the expected JSON shape.
    BadJson(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::Idle => write!(f, "no frame within the read timeout"),
            ProtocolError::Stopped => write!(f, "read abandoned: the server is stopping"),
            ProtocolError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            ProtocolError::BadUtf8 => write!(f, "frame payload is not valid UTF-8"),
            ProtocolError::BadJson(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` means the peer closed the connection
/// cleanly at a frame boundary; EOF anywhere else is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no frame at all) from a truncated prefix,
    // and a pre-frame read timeout (retryable) from a mid-frame one
    // (framing lost).
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(ProtocolError::Idle)
            }
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Read one frame on a socket with a read timeout, consulting
/// `keep_waiting` on every timeout tick — *including between the length
/// prefix and the body*. `read_frame` only re-checks the caller's stop
/// condition at frame boundaries, so a peer that sends a prefix and then
/// stalls would pin the worker until the peer hangs up; this variant
/// honours a shutdown within one poll interval no matter where in the
/// frame the stream stands. `Ok(None)` is a clean EOF at a frame
/// boundary; [`ProtocolError::Stopped`] means `keep_waiting` said no.
pub fn read_frame_polled(
    r: &mut impl Read,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    // First byte: the one place a clean EOF is allowed.
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if keep_waiting() {
                    continue;
                }
                return Err(ProtocolError::Stopped);
            }
            Err(e) => return Err(e.into()),
        }
    }
    read_exact_polled(r, &mut len_buf[1..], keep_waiting)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut buf = vec![0u8; len];
    read_exact_polled(r, &mut buf, keep_waiting)?;
    Ok(Some(buf))
}

/// `read_exact` that treats a read-timeout tick as a chance to ask
/// `keep_waiting`, and mid-frame EOF as the framing error it is.
fn read_exact_polled(
    r: &mut impl Read,
    buf: &mut [u8],
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<(), ProtocolError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ProtocolError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if keep_waiting() {
                    continue;
                }
                return Err(ProtocolError::Stopped);
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Serialize a wire type to a frame payload. Infallible for the types
/// this crate sends: every float they carry is finite.
pub fn encode<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string_pretty(value).expect("wire types hold only finite numbers").into_bytes()
}

/// Decode a frame payload into a wire type.
pub fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, ProtocolError> {
    let text = std::str::from_utf8(payload).map_err(|_| ProtocolError::BadUtf8)?;
    serde_json::from_str(text).map_err(|e| ProtocolError::BadJson(e.to_string()))
}

/// A client request: one tagged operation per frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve an instance (the workhorse op).
    Solve(SolveRequest),
    /// Fetch server lifetime counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the daemon to stop accepting and drain.
    Shutdown,
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Solve(req) => Value::Obj(vec![
                ("op".into(), Value::Str("solve".into())),
                ("request".into(), req.to_value()),
            ]),
            Request::Stats => Value::Obj(vec![("op".into(), Value::Str("stats".into()))]),
            Request::Ping => Value::Obj(vec![("op".into(), Value::Str("ping".into()))]),
            Request::Shutdown => Value::Obj(vec![("op".into(), Value::Str("shutdown".into()))]),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        let op = String::from_value(v.field("op")?)?;
        match op.as_str() {
            "solve" => Ok(Request::Solve(SolveRequest::from_value(v.field("request")?)?)),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(DeserializeError::new(format!("unknown op `{other}`"))),
        }
    }
}

/// Generic acknowledgement (ping/shutdown replies, protocol errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// Whether the request was understood and acted on.
    pub ok: bool,
    /// Failure reason when `ok` is `false`.
    pub error: Option<String>,
}

impl Ack {
    /// A positive acknowledgement.
    pub fn ok() -> Self {
        Ack { ok: true, error: None }
    }

    /// A refusal with a reason.
    pub fn err(msg: impl Into<String>) -> Self {
        Ack { ok: false, error: Some(msg.into()) }
    }
}

impl Serialize for Ack {
    fn to_value(&self) -> Value {
        Value::Obj(vec![("ok".into(), self.ok.to_value()), ("error".into(), self.error.to_value())])
    }
}

impl Deserialize for Ack {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        Ok(Ack {
            ok: bool::from_value(v.field("ok")?)?,
            error: Option::<String>::from_value(v.field("error")?)?,
        })
    }
}

/// Latency summary for one op, from the daemon's log2-bucketed
/// histogram: quantiles are interpolated (exact at bucket boundaries,
/// within 2x elsewhere), the max is exact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpLatency {
    /// The op name (`solve`, `stats`, `ping`).
    pub op: String,
    /// Requests of this op the daemon has timed.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// Slowest single request, microseconds (exact).
    pub max_us: u64,
}

impl Serialize for OpLatency {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("op".into(), self.op.to_value()),
            ("count".into(), self.count.to_value()),
            ("p50_us".into(), self.p50_us.to_value()),
            ("p99_us".into(), self.p99_us.to_value()),
            ("p999_us".into(), self.p999_us.to_value()),
            ("max_us".into(), self.max_us.to_value()),
        ])
    }
}

impl Deserialize for OpLatency {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        Ok(OpLatency {
            op: String::from_value(v.field("op")?)?,
            count: u64::from_value(v.field("count")?)?,
            p50_us: u64::from_value(v.field("p50_us")?)?,
            p99_us: u64::from_value(v.field("p99_us")?)?,
            p999_us: u64::from_value(v.field("p999_us")?)?,
            max_us: u64::from_value(v.field("max_us")?)?,
        })
    }
}

/// One phase row inside a [`SlowRequest`] (times in microseconds; the
/// daemon records nanoseconds internally but the wire stays coarse).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlowPhase {
    /// Dotted phase name (see the span taxonomy in the README).
    pub name: String,
    /// Span occurrences of this phase within the solve.
    pub count: u64,
    /// Summed wall time of those spans, microseconds.
    pub total_us: u64,
}

impl Serialize for SlowPhase {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".into(), self.name.to_value()),
            ("count".into(), self.count.to_value()),
            ("total_us".into(), self.total_us.to_value()),
        ])
    }
}

impl Deserialize for SlowPhase {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        Ok(SlowPhase {
            name: String::from_value(v.field("name")?)?,
            count: u64::from_value(v.field("count")?)?,
            total_us: u64::from_value(v.field("total_us")?)?,
        })
    }
}

/// One entry of the slow-request ring: a solve whose latency crossed
/// the daemon's `--slow-us` threshold, with its phase profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlowRequest {
    /// The request id the client sent.
    pub id: u64,
    /// Server-side latency, microseconds.
    pub micros: u64,
    /// How the solver-state cache treated the request.
    pub cache: CacheTag,
    /// Where the time went, one row per phase that fired.
    pub phases: Vec<SlowPhase>,
}

impl Serialize for SlowRequest {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), self.id.to_value()),
            ("micros".into(), self.micros.to_value()),
            ("cache".into(), self.cache.as_str().to_string().to_value()),
            ("phases".into(), self.phases.to_value()),
        ])
    }
}

impl Deserialize for SlowRequest {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        let cache = match String::from_value(v.field("cache")?)?.as_str() {
            "hit" => CacheTag::Hit,
            "near" => CacheTag::Near,
            "miss" => CacheTag::Miss,
            other => {
                return Err(DeserializeError::new(format!(
                    "cache tag must be hit|near|miss, got {other:?}"
                )))
            }
        };
        Ok(SlowRequest {
            id: u64::from_value(v.field("id")?)?,
            micros: u64::from_value(v.field("micros")?)?,
            cache,
            phases: Vec::<SlowPhase>::from_value(v.field("phases")?)?,
        })
    }
}

/// Server lifetime counters and latency metrics, as answered to the
/// `stats` op.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReply {
    /// Well-formed requests handled (all ops).
    pub requests: u64,
    /// Frames rejected at the protocol layer.
    pub protocol_errors: u64,
    /// Solver-state cache hits.
    pub cache_hits: u64,
    /// Solver-state cache misses.
    pub cache_misses: u64,
    /// Solver-state cache evictions.
    pub cache_evictions: u64,
    /// States currently resident in the cache.
    pub cached_states: u64,
    /// Requests that waited for an in-flight solve of the same shape
    /// instead of duplicating it (request coalescing).
    pub coalesced_waits: u64,
    /// Misses whose search was seeded by a similar cached state
    /// (similarity-tier near hits).
    pub near_hits: u64,
    /// Solves being worked on right now (gauge, not a counter).
    pub inflight: u64,
    /// Solves that panicked; each was answered with an error and its
    /// worker kept serving.
    pub solver_panics: u64,
    /// Seconds since the daemon started.
    pub uptime_secs: u64,
    /// Per-op latency summaries; ops with no traffic are omitted.
    pub ops: Vec<OpLatency>,
    /// The slow-request ring, oldest first (empty when `--slow-us 0`).
    pub slow: Vec<SlowRequest>,
}

impl Serialize for StatsReply {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("requests".into(), self.requests.to_value()),
            ("protocol_errors".into(), self.protocol_errors.to_value()),
            ("cache_hits".into(), self.cache_hits.to_value()),
            ("cache_misses".into(), self.cache_misses.to_value()),
            ("cache_evictions".into(), self.cache_evictions.to_value()),
            ("cached_states".into(), self.cached_states.to_value()),
            ("coalesced_waits".into(), self.coalesced_waits.to_value()),
            ("near_hits".into(), self.near_hits.to_value()),
            ("inflight".into(), self.inflight.to_value()),
            ("solver_panics".into(), self.solver_panics.to_value()),
            ("uptime_secs".into(), self.uptime_secs.to_value()),
            ("ops".into(), self.ops.to_value()),
            ("slow".into(), self.slow.to_value()),
        ])
    }
}

impl Deserialize for StatsReply {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        Ok(StatsReply {
            requests: u64::from_value(v.field("requests")?)?,
            protocol_errors: u64::from_value(v.field("protocol_errors")?)?,
            cache_hits: u64::from_value(v.field("cache_hits")?)?,
            cache_misses: u64::from_value(v.field("cache_misses")?)?,
            cache_evictions: u64::from_value(v.field("cache_evictions")?)?,
            cached_states: u64::from_value(v.field("cached_states")?)?,
            coalesced_waits: u64::from_value(v.field("coalesced_waits")?)?,
            near_hits: u64::from_value(v.field("near_hits")?)?,
            inflight: u64::from_value(v.field("inflight")?)?,
            solver_panics: u64::from_value(v.field("solver_panics")?)?,
            uptime_secs: u64::from_value(v.field("uptime_secs")?)?,
            ops: Vec::<OpLatency>::from_value(v.field("ops")?)?,
            slow: Vec::<SlowRequest>::from_value(v.field("slow")?)?,
        })
    }
}

/// A blocking client over one TCP connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn round_trip<T: Deserialize>(&mut self, req: &Request) -> Result<T, ProtocolError> {
        write_frame(&mut self.stream, &encode(req))?;
        let frame = read_frame(&mut self.stream)?.ok_or_else(|| {
            ProtocolError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ))
        })?;
        decode(&frame)
    }

    /// Solve one instance.
    pub fn solve(&mut self, req: &SolveRequest) -> Result<SolveResponse, ProtocolError> {
        self.round_trip(&Request::Solve(req.clone()))
    }

    /// Fetch server counters.
    pub fn stats(&mut self) -> Result<StatsReply, ProtocolError> {
        self.round_trip(&Request::Stats)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Ack, ProtocolError> {
        self.round_trip(&Request::Ping)
    }

    /// Ask the daemon to stop.
    pub fn shutdown(&mut self) -> Result<Ack, ProtocolError> {
        self.round_trip(&Request::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagsched_types::Instance;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at frame boundary");
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut r: &[u8] = &u32::MAX.to_be_bytes();
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::FrameTooLarge(_))));
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        // Prefix promises 100 bytes, stream ends after 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Io(_))));
        // Truncated *prefix* too.
        let mut r: &[u8] = &[0u8, 0];
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Io(_))));
    }

    /// Yields `data` one byte at a time, then `WouldBlock` forever —
    /// a peer that sent a frame header and stalled.
    struct Dribble {
        data: Vec<u8>,
        sent: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.sent < self.data.len() && !buf.is_empty() {
                buf[0] = self.data[self.sent];
                self.sent += 1;
                Ok(1)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
            }
        }
    }

    #[test]
    fn polled_read_stops_mid_frame_when_told_to() {
        // Header promising 100 bytes, then 3 body bytes, then a stall:
        // the old boundary-only poll would hang here until the peer hung
        // up; the polled variant must observe the stop signal mid-frame.
        let mut data = 100u32.to_be_bytes().to_vec();
        data.extend_from_slice(b"abc");
        let mut r = Dribble { data, sent: 0 };
        let mut polls = 0;
        let result = read_frame_polled(&mut r, &mut || {
            polls += 1;
            polls < 3
        });
        assert!(matches!(result, Err(ProtocolError::Stopped)));
        assert_eq!(polls, 3, "the stall must keep consulting the poll hook");
    }

    #[test]
    fn polled_read_delivers_complete_frames_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let mut r = &buf[..];
        // No stall happens, so the hook must never be consulted.
        let mut never = || panic!("no timeout tick expected on a complete frame");
        assert_eq!(read_frame_polled(&mut r, &mut never).unwrap().unwrap(), b"payload");
        assert!(read_frame_polled(&mut r, &mut || false).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn polled_read_reports_mid_frame_eof_as_io_error() {
        let mut data = 100u32.to_be_bytes().to_vec();
        data.extend_from_slice(b"abc");
        let mut r = &data[..];
        assert!(matches!(read_frame_polled(&mut r, &mut || true), Err(ProtocolError::Io(_))));
    }

    #[test]
    fn requests_roundtrip() {
        let inst = Instance::new(&[(2.0, 0), (1.0, 1)], 2);
        let ops = [
            Request::Solve(SolveRequest { id: 3, epsilon: 0.5, deadline_ms: None, instance: inst }),
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for op in &ops {
            let back: Request = decode(&encode(op)).unwrap();
            assert_eq!(&back, op);
        }
    }

    #[test]
    fn malformed_payloads_become_typed_errors() {
        assert!(matches!(decode::<Request>(b"{not json"), Err(ProtocolError::BadJson(_))));
        assert!(matches!(
            decode::<Request>(b"{\"op\": \"mine-bitcoin\"}"),
            Err(ProtocolError::BadJson(_))
        ));
        assert!(matches!(decode::<Request>(&[0xff, 0xfe]), Err(ProtocolError::BadUtf8)));
        // A solve op whose instance is structurally invalid (non-dense
        // ids, negative sizes) is rejected by the Instance deserializer.
        let bad = br#"{"op": "solve", "request": {"id": 1, "epsilon": 0.5, "instance": {"jobs": [{"id": 5, "size": -1.0, "bag": 0}], "machines": 2, "num_bags": 1}}}"#;
        assert!(matches!(decode::<Request>(bad), Err(ProtocolError::BadJson(_))));
    }

    #[test]
    fn stats_and_ack_roundtrip() {
        let s = StatsReply {
            requests: 10,
            protocol_errors: 2,
            cache_hits: 5,
            cache_misses: 4,
            cache_evictions: 1,
            cached_states: 3,
            coalesced_waits: 6,
            near_hits: 2,
            inflight: 1,
            solver_panics: 4,
            uptime_secs: 99,
            ops: vec![OpLatency {
                op: "solve".into(),
                count: 10,
                p50_us: 400,
                p99_us: 2_000,
                p999_us: 2_100,
                max_us: 2_111,
            }],
            slow: vec![SlowRequest {
                id: 7,
                micros: 2_111,
                cache: CacheTag::Near,
                phases: vec![SlowPhase { name: "guess".into(), count: 3, total_us: 1_900 }],
            }],
        };
        assert_eq!(decode::<StatsReply>(&encode(&s)).unwrap(), s);
        assert_eq!(decode::<Ack>(&encode(&Ack::ok())).unwrap(), Ack::ok());
        let e = Ack::err("nope");
        assert_eq!(decode::<Ack>(&encode(&e)).unwrap(), e);
    }
}
