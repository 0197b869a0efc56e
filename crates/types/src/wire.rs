//! Wire protocol types for the scheduling server.
//!
//! A [`SolveRequest`] carries one instance plus the approximation
//! parameter; a [`SolveResponse`] carries the schedule (as a dense
//! machine-assignment vector) plus cache/latency telemetry. Both travel
//! as JSON values through the vendored `serde_json`, which — together
//! with the validating [`Instance`] deserializer — is what makes the
//! protocol safe against hostile input: malformed frames become
//! `DeserializeError`s, never panics.
//!
//! [`fingerprint`] is the cache key: a 64-bit FNV-1a hash over the
//! *shape* of an instance (machine count, epsilon, and the multiset of
//! per-bag size profiles, with sizes quantized relative to the largest
//! job). Two instances that differ only by job or bag numbering — the
//! common case for repeat traffic — collide on purpose; the cache layer
//! re-validates on replay, so a collision costs a fallback, never a
//! wrong schedule.

use crate::instance::Instance;
use serde::{Deserialize, DeserializeError, Serialize, Value};

/// One solve request: an instance and the approximation parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Approximation parameter `eps` in `(0, 0.95]`.
    pub epsilon: f64,
    /// Optional portfolio deadline in milliseconds: the solver races the
    /// EPTAS against bag-aware LPT and answers with whichever arm holds
    /// the better schedule when the clock fires. Absent on the wire
    /// means no deadline (old clients keep working unchanged).
    pub deadline_ms: Option<u64>,
    /// The instance to schedule.
    pub instance: Instance,
}

/// The server's answer to one [`SolveRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Whether solving succeeded; on `false` only `error` is meaningful.
    pub ok: bool,
    /// Human-readable failure reason when `ok` is `false`.
    pub error: Option<String>,
    /// Makespan of the returned schedule (0 when `ok` is `false`).
    pub makespan: f64,
    /// Machine index for each job, indexed by dense job id (empty when
    /// `ok` is `false`).
    pub assignment: Vec<u32>,
    /// How the solver-state cache served this request: a full replay
    /// (`Hit`), a similarity-tier guess hint (`Near`), or a cold solve
    /// (`Miss`).
    pub cache: CacheTag,
    /// Wall time the server spent on this request end to end (parse,
    /// solve, schedule extraction), microseconds. Clients cross-check
    /// their own latency against this to expose queueing/transport
    /// overhead (see `bagsched-bencher`).
    pub elapsed_us: u64,
}

/// The cache outcome tag carried on every [`SolveResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheTag {
    /// Structurally identical state was replayed.
    Hit,
    /// A similar shape's winning guess seeded the search.
    Near,
    /// Cold solve.
    #[default]
    Miss,
}

impl CacheTag {
    /// The wire spelling (`"hit"` / `"near"` / `"miss"`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTag::Hit => "hit",
            CacheTag::Near => "near",
            CacheTag::Miss => "miss",
        }
    }
}

impl Serialize for SolveRequest {
    fn to_value(&self) -> Value {
        let mut fields =
            vec![("id".into(), self.id.to_value()), ("epsilon".into(), self.epsilon.to_value())];
        // Emitted only when set, so requests from new clients without a
        // deadline stay byte-compatible with old servers.
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".into(), ms.to_value()));
        }
        fields.push(("instance".into(), self.instance.to_value()));
        Value::Obj(fields)
    }
}

impl Deserialize for SolveRequest {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        let epsilon = f64::from_value(v.field("epsilon")?)?;
        // The driver validates epsilon again, but rejecting junk at the
        // wire keeps garbage requests out of the worker pool entirely.
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(DeserializeError::new(format!(
                "epsilon must be positive and finite, got {epsilon}"
            )));
        }
        // Tolerant: requests predating the portfolio option simply lack
        // the field; `null` is accepted as "no deadline" too.
        let deadline_ms = match v.field("deadline_ms") {
            Ok(val) => Option::<u64>::from_value(val)?,
            Err(_) => None,
        };
        Ok(SolveRequest {
            id: u64::from_value(v.field("id")?)?,
            epsilon,
            deadline_ms,
            instance: Instance::from_value(v.field("instance")?)?,
        })
    }
}

impl Serialize for SolveResponse {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), self.id.to_value()),
            ("ok".into(), self.ok.to_value()),
            ("error".into(), self.error.to_value()),
            ("makespan".into(), self.makespan.to_value()),
            ("assignment".into(), self.assignment.to_value()),
            ("cache".into(), self.cache.as_str().to_string().to_value()),
            ("elapsed_us".into(), self.elapsed_us.to_value()),
        ])
    }
}

impl Deserialize for SolveResponse {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        let cache = match String::from_value(v.field("cache")?)?.as_str() {
            "hit" => CacheTag::Hit,
            "near" => CacheTag::Near,
            "miss" => CacheTag::Miss,
            other => {
                return Err(DeserializeError::new(format!(
                    "cache tag must be hit|near|miss, got {other:?}"
                )));
            }
        };
        Ok(SolveResponse {
            id: u64::from_value(v.field("id")?)?,
            ok: bool::from_value(v.field("ok")?)?,
            error: Option::<String>::from_value(v.field("error")?)?,
            makespan: f64::from_value(v.field("makespan")?)?,
            assignment: Vec::<u32>::from_value(v.field("assignment")?)?,
            cache,
            elapsed_us: u64::from_value(v.field("elapsed_us")?)?,
        })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }
}

/// Quantization grid for relative sizes: ~9 significant decimal digits,
/// far finer than any rounding step of the EPTAS, so instances the
/// algorithm would treat differently never share a fingerprint, while
/// float noise below 1e-9 of the largest job does.
const QUANTUM: f64 = 1e9;

/// 64-bit FNV-1a fingerprint of an instance's cache-relevant shape.
///
/// Invariant under job reordering within a bag and under bag renumbering
/// (profiles are hashed as a sorted multiset), and under uniform scaling
/// of all processing times (sizes are quantized relative to the largest
/// job). Sensitive to machine count, epsilon, and any per-bag size-mix
/// change above one part in 10^9.
pub fn fingerprint(inst: &Instance, epsilon: f64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(inst.num_machines() as u64);
    h.write_u64(epsilon.to_bits());
    h.write_u64(inst.num_jobs() as u64);
    h.write_u64(inst.num_bags() as u64);
    let max = inst.max_size();
    let scale = if max > 0.0 { QUANTUM / max } else { 0.0 };
    let mut profiles: Vec<Vec<u64>> = inst
        .bags()
        .map(|(_, members)| {
            let mut profile: Vec<u64> =
                members.iter().map(|&j| (inst.size(j) * scale).round() as u64).collect();
            profile.sort_unstable();
            profile
        })
        .collect();
    profiles.sort_unstable();
    for profile in &profiles {
        // Length delimiter keeps [a | b,c] distinct from [a,b | c].
        h.write_u64(profile.len() as u64);
        for &q in profile {
            h.write_u64(q);
        }
    }
    h.0
}

/// Quantization grid of the *coarse* fingerprint: ~2 significant decimal
/// digits. Sizes within ~1% of each other (relative to the largest job)
/// land on the same coarse step.
const COARSE_QUANTUM: f64 = 1e2;

/// 64-bit FNV-1a fingerprint of an instance's *similarity* shape — the
/// key of the cache's near tier.
///
/// Deliberately blunter than [`fingerprint`]: sizes are quantized to
/// ~1% of the largest job, per-bag profiles collapse to (coarse size →
/// geometric count bucket) maps (ratio-2 buckets, so ±1 job among
/// several of a size keeps the print), and the total job count is not
/// hashed at all. Two instances that the exact key separates — a few
/// jobs added, sizes jittered below a percent — collide here on
/// purpose: a near entry only seeds the guess search's first probe, so
/// a wrong neighbour costs probes, never correctness. Machine count,
/// epsilon and bag count stay exact — those change the answer too much
/// for a hint to help.
pub fn coarse_fingerprint(inst: &Instance, epsilon: f64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(inst.num_machines() as u64);
    h.write_u64(epsilon.to_bits());
    h.write_u64(inst.num_bags() as u64);
    let max = inst.max_size();
    let scale = if max > 0.0 { COARSE_QUANTUM / max } else { 0.0 };
    let mut profiles: Vec<Vec<(u64, u32)>> = inst
        .bags()
        .map(|(_, members)| {
            let mut counts: std::collections::BTreeMap<u64, u32> =
                std::collections::BTreeMap::new();
            for &j in members {
                *counts.entry((inst.size(j) * scale).round() as u64).or_insert(0) += 1;
            }
            // Ratio-2 geometric count buckets: bucket = bit length of
            // the count, so 2..=3, 4..=7, ... collapse together.
            counts.into_iter().map(|(q, c)| (q, 32 - c.leading_zeros())).collect()
        })
        .collect();
    profiles.sort_unstable();
    for profile in &profiles {
        h.write_u64(profile.len() as u64);
        for &(q, bucket) in profile {
            h.write_u64(q);
            h.write_u64(bucket as u64);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        Instance::new(&[(4.0, 0), (2.0, 0), (3.0, 1), (1.0, 2)], 3)
    }

    #[test]
    fn request_roundtrips() {
        let req = SolveRequest { id: 17, epsilon: 0.25, deadline_ms: None, instance: inst() };
        let v = req.to_value();
        let back = SolveRequest::from_value(&v).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn response_roundtrips() {
        let resp = SolveResponse {
            id: 17,
            ok: true,
            error: None,
            makespan: 4.5,
            assignment: vec![0, 1, 2, 0],
            cache: CacheTag::Hit,
            elapsed_us: 1234,
        };
        let v = resp.to_value();
        assert_eq!(SolveResponse::from_value(&v).unwrap(), resp);
        let err = SolveResponse {
            id: 18,
            ok: false,
            error: Some("epsilon out of range".into()),
            makespan: 0.0,
            assignment: Vec::new(),
            cache: CacheTag::Miss,
            elapsed_us: 7,
        };
        assert_eq!(SolveResponse::from_value(&err.to_value()).unwrap(), err);
    }

    #[test]
    fn near_cache_tag_roundtrips() {
        let resp = SolveResponse {
            id: 21,
            ok: true,
            error: None,
            makespan: 2.0,
            assignment: vec![0, 0],
            cache: CacheTag::Near,
            elapsed_us: 901,
        };
        let back = SolveResponse::from_value(&resp.to_value()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.cache.as_str(), "near");
    }

    #[test]
    fn request_deadline_roundtrips_and_old_requests_still_parse() {
        let req = SolveRequest { id: 3, epsilon: 0.25, deadline_ms: Some(150), instance: inst() };
        assert_eq!(SolveRequest::from_value(&req.to_value()).unwrap(), req);
        // A request serialized before the field existed parses as "no
        // deadline" — the wire stays backward compatible.
        let old = Value::Obj(vec![
            ("id".into(), 4u64.to_value()),
            ("epsilon".into(), 0.5f64.to_value()),
            ("instance".into(), inst().to_value()),
        ]);
        assert_eq!(SolveRequest::from_value(&old).unwrap().deadline_ms, None);
    }

    #[test]
    fn request_rejects_bad_epsilon() {
        let req = SolveRequest { id: 1, epsilon: 0.1, deadline_ms: None, instance: inst() };
        let mut v = req.to_value();
        if let Value::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "epsilon" {
                    *val = Value::Num(-1.0);
                }
            }
        }
        assert!(SolveRequest::from_value(&v).is_err());
    }

    #[test]
    fn request_rejects_missing_field() {
        let v = Value::Obj(vec![("id".into(), 1u64.to_value())]);
        assert!(SolveRequest::from_value(&v).is_err());
    }

    #[test]
    fn fingerprint_ignores_job_and_bag_order() {
        let a = Instance::new(&[(4.0, 0), (2.0, 0), (3.0, 1), (1.0, 2)], 3);
        // Same bags, jobs listed in a different order and bags renumbered.
        let b = Instance::new(&[(1.0, 9), (3.0, 5), (2.0, 7), (4.0, 7)], 3);
        assert_eq!(fingerprint(&a, 0.2), fingerprint(&b, 0.2));
    }

    #[test]
    fn fingerprint_ignores_uniform_scaling() {
        let a = inst();
        let b = a.scaled(3.5);
        assert_eq!(fingerprint(&a, 0.2), fingerprint(&b, 0.2));
    }

    #[test]
    fn fingerprint_distinguishes_shape_changes() {
        let base = fingerprint(&inst(), 0.2);
        assert_ne!(base, fingerprint(&inst(), 0.3), "epsilon must key the cache");
        assert_ne!(base, fingerprint(&inst().with_machines(4), 0.2));
        let moved = Instance::new(&[(4.0, 0), (2.0, 1), (3.0, 1), (1.0, 2)], 3);
        assert_ne!(base, fingerprint(&moved, 0.2), "bag membership is part of the shape");
        let resized = Instance::new(&[(4.0, 0), (2.5, 0), (3.0, 1), (1.0, 2)], 3);
        assert_ne!(base, fingerprint(&resized, 0.2));
    }

    #[test]
    fn coarse_fingerprint_survives_job_count_drift() {
        // One more 2.0-job in a bag that already holds two: the exact
        // key separates them, the coarse key (ratio-2 count buckets, no
        // total job count) does not.
        let a = Instance::new(&[(4.0, 0), (2.0, 0), (2.0, 0), (3.0, 1), (1.0, 2)], 3);
        let b = Instance::new(&[(4.0, 0), (2.0, 0), (2.0, 0), (2.0, 0), (3.0, 1), (1.0, 2)], 3);
        assert_ne!(fingerprint(&a, 0.2), fingerprint(&b, 0.2));
        assert_eq!(coarse_fingerprint(&a, 0.2), coarse_fingerprint(&b, 0.2));
    }

    #[test]
    fn coarse_fingerprint_survives_sub_percent_size_jitter() {
        let a = inst();
        let jittered = Instance::new(&[(4.0, 0), (2.003, 0), (3.0, 1), (1.0, 2)], 3);
        assert_ne!(fingerprint(&a, 0.2), fingerprint(&jittered, 0.2));
        assert_eq!(coarse_fingerprint(&a, 0.2), coarse_fingerprint(&jittered, 0.2));
    }

    #[test]
    fn coarse_fingerprint_keeps_hard_shape_exact() {
        let base = coarse_fingerprint(&inst(), 0.2);
        assert_ne!(base, coarse_fingerprint(&inst(), 0.3), "epsilon stays exact");
        assert_ne!(base, coarse_fingerprint(&inst().with_machines(4), 0.2));
        let rebagged = Instance::new(&[(4.0, 0), (2.0, 1), (3.0, 1), (1.0, 2)], 3);
        assert_ne!(base, coarse_fingerprint(&rebagged, 0.2), "bag structure stays exact");
    }

    #[test]
    fn coarse_fingerprint_ignores_job_and_bag_order() {
        let a = Instance::new(&[(4.0, 0), (2.0, 0), (3.0, 1), (1.0, 2)], 3);
        let b = Instance::new(&[(1.0, 9), (3.0, 5), (2.0, 7), (4.0, 7)], 3);
        assert_eq!(coarse_fingerprint(&a, 0.2), coarse_fingerprint(&b, 0.2));
    }

    #[test]
    fn fingerprint_of_empty_instance_is_stable() {
        let a = crate::InstanceBuilder::new(2).build();
        let b = crate::InstanceBuilder::new(2).build();
        assert_eq!(fingerprint(&a, 0.2), fingerprint(&b, 0.2));
    }
}
