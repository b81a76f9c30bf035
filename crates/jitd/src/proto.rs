//! # proto — the client <-> daemon service wire protocol
//!
//! Typed request/reply payloads carried inside the length-prefixed,
//! checksummed `WFR1` frames of [`mpi_sim::transport`] — the same frame
//! layer the `dist` backend speaks, so truncation, corruption, and
//! version skew all surface as typed [`TransportError`]s, never as
//! panics or hangs.
//!
//! The conversation per connection:
//!
//! ```text
//! client                          daemon
//!   Hello { proto, tenant } ───────▶
//!        ◀─────────────────── Reply::HelloOk
//!   Request::Jit(..) ──────────────▶
//!        ◀──── Reply::Done | Reply::Shed | Reply::Err
//!   ... (any number of requests) ...
//!   Request::Shutdown ─────────────▶      (drains the daemon)
//!        ◀─────────────────── Reply::Bye
//! ```
//!
//! Every admitted request ends in exactly one reply; every rejected
//! request ends in a typed [`Reply::Shed`] naming the policy that
//! refused it. The daemon never silently drops a decodable request.

use exec::ckpt::CKPT_VERSION;
use exec::{ResilienceStats, Val};
use mpi_sim::TransportError;
use nir::codec::{CodecResult, Reader, Wire, Writer};

/// Version of the service payload layout (independent of the frame-level
/// [`mpi_sim::WIRE_VERSION`]). Carried in `Hello`; a skew is refused
/// with a typed error before any state moves.
///
/// The low byte is [`CKPT_VERSION`], which versions the `exec`-owned
/// records the payloads embed (`ResilienceStats`, `Val`), so a new
/// counter there needs no edit here; the high bits count changes to the
/// records declared in this module. Service payloads are never
/// persisted.
pub const SERVICE_PROTO: u32 = (3 << 8) | CKPT_VERSION as u32;

/// The first frame on a fresh connection: protocol version plus the
/// tenant every subsequent request on this connection is billed to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    pub proto: u32,
    pub tenant: String,
}

/// One entry argument, by value. The service boundary is a process
/// boundary: arguments are data, never heap handles.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    I32(i32),
    F32(f32),
    F32Arr(Vec<f32>),
}

/// A jit-and-invoke request: compile `source`, instantiate `class`
/// (nullary constructor), JIT `method` against `args`, run it, and
/// reply with the result — all within `deadline_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct JitRequest {
    /// Source file name (keys the compile; diagnostics point at it).
    pub file: String,
    /// jlang source text.
    pub source: String,
    pub class: String,
    pub method: String,
    pub args: Vec<Arg>,
    /// Wall-clock budget for the whole request (queue wait + translate +
    /// run), measured from the instant the daemon decodes the frame.
    /// 0 means "use the daemon's default".
    pub deadline_ms: u64,
    /// Chaos knob: keep holding the worker slot for this long after the
    /// reply is computed — a deterministic way for tests and the bench
    /// storm to occupy capacity and force queueing/shedding downstream.
    pub hold_ms: u64,
}

/// A client -> daemon request (after `Hello`).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Jit(JitRequest),
    /// Snapshot the service counters.
    Stats,
    /// Begin a graceful drain: admission stops (new work is shed as
    /// `Draining`), in-flight requests flush, the daemon then exits.
    Shutdown,
}

/// Why an admission was refused. Every variant is a *policy* outcome —
/// the request was understood, considered, and deliberately rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue is full (overload).
    QueueFull,
    /// The daemon is draining after a `Shutdown`.
    Draining,
    /// The tenant's artifact store is at its byte quota and this
    /// request would need a new translation. Warm keys still serve.
    OverQuota,
    /// The request's deadline expired before it could be served
    /// (in queue, waiting on a translation, or before the run).
    Deadline,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "queue-full"),
            ShedReason::Draining => write!(f, "draining"),
            ShedReason::OverQuota => write!(f, "over-quota"),
            ShedReason::Deadline => write!(f, "deadline"),
        }
    }
}

/// The successful outcome of one [`Request::Jit`].
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Rank 0's return value (the scalar subset crosses the wire;
    /// `Arr`/`Obj` handles are meaningless across processes and are
    /// reported as `Unit`).
    pub result: Option<Val>,
    /// This request translated the artifact itself (single-flight
    /// leader on a cold key).
    pub translated: bool,
    /// This request was served the sealed artifact published by a
    /// concurrent leader (single-flight follower).
    pub followed: bool,
    pub compile_us: u64,
    pub run_us: u64,
}

/// Aggregated per-pass optimizer totals across every translation the
/// daemon performed (the service-level view of `nir::PassProfile`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassTotals {
    pub pass: String,
    pub wall_us: u64,
    pub instrs_before: u64,
    pub instrs_after: u64,
}

/// Service counters: admission, shedding, artifact reuse, and the
/// observed-fault tallies. Every path a request can take increments
/// exactly one terminal counter (`completed`, one `shed_*`, or
/// `request_errors`), so `admitted + sheds + errors` accounts for every
/// decodable request the daemon ever saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests that passed admission (got a worker slot).
    pub admitted: u64,
    /// Admitted requests that ended in a `Done` reply.
    pub completed: u64,
    /// Actual translator runs (single-flight leaders on cold keys).
    pub translations: u64,
    /// Requests served from a tenant's on-disk artifact store.
    pub warm_hits: u64,
    /// Requests served a concurrent leader's sealed artifact.
    pub follower_serves: u64,
    pub shed_queue_full: u64,
    pub shed_draining: u64,
    pub shed_over_quota: u64,
    pub shed_deadline: u64,
    /// Admitted requests that ended in a typed `Err` reply (compile
    /// failure, run failure, injected translate fault, ...).
    pub request_errors: u64,
    /// Clients observed dead while the daemon was writing their reply.
    pub disconnects: u64,
    /// Connections dropped on an undecodable frame (truncation,
    /// corruption, version skew).
    pub bad_frames: u64,
    /// Fault counters, including injected translate failures.
    pub resilience: ResilienceStats,
    /// Per-pass optimizer totals across all leader translations.
    pub passes: Vec<PassTotals>,
}

impl ServiceStats {
    /// Total typed rejections across every shed policy.
    pub fn sheds(&self) -> u64 {
        self.shed_queue_full + self.shed_draining + self.shed_over_quota + self.shed_deadline
    }
}

/// A daemon -> client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Handshake accepted.
    HelloOk {
        proto: u32,
    },
    Done(Outcome),
    /// Typed rejection: the request was *not* served, and this is why.
    Shed {
        reason: ShedReason,
        message: String,
    },
    /// The request was admitted but failed; the message carries the
    /// typed source error's rendering.
    Err {
        message: String,
    },
    Stats(Box<ServiceStats>),
    /// Drain acknowledged; the daemon exits once in-flight work flushes.
    Bye,
}

// ---------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------

nir::wire_struct!(Hello { proto, tenant });
nir::wire_enum!(Arg { 0 = I32(v), 1 = F32(v), 2 = F32Arr(xs) });
nir::wire_struct!(JitRequest {
    file,
    source,
    class,
    method,
    args,
    deadline_ms,
    hold_ms,
});
nir::wire_enum!(Request { 0 = Jit(job), 1 = Stats, 2 = Shutdown });
nir::wire_enum!(ShedReason { 0 = QueueFull, 1 = Draining, 2 = OverQuota, 3 = Deadline });
nir::wire_struct!(PassTotals {
    pass,
    wall_us,
    instrs_before,
    instrs_after,
});
nir::wire_struct!(ServiceStats {
    admitted,
    completed,
    translations,
    warm_hits,
    follower_serves,
    shed_queue_full,
    shed_draining,
    shed_over_quota,
    shed_deadline,
    request_errors,
    disconnects,
    bad_frames,
    resilience,
    passes,
});
nir::wire_enum!(Reply {
    0 = HelloOk { proto },
    1 = Done(outcome),
    2 = Shed { reason, message },
    3 = Err { message },
    4 = Stats(stats),
    5 = Bye,
});

/// Written by hand because the result is not sent as it is: heap handles
/// don't survive the process boundary, so `Arr`/`Obj` go out as `Unit`.
impl Wire for Outcome {
    fn put(&self, w: &mut Writer) {
        let result = self.result.map(|v| match v {
            Val::Arr(_) | Val::Obj(_) => Val::Unit,
            scalar => scalar,
        });
        result.put(w);
        self.translated.put(w);
        self.followed.put(w);
        self.compile_us.put(w);
        self.run_us.put(w);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        let result = Wire::get(r)?;
        if matches!(result, Some(Val::Arr(_) | Val::Obj(_))) {
            return Err(r.corrupt("heap handle in a service result"));
        }
        Ok(Outcome {
            result,
            translated: Wire::get(r)?,
            followed: Wire::get(r)?,
            compile_us: Wire::get(r)?,
            run_us: Wire::get(r)?,
        })
    }
}

pub fn encode_hello(h: &Hello) -> Vec<u8> {
    h.to_wire()
}

pub fn decode_hello(buf: &[u8]) -> Result<Hello, TransportError> {
    Ok(Wire::from_wire(buf)?)
}

pub fn encode_request(q: &Request) -> Vec<u8> {
    q.to_wire()
}

pub fn decode_request(buf: &[u8]) -> Result<Request, TransportError> {
    Ok(Wire::from_wire(buf)?)
}

pub fn encode_reply(p: &Reply) -> Vec<u8> {
    p.to_wire()
}

pub fn decode_reply(buf: &[u8]) -> Result<Reply, TransportError> {
    Ok(Wire::from_wire(buf)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_round_trips() {
        let hello = Hello {
            proto: SERVICE_PROTO,
            tenant: "acme".into(),
        };
        assert_eq!(decode_hello(&encode_hello(&hello)).unwrap(), hello);

        let reqs = [
            Request::Jit(JitRequest {
                file: "a.jl".into(),
                source: "class A { }".into(),
                class: "A".into(),
                method: "run".into(),
                args: vec![Arg::I32(7), Arg::F32(1.5), Arg::F32Arr(vec![1.0, 2.0])],
                deadline_ms: 2_000,
                hold_ms: 10,
            }),
            Request::Stats,
            Request::Shutdown,
        ];
        for q in &reqs {
            assert_eq!(&decode_request(&encode_request(q)).unwrap(), q);
        }

        let mut stats = ServiceStats {
            admitted: 10,
            completed: 8,
            translations: 1,
            warm_hits: 3,
            follower_serves: 4,
            shed_queue_full: 2,
            shed_draining: 1,
            shed_over_quota: 1,
            shed_deadline: 1,
            request_errors: 2,
            disconnects: 1,
            bad_frames: 1,
            resilience: ResilienceStats::default(),
            passes: vec![PassTotals {
                pass: "inline".into(),
                wall_us: 120,
                instrs_before: 40,
                instrs_after: 22,
            }],
        };
        stats.resilience.translate_failures = 2;
        stats.resilience.connect_retries = 3;
        let replies = [
            Reply::HelloOk {
                proto: SERVICE_PROTO,
            },
            Reply::Done(Outcome {
                result: Some(Val::I32(42)),
                translated: true,
                followed: false,
                compile_us: 900,
                run_us: 50,
            }),
            Reply::Done(Outcome {
                result: Some(Val::F64(2.5)),
                translated: false,
                followed: true,
                compile_us: 0,
                run_us: 51,
            }),
            Reply::Shed {
                reason: ShedReason::QueueFull,
                message: "admission queue is full (8 queued)".into(),
            },
            Reply::Err {
                message: "injected translate failure".into(),
            },
            Reply::Stats(Box::new(stats)),
            Reply::Bye,
        ];
        for p in &replies {
            assert_eq!(&decode_reply(&encode_reply(p)).unwrap(), p);
        }
    }

    #[test]
    fn junk_decodes_to_typed_errors() {
        for buf in [&b""[..], &b"\xFF"[..], &b"\x09garbage"[..]] {
            assert!(decode_request(buf).is_err());
            assert!(decode_reply(buf).is_err());
        }
    }
}
