//! # proto — the coordinator <-> worker wire protocol
//!
//! One request/response pair per [`RankPool`] method, carried as typed
//! payloads inside the length-prefixed, checksummed frames of
//! [`mpi_sim::transport`]. Every payload type declares its layout once
//! through [`nir::codec::Wire`]; the records `exec`, `gpu-sim` and
//! `mpi-sim` own bring their own. Every decode failure is a typed
//! [`TransportError`] — never a panic, never a hang.
//!
//! The protocol is strict lockstep: the coordinator sends one request
//! frame and blocks (with a read timeout) on exactly one response
//! frame. Workers never speak unprompted after their `Hello`.
//!
//! [`RankPool`]: mpi_sim::RankPool

use exec::ckpt::{CkptError, CKPT_VERSION};
use exec::{FaultConfig, MsgFault, ResilienceStats, TransportFault, Val};
use gpu_sim::GpuConfig;
use mpi_sim::{DeviceOutcome, RankSnapshot, RankYield, SimError, TransportError};
use nir::codec::Wire;

/// Version of the request/response payload layout (independent of the
/// frame-level [`mpi_sim::WIRE_VERSION`]). Carried in the `Hello`
/// handshake; a skew refuses the worker before any state moves.
///
/// The low byte is [`CKPT_VERSION`], because the payloads embed
/// `exec`-owned records (`FaultConfig`, `ResilienceStats`, `Val`, ...)
/// whose layout that constant already versions: a new counter is one
/// line in its `counters!` list and one `CKPT_VERSION` bump, nothing to
/// edit here. The high bits count changes to every other record a
/// payload carries (this module's, `GpuConfig`, `SimError`, ...).
pub const PROTO_VERSION: u32 = (3 << 8) | CKPT_VERSION as u32;

/// A reference to program bytes persisted in a warm artifact directory
/// shared between coordinator and workers (same host — the spawn is
/// loopback-local by construction). The worker loads
/// `<dir>/<digest:016x>.wprog` and verifies the digest before trusting
/// it; any failure is a typed `Resp::Err` and the coordinator falls
/// back to re-sending the program inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmProgram {
    pub dir: String,
    pub digest: u64,
}

/// The first frame on a fresh worker connection: identify the rank and
/// prove the worker was spawned by *this* coordinator (the token is
/// process-private).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    pub token: u64,
    pub rank: u32,
    pub proto: u32,
}

/// A coordinator -> worker request. Rank identity is implicit: each
/// worker owns exactly one rank, fixed at `Hello`.
#[derive(Debug)]
pub enum Request {
    /// Program + per-world configuration. Sent once per connection,
    /// before anything else; `kill_after_runs` is the chaos knob that
    /// makes the worker die mid-protocol after that many `Run`s. When
    /// `warm` is set the program bytes may be empty: the worker loads
    /// them from the warm directory instead (digest-verified), so warm
    /// restarts ship a 16-byte reference instead of the whole program.
    Init {
        size: u32,
        entry: u32,
        program: Vec<u8>,
        fault: Option<Box<FaultConfig>>,
        gpu: Option<GpuConfig>,
        kill_after_runs: Option<u64>,
        warm: Option<WarmProgram>,
    },
    Run {
        slice: u64,
    },
    Resume {
        v: Val,
    },
    ServiceDevice,
    ServiceHost,
    ReadFloats {
        buf: u32,
        off: u64,
        count: u64,
    },
    WriteFloats {
        buf: u32,
        off: u64,
        payload: Vec<f32>,
    },
    Location,
    MessageFault,
    CollectiveFault,
    TransportFaultDraw,
    ConnectDelay,
    CkptWriteFails,
    Capture,
    Restore {
        last_cycles: u64,
        has_gpu: bool,
        n_arrays: u64,
        sections: Vec<Vec<u8>>,
    },
    Reseed {
        attempt: u64,
    },
    Stats,
    /// Drain the rank into its final outcome; the scheduler-side
    /// control fields ride along so the worker can run the same
    /// `finish_rank` code path as the in-process pool.
    Finish {
        done: Option<Val>,
        vclock: u64,
        compute_cycles: u64,
        comm_cycles: u64,
    },
    Shutdown,
}

/// A worker -> coordinator response.
#[derive(Debug)]
pub enum Resp {
    Ok,
    Yielded {
        y: RankYield,
        delta: u64,
    },
    Device(DeviceOutcome),
    U64(u64),
    Floats(Vec<f32>),
    Loc(Option<(String, u32)>),
    Msg(MsgFault),
    Transport(TransportFault),
    Bool(bool),
    Snapshot(RankSnapshot),
    Stats(ResilienceStats),
    /// `Finish` result: the rank's print output, device time, and its
    /// full machine (an [`exec::ckpt`] machine payload).
    Outcome {
        output: Vec<String>,
        gpu_time: u64,
        machine: Vec<u8>,
    },
    Err(SimError),
    CkptErr(CkptError),
}

nir::wire_struct!(WarmProgram { dir, digest });
nir::wire_struct!(Hello { token, rank, proto });
nir::wire_enum!(Request {
    1 = Init { size, entry, program, fault, gpu, kill_after_runs, warm },
    2 = Run { slice },
    3 = Resume { v },
    4 = ServiceDevice,
    5 = ServiceHost,
    6 = ReadFloats { buf, off, count },
    7 = WriteFloats { buf, off, payload },
    8 = Location,
    9 = MessageFault,
    10 = CollectiveFault,
    11 = TransportFaultDraw,
    12 = ConnectDelay,
    13 = CkptWriteFails,
    14 = Capture,
    15 = Restore { last_cycles, has_gpu, n_arrays, sections },
    16 = Reseed { attempt },
    17 = Stats,
    18 = Finish { done, vclock, compute_cycles, comm_cycles },
    19 = Shutdown,
});
nir::wire_enum!(Resp {
    1 = Ok,
    2 = Yielded { y, delta },
    3 = Device(outcome),
    4 = U64(v),
    5 = Floats(payload),
    6 = Loc(location),
    7 = Msg(fault),
    8 = Transport(fault),
    9 = Bool(b),
    10 = Snapshot(snapshot),
    11 = Stats(stats),
    12 = Outcome { output, gpu_time, machine },
    13 = Err(e),
    14 = CkptErr(e),
});

pub fn encode_hello(h: &Hello) -> Vec<u8> {
    h.to_wire()
}

pub fn decode_hello(bytes: &[u8]) -> Result<Hello, TransportError> {
    Ok(Wire::from_wire(bytes)?)
}

pub fn encode_req(req: &Request) -> Vec<u8> {
    req.to_wire()
}

pub fn decode_req(bytes: &[u8]) -> Result<Request, TransportError> {
    Ok(Wire::from_wire(bytes)?)
}

pub fn encode_resp(resp: &Resp) -> Vec<u8> {
    resp.to_wire()
}

pub fn decode_resp(bytes: &[u8]) -> Result<Resp, TransportError> {
    Ok(Wire::from_wire(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nir::IntrinOp;

    #[test]
    fn hello_and_request_payloads_round_trip() {
        let h = Hello {
            token: 0xFEED_F00D,
            rank: 3,
            proto: PROTO_VERSION,
        };
        assert_eq!(decode_hello(&encode_hello(&h)).unwrap(), h);

        let mut cfg = FaultConfig::seeded(42);
        cfg.crash = 0.25;
        cfg.frame_truncate = 0.5;
        cfg.translate_fail = 0.1;
        let reqs = [
            Request::Init {
                size: 4,
                entry: 7,
                program: vec![1, 2, 3],
                fault: Some(Box::new(cfg)),
                gpu: Some(GpuConfig::default()),
                kill_after_runs: Some(9),
                warm: None,
            },
            Request::Init {
                size: 2,
                entry: 0,
                program: vec![],
                fault: None,
                gpu: None,
                kill_after_runs: None,
                warm: Some(WarmProgram {
                    dir: "/tmp/warm".into(),
                    digest: 0xDEAD_BEEF,
                }),
            },
            Request::Run { slice: 4_000_000 },
            Request::Resume { v: Val::F32(1.5) },
            Request::ReadFloats {
                buf: 2,
                off: 8,
                count: 16,
            },
            Request::WriteFloats {
                buf: 1,
                off: 0,
                payload: vec![0.5, -2.0],
            },
            Request::Restore {
                last_cycles: 99,
                has_gpu: false,
                n_arrays: 2,
                sections: vec![vec![1], vec![2, 3]],
            },
            Request::Finish {
                done: Some(Val::I64(-4)),
                vclock: 10,
                compute_cycles: 7,
                comm_cycles: 3,
            },
        ];
        for req in &reqs {
            let decoded = decode_req(&encode_req(req)).unwrap();
            assert_eq!(format!("{decoded:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn response_payloads_round_trip() {
        let resps = [
            Resp::Ok,
            Resp::Yielded {
                y: RankYield::Mpi {
                    op: IntrinOp::MpiBarrier,
                    args: vec![Val::I32(3), Val::Unit],
                },
                delta: 1234,
            },
            Resp::Device(DeviceOutcome::Advance(500)),
            Resp::Loc(Some(("ring".into(), 17))),
            Resp::Msg(MsgFault::Delay(2000)),
            Resp::Transport(TransportFault::DelayAck(64)),
            Resp::Snapshot(RankSnapshot {
                last_cycles: 7,
                has_gpu: true,
                sections: vec![vec![9, 9], vec![]],
            }),
            Resp::Stats(ResilienceStats {
                crashes: 1,
                truncated_frames: 2,
                delayed_acks: 3,
                connect_retries: 4,
                translate_failures: 5,
                ..ResilienceStats::default()
            }),
            Resp::Err(SimError::Crash {
                rank: 2,
                step: 77,
                post_mortem: "boom".into(),
            }),
            Resp::CkptErr(CkptError::ScopeMismatch {
                expected: 1,
                found: 2,
            }),
        ];
        for resp in &resps {
            let decoded = decode_resp(&encode_resp(resp)).unwrap();
            assert_eq!(format!("{decoded:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn corrupt_payloads_decode_to_typed_errors_never_panic() {
        // Unknown tags, truncation mid-field, and trailing garbage all
        // surface as TransportError::Corrupt.
        assert!(matches!(
            decode_req(&[200]),
            Err(TransportError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_resp(&[0]),
            Err(TransportError::Corrupt { .. })
        ));
        let mut good = encode_req(&Request::Run { slice: 1 });
        good.push(0xAB);
        assert!(matches!(
            decode_req(&good),
            Err(TransportError::Corrupt { .. })
        ));
        let short = &encode_resp(&Resp::U64(7))[..4];
        assert!(matches!(
            decode_resp(short),
            Err(TransportError::Corrupt { .. })
        ));
        assert!(decode_hello(&[1, 2, 3]).is_err());
    }
}
