//! One value of every variant of every record the `dist` payloads carry,
//! with literal field values. `wire_golden` pins their bytes and
//! `wire_fuzz` mutates them; the order is the order of the pinned hex.

use dist::proto::{Request, Resp, WarmProgram};
use exec::ckpt::CkptError;
use exec::{FaultConfig, MsgFault, ResilienceStats, TransportFault, Val};
use gpu_sim::GpuConfig;
use mpi_sim::{DeviceOutcome, RankSnapshot, RankYield, SimError};
use nir::IntrinOp;

pub fn fault_config() -> FaultConfig {
    FaultConfig {
        seed: 0x0102_0304_0506_0708,
        crash: 0.5,
        fuel_exhaust: 0.25,
        host_transient: 0.125,
        msg_drop: 0.0625,
        msg_corrupt: 0.75,
        msg_delay: 0.375,
        ckpt_write_fail: 0.1875,
        connect_refuse: 0.875,
        frame_truncate: 0.4375,
        ack_delay: 0.3125,
        translate_fail: 0.9375,
        delay_cycles: 50_001,
        ack_delay_cycles: 20_002,
        max_host_retries: 5,
        retry_backoff_cycles: 1_003,
    }
}

pub fn resilience() -> ResilienceStats {
    ResilienceStats {
        crashes: 1,
        fuel_exhaustions: 2,
        host_transients: 3,
        host_retries: 4,
        dropped_messages: 5,
        corrupted_messages: 6,
        delayed_messages: 7,
        ckpt_write_failures: 8,
        connect_refusals: 9,
        truncated_frames: 10,
        delayed_acks: 11,
        connect_retries: 12,
        translate_failures: 13,
        timeouts: 14,
        degraded_jits: 15,
        checkpoints_taken: 16,
        restarts: 17,
        overlapped_rounds: 18,
    }
}

pub fn requests() -> Vec<Request> {
    vec![
        Request::Init {
            size: 4,
            entry: 7,
            program: vec![0xDE, 0xAD, 0xBE, 0xEF],
            fault: Some(Box::new(fault_config())),
            gpu: Some(GpuConfig {
                n_sms: 3,
                lanes_per_sm: 16,
                launch_overhead: 900,
                copy_bytes_per_cycle: 2.5,
                copy_latency: 77,
            }),
            kill_after_runs: Some(9),
            warm: Some(WarmProgram {
                dir: "/tmp/warm".into(),
                digest: 0xDEAD_BEEF_0BAD_F00D,
            }),
        },
        Request::Init {
            size: 2,
            entry: 0,
            program: vec![],
            fault: None,
            gpu: None,
            kill_after_runs: None,
            warm: None,
        },
        Request::Run { slice: 4_000_000 },
        Request::Resume { v: Val::F32(1.5) },
        Request::ServiceDevice,
        Request::ServiceHost,
        Request::ReadFloats {
            buf: 2,
            off: 8,
            count: 16,
        },
        Request::WriteFloats {
            buf: 1,
            off: 3,
            payload: vec![0.5, -2.0, 1e-3],
        },
        Request::Location,
        Request::MessageFault,
        Request::CollectiveFault,
        Request::TransportFaultDraw,
        Request::ConnectDelay,
        Request::CkptWriteFails,
        Request::Capture,
        Request::Restore {
            last_cycles: 99,
            has_gpu: true,
            n_arrays: 2,
            sections: vec![vec![1], vec![], vec![2, 3, 4]],
        },
        Request::Reseed { attempt: 6 },
        Request::Stats,
        Request::Finish {
            done: Some(Val::I64(-4)),
            vclock: 10,
            compute_cycles: 7,
            comm_cycles: 3,
        },
        Request::Finish {
            done: None,
            vclock: 1,
            compute_cycles: 2,
            comm_cycles: 3,
        },
        Request::Shutdown,
    ]
}

fn yielded(y: RankYield) -> Resp {
    Resp::Yielded { y, delta: 1234 }
}

pub fn responses() -> Vec<Resp> {
    [
        Resp::Ok,
        // Every `RankYield` variant; `Mpi` carries every `Val` variant
        // and an intrinsic with a non-zero axis byte.
        yielded(RankYield::Done(Some(Val::Bool(true)))),
        yielded(RankYield::Done(None)),
        yielded(RankYield::OutOfFuel),
        yielded(RankYield::Crashed { step: 42 }),
        yielded(RankYield::Misplaced),
        yielded(RankYield::Device),
        yielded(RankYield::HostCall),
        yielded(RankYield::Mpi {
            op: IntrinOp::MpiSendRecvF32,
            args: vec![
                Val::I32(-3),
                Val::I64(1 << 40),
                Val::F32(0.25),
                Val::F64(-0.125),
                Val::Bool(false),
                Val::Arr(5),
                Val::Obj(6),
                Val::Unit,
            ],
        }),
        yielded(RankYield::Mpi {
            op: IntrinOp::BlockIdx(2),
            args: vec![],
        }),
        Resp::Device(DeviceOutcome::Advance(500)),
        Resp::Device(DeviceOutcome::Crashed(501)),
        Resp::U64(u64::MAX - 1),
        Resp::Floats(vec![1.0, -0.5]),
        Resp::Loc(Some(("ring".into(), 17))),
        Resp::Loc(None),
        Resp::Msg(MsgFault::None),
        Resp::Msg(MsgFault::Drop),
        Resp::Msg(MsgFault::Corrupt),
        Resp::Msg(MsgFault::Delay(2000)),
        Resp::Transport(TransportFault::None),
        Resp::Transport(TransportFault::Truncate),
        Resp::Transport(TransportFault::DelayAck(64)),
        Resp::Bool(true),
        Resp::Snapshot(RankSnapshot {
            last_cycles: 7,
            has_gpu: true,
            sections: vec![vec![9, 9], vec![], vec![1]],
        }),
        Resp::Stats(resilience()),
        Resp::Outcome {
            output: vec!["hello".into(), "".into(), "42".into()],
            gpu_time: 88,
            machine: vec![0xCA, 0xFE],
        },
    ]
    .into_iter()
    .chain(sim_errors().into_iter().map(Resp::Err))
    .chain(ckpt_errors().into_iter().map(Resp::CkptErr))
    .collect()
}

pub fn sim_errors() -> Vec<SimError> {
    vec![
        SimError::Rank {
            rank: 1,
            message: "bad".into(),
        },
        SimError::Crash {
            rank: 2,
            step: 77,
            post_mortem: "boom".into(),
        },
        SimError::Timeout {
            rank: 3,
            waited_rounds: 12,
            report: "stuck".into(),
        },
        SimError::Deadlock {
            report: "nobody moves".into(),
        },
        SimError::CheckpointScope {
            expected: 10,
            found: 11,
        },
        SimError::World {
            message: "world".into(),
        },
    ]
}

pub fn ckpt_errors() -> Vec<CkptError> {
    vec![
        CkptError::Truncated { offset: 300 },
        CkptError::BadMagic,
        CkptError::VersionSkew {
            found: 4,
            expected: 5,
        },
        CkptError::Corrupt {
            offset: 12,
            message: "digest".into(),
        },
        CkptError::ChainBroken {
            seq: 3,
            message: "parent".into(),
        },
        CkptError::ScopeMismatch {
            expected: 1,
            found: 2,
        },
    ]
}
