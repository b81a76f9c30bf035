//! Pinned bytes of the coordinator <-> worker payloads.
//!
//! One value of every `Request` and `Resp` variant (and of every variant
//! of the records they embed), with literal field values, next to the hex
//! the hand-written per-type encoders produced before the payloads moved
//! onto `nir::codec::Wire`. A `dist` worker and its coordinator are two
//! processes that may be two builds: a change to any of these strings is
//! a protocol change and needs a `PROTO_VERSION` (or `CKPT_VERSION`) bump.

use dist::proto::{
    decode_hello, decode_req, decode_resp, encode_hello, encode_req, encode_resp, Hello, Request,
    Resp, WarmProgram,
};
use exec::ckpt::CkptError;
use exec::{FaultConfig, MsgFault, ResilienceStats, TransportFault, Val};
use gpu_sim::GpuConfig;
use mpi_sim::{DeviceOutcome, RankSnapshot, RankYield, SimError};
use nir::IntrinOp;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fault_config() -> FaultConfig {
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

fn resilience() -> ResilienceStats {
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

fn requests() -> Vec<Request> {
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

const REQUEST_HEX: &[&str] = &[
    "01040000000700000004000000deadbeef010807060504030201000000000000e03f000000000000d03f000000000000c03f000000000000b03f000000000000e83f000000000000d83f000000000000c83f000000000000ec3f000000000000dc3f000000000000d43f000000000000ee3f51c3000000000000224e00000000000005000000eb03000000000000010300000010000000840300000000000000000000000004404d0000000000000001090000000000000001090000002f746d702f7761726d0df0ad0befbeadde",
    "0102000000000000000000000000000000",
    "0200093d0000000000",
    "03020000c03f",
    "04",
    "05",
    "060200000008000000000000001000000000000000",
    "07010000000300000000000000030000000000003f000000c06f12833a",
    "08",
    "09",
    "0a",
    "0b",
    "0c",
    "0d",
    "0e",
    "0f63000000000000000102000000000000000300000001000000010000000003000000020304",
    "100600000000000000",
    "11",
    "120101fcffffffffffffff0a0000000000000007000000000000000300000000000000",
    "1200010000000000000002000000000000000300000000000000",
    "13",
];

fn yielded(y: RankYield) -> Resp {
    Resp::Yielded { y, delta: 1234 }
}

fn responses() -> Vec<Resp> {
    vec![
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
        Resp::Err(SimError::Rank {
            rank: 1,
            message: "bad".into(),
        }),
        Resp::Err(SimError::Crash {
            rank: 2,
            step: 77,
            post_mortem: "boom".into(),
        }),
        Resp::Err(SimError::Timeout {
            rank: 3,
            waited_rounds: 12,
            report: "stuck".into(),
        }),
        Resp::Err(SimError::Deadlock {
            report: "nobody moves".into(),
        }),
        Resp::Err(SimError::CheckpointScope {
            expected: 10,
            found: 11,
        }),
        Resp::Err(SimError::World {
            message: "world".into(),
        }),
        Resp::CkptErr(CkptError::Truncated { offset: 300 }),
        Resp::CkptErr(CkptError::BadMagic),
        Resp::CkptErr(CkptError::VersionSkew {
            found: 4,
            expected: 5,
        }),
        Resp::CkptErr(CkptError::Corrupt {
            offset: 12,
            message: "digest".into(),
        }),
        Resp::CkptErr(CkptError::ChainBroken {
            seq: 3,
            message: "parent".into(),
        }),
        Resp::CkptErr(CkptError::ScopeMismatch {
            expected: 1,
            found: 2,
        }),
    ]
}

const RESPONSE_HEX: &[&str] = &[
    "01",
    "0200010401d204000000000000",
    "020000d204000000000000",
    "0201d204000000000000",
    "02022a00000000000000d204000000000000",
    "0203d204000000000000",
    "0204d204000000000000",
    "0205d204000000000000",
    "020620000800000000fdffffff010000000000010000020000803e03000000000000c0bf04000505000000060600000007d204000000000000",
    "0206120200000000d204000000000000",
    "0300f401000000000000",
    "0301f501000000000000",
    "04feffffffffffffff",
    "05020000000000803f000000bf",
    "06010400000072696e6711000000",
    "0600",
    "0700",
    "0701",
    "0702",
    "0703d007000000000000",
    "0800",
    "0801",
    "08024000000000000000",
    "0901",
    "0a07000000000000000103000000020000000909000000000100000001",
    "0b0100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f00000000000000100000000000000011000000000000001200000000000000",
    "0c030000000500000068656c6c6f00000000020000003432580000000000000002000000cafe",
    "0d000100000003000000626164",
    "0d01020000004d0000000000000004000000626f6f6d",
    "0d02030000000c0000000000000005000000737475636b",
    "0d030c0000006e6f626f6479206d6f766573",
    "0d040a000000000000000b00000000000000",
    "0d0505000000776f726c64",
    "0e002c01000000000000",
    "0e01",
    "0e020405",
    "0e030c0000000000000006000000646967657374",
    "0e04030000000000000006000000706172656e74",
    "0e0501000000000000000200000000000000",
];

#[test]
fn hello_bytes_are_pinned() {
    let h = Hello {
        token: 0x1122_3344_5566_7788,
        rank: 3,
        proto: 0x0000_0305,
    };
    let bytes = encode_hello(&h);
    assert_eq!(hex(&bytes), "88776655443322110300000005030000");
    assert_eq!(decode_hello(&bytes).unwrap(), h);
}

#[test]
fn request_bytes_are_pinned() {
    let reqs = requests();
    assert_eq!(reqs.len(), REQUEST_HEX.len());
    for (req, want) in reqs.iter().zip(REQUEST_HEX) {
        let bytes = encode_req(req);
        assert_eq!(&hex(&bytes), want, "{req:?}");
        let back = decode_req(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }
}

#[test]
fn response_bytes_are_pinned() {
    let resps = responses();
    assert_eq!(resps.len(), RESPONSE_HEX.len());
    for (resp, want) in resps.iter().zip(RESPONSE_HEX) {
        let bytes = encode_resp(resp);
        assert_eq!(&hex(&bytes), want, "{resp:?}");
        let back = decode_resp(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{resp:?}"));
    }
}
