//! A worker decodes, validates and verifies the program an `Init` carries
//! before it builds a rank on it: the engine indexes registers and the
//! entry function unchecked and runs on untagged registers, so an
//! unsound program must be answered with a
//! typed `Resp::Err`, and must never panic the rank. The worker ends
//! after such an answer. What it is sent after a sound `Init` is
//! checked too: wire offsets, and a `Restore` whose sections do not fit
//! the snapshot layout.

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use dist::proto::{self, Request, Resp};
use dist::worker::serve_on;
use exec::{ArrStore, CkptError, Machine};
use mpi_sim::{read_frame, write_frame, LocalPool, RankPool, RankSnapshot, SimError, World};
use nir::codec::Wire;
use nir::{FuncKind, Function, Instr, Program, Ty};

/// `int main() { r0 = 7; return r<ret>; }` with one register.
fn program(ret: u32) -> Program {
    let mut p = Program::default();
    let main = p.add_func(Function {
        name: "main".into(),
        params: vec![],
        ret: Some(Ty::I32),
        regs: vec![Ty::I32],
        code: vec![Instr::ConstI32(0, 7), Instr::Ret(Some(ret))],
        kind: FuncKind::Host,
    });
    p.entry = Some(main);
    p
}

/// `program` with `main` declared to return a float.
fn returns_float(mut p: Program) -> Program {
    p.func_mut(nir::FuncId(0)).ret = Some(Ty::F32);
    p.validate().unwrap();
    p
}

fn init(entry: u32, program: Vec<u8>) -> Request {
    Request::Init {
        size: 1,
        entry,
        program,
        fault: None,
        gpu: None,
        kill_after_runs: None,
    }
}

fn rpc(stream: &mut TcpStream, req: &Request) -> Resp {
    write_frame(stream, &proto::encode_req(req)).unwrap();
    proto::decode_resp(&read_frame(stream).unwrap()).unwrap()
}

fn expect_err(resp: Resp, needle: &str) {
    match resp {
        Resp::Err(SimError::World { message }) => {
            assert!(message.contains(needle), "{needle:?} not in {message:?}")
        }
        other => panic!("expected a typed error about {needle:?}, got {other:?}"),
    }
}

/// A rank-0 worker on a thread of its own, past its `Hello`: the
/// coordinator's end of the connection and the worker's join handle.
fn worker() -> (
    TcpStream,
    std::thread::JoinHandle<Result<(), mpi_sim::TransportError>>,
) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = listener.local_addr().unwrap().port();
    let worker = std::thread::spawn(move || {
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        serve_on(stream, 0, 42, 0)
    });
    let (mut s, _) = listener.accept().unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let hello = proto::decode_hello(&read_frame(&mut s).unwrap()).unwrap();
    assert_eq!((hello.token, hello.rank), (42, 0));
    write_frame(&mut s, &proto::encode_resp(&Resp::Ok)).unwrap();
    (s, worker)
}

#[test]
fn unsound_init_programs_get_a_typed_error_and_the_worker_ends() {
    let good = program(0).to_wire();
    let cases = [
        // `Ret` of register 5 in a one-register function.
        (init(0, program(5).to_wire()), "failed validation"),
        // A sound program with an entry it does not have.
        (init(1, good.clone()), "entry function 1"),
        // Bytes that do not decode.
        (init(0, good[..good.len() - 1].to_vec()), "decoding"),
        // A program that validates but returns its int register from a
        // float function: the verifier names the function and the pc.
        (
            init(0, returns_float(program(0)).to_wire()),
            "does not verify: function `main` pc 1: return value r0 is I32, expected F32",
        ),
    ];
    for (req, needle) in cases {
        let (mut s, worker) = worker();
        expect_err(rpc(&mut s, &req), needle);
        let ended = worker.join().unwrap();
        assert!(
            matches!(&ended, Err(e) if e.to_string().contains(needle)),
            "{ended:?}"
        );
    }
}

/// A rank-0 worker past a sound `Init`, and the capture of a local rank
/// that holds one 4-float array (how a coordinator seeds it): the
/// coordinator's end, the worker, the snapshot and the array's id.
fn seeded_worker() -> (
    TcpStream,
    std::thread::JoinHandle<Result<(), mpi_sim::TransportError>>,
    RankSnapshot,
    u32,
) {
    let p = program(0);
    let world = World::new(&p, 1);
    let mut buf = 0;
    let mut args = |_: u32, m: &mut Machine| {
        buf = m.mem.alloc(ArrStore::F32(vec![0.0; 4]));
        Ok(vec![])
    };
    let mut seed = LocalPool::new(&world, p.entry.unwrap(), &mut args);
    seed.reinit().unwrap();
    let snap = seed.capture_rank(0).unwrap();
    drop(seed);
    let (mut s, worker) = worker();
    assert!(matches!(rpc(&mut s, &init(0, p.to_wire())), Resp::Ok));
    (s, worker, snap, buf)
}

fn restore(snap: &RankSnapshot) -> Request {
    Request::Restore(RankSnapshot {
        last_cycles: snap.last_cycles,
        has_gpu: snap.has_gpu,
        sections: snap.sections.clone(),
    })
}

#[test]
fn a_restore_with_a_trailing_section_is_refused() {
    let (mut s, worker, snap, _) = seeded_worker();
    assert_eq!(snap.n_arrays(), Some(1));
    // The snapshot plus one trailing section: the layout then reads two
    // arrays, so the machine section is decoded as an array.
    let mut trailing = snap.sections.clone();
    trailing.push(snap.sections[1].clone());
    let req = Request::Restore(RankSnapshot {
        last_cycles: snap.last_cycles,
        has_gpu: snap.has_gpu,
        sections: trailing,
    });
    match rpc(&mut s, &req) {
        Resp::CkptErr(CkptError::Corrupt { offset, message }) => {
            assert_eq!(
                (offset, message.as_str()),
                (5, "24 trailing bytes after the payload")
            )
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // The rank is still served: the snapshot as captured restores.
    assert!(matches!(rpc(&mut s, &restore(&snap)), Resp::Ok));
    assert!(matches!(rpc(&mut s, &Request::Shutdown), Resp::Ok));
    worker.join().unwrap().unwrap();
}

#[test]
fn a_huge_wire_offset_is_a_typed_range_error() {
    let (mut s, worker, snap, buf) = seeded_worker();
    assert!(matches!(rpc(&mut s, &restore(&snap)), Resp::Ok));

    // An offset no `i32` operand can produce: its range end overflows.
    let range_err = |resp: Resp, what: &str| match resp {
        Resp::Err(SimError::Rank { rank: 0, message }) => assert!(
            message.ends_with(&format!(
                "{what} range 18446744073709551615..18446744073709551617 out of bounds (len 4)"
            )),
            "{message}"
        ),
        other => panic!("expected a typed {what} range error, got {other:?}"),
    };
    let off = u64::MAX;
    range_err(
        rpc(&mut s, &Request::ReadFloats { buf, off, count: 2 }),
        "send",
    );
    let payload = vec![1.0, 2.0];
    range_err(
        rpc(&mut s, &Request::WriteFloats { buf, off, payload }),
        "recv",
    );
    assert!(matches!(rpc(&mut s, &Request::Shutdown), Resp::Ok));
    worker.join().unwrap().unwrap();
}
