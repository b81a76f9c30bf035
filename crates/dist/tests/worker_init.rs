//! A worker decodes and validates the program an `Init` carries before it
//! builds a rank on it: the engine indexes registers and the entry
//! function unchecked, so an unsound program must be answered with a
//! typed `Resp::Err`, inline or from a `.wprog` file, and must never
//! panic the rank. The Init loop stays open after such an answer.

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use dist::proto::{self, Request, Resp, WarmProgram};
use dist::worker::serve_on;
use dist::{warm_program_path, WARM_DIGEST_SEED};
use exec::{ArrStore, Machine};
use mpi_sim::{read_frame, write_frame, LocalPool, RankPool, SimError, World};
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

fn init(entry: u32, program: Vec<u8>, warm: Option<WarmProgram>) -> Request {
    Request::Init {
        size: 1,
        entry,
        program,
        fault: None,
        gpu: None,
        kill_after_runs: None,
        warm,
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
fn unsound_init_programs_get_a_typed_error_and_the_rank_survives() {
    let (mut s, worker) = worker();

    // `Ret` of register 5 in a one-register function, sent inline.
    let bad = program(5).to_wire();
    expect_err(
        rpc(&mut s, &init(0, bad.clone(), None)),
        "failed validation",
    );

    // The same program from a warm `.wprog` whose digest checks out.
    let dir = std::env::temp_dir().join(format!("wj-dist-init-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let digest = nir::digest64(&bad, WARM_DIGEST_SEED);
    std::fs::write(warm_program_path(&dir, digest), &bad).unwrap();
    let warm = WarmProgram {
        dir: dir.to_string_lossy().into_owned(),
        digest,
    };
    let resp = rpc(&mut s, &init(0, Vec::new(), Some(warm)));
    let _ = std::fs::remove_dir_all(&dir);
    expect_err(resp, "failed validation");

    // A sound program with an entry it does not have, and bytes that do
    // not decode.
    let good = program(0).to_wire();
    expect_err(
        rpc(&mut s, &init(1, good.clone(), None)),
        "entry function 1",
    );
    expect_err(
        rpc(&mut s, &init(0, good[..good.len() - 1].to_vec(), None)),
        "decoding",
    );

    // Still in its Init loop: a sound Init is accepted, Shutdown ends it.
    assert!(matches!(rpc(&mut s, &init(0, good, None)), Resp::Ok));
    assert!(matches!(rpc(&mut s, &Request::Shutdown), Resp::Ok));
    worker.join().unwrap().unwrap();
}

#[test]
fn a_huge_wire_offset_is_a_typed_range_error() {
    // Seed the rank as a coordinator does: the capture of a local rank
    // that holds one 4-float array.
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
    assert!(matches!(rpc(&mut s, &init(0, p.to_wire(), None)), Resp::Ok));
    let restore = Request::Restore {
        last_cycles: snap.last_cycles,
        has_gpu: snap.has_gpu,
        n_arrays: 1,
        sections: snap.sections,
    };
    assert!(matches!(rpc(&mut s, &restore), Resp::Ok));

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
