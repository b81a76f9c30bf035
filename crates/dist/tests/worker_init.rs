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
use mpi_sim::{read_frame, write_frame, SimError};
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

#[test]
fn unsound_init_programs_get_a_typed_error_and_the_rank_survives() {
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
