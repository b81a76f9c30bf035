//! # worker — one rank in its own OS process (or thread)
//!
//! A worker dials the coordinator's loopback rendezvous port,
//! identifies itself with a `Hello` carrying its token and
//! [`PROTO_VERSION`] (a skew is refused before any state moves),
//! receives the program inline and the world configuration in one
//! `Init` (one that does not decode or verify is answered
//! with a typed error, and the worker ends), and then answers one
//! [`RankPool`]-shaped request at a time. The execution engine is the
//! *same* [`LocalPool`] the in-process `mpi-sim` backend uses, holding
//! exactly one live rank — so every instruction, fault draw, cost
//! charge, and checkpoint byte is produced by the identical code path
//! on both sides of the process boundary. Bit-identity with `mpi-sim`
//! is by construction, not by test luck.
//!
//! [`RankPool`]: mpi_sim::RankPool

use std::net::TcpStream;
use std::time::Duration;

use exec::{FaultRng, Machine, Val};
use mpi_sim::{
    read_frame, write_frame, LocalPool, RankCtl, RankPool, RankState, SimError, TransportError,
    World,
};
use nir::codec::Wire;
use nir::{FuncId, Program};

use crate::proto::{self, Hello, Request, Resp, PROTO_VERSION};

/// Environment variables a spawned worker process reads its identity
/// from (see [`run_if_spawned`]).
pub const ENV_RANK: &str = "WJ_DIST_RANK";
pub const ENV_PORT: &str = "WJ_DIST_PORT";
pub const ENV_TOKEN: &str = "WJ_DIST_TOKEN";

/// How long a worker waits for the next request before concluding the
/// coordinator is gone and exiting — the orphan backstop that keeps a
/// killed coordinator from leaking rank processes.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Dial attempts before a worker gives up on the rendezvous port. With
/// the backoff schedule below the whole budget is well under a second —
/// enough to ride out a coordinator that is still binding its listener
/// (or an injected refusal), small enough that a truly absent
/// coordinator still fails fast and typed.
pub const MAX_CONNECT_ATTEMPTS: u32 = 8;

/// Wall-clock backoff before re-dial number `attempt` (1-based):
/// exponential base (2 ms doubling, capped at 128 ms) plus a seeded
/// jitter draw in `[0, base)` so simultaneously-refused workers do not
/// re-dial in lockstep. Pure in `(seed, attempt)` — the schedule is a
/// reproducible function of the spawn identity, and it never touches
/// the [`exec::FaultPlan`] streams, so legacy fault seeds stay
/// bit-identical.
pub fn retry_backoff_ms(seed: u64, attempt: u32) -> u64 {
    let base = 2u64 << attempt.saturating_sub(1).min(6);
    let jitter = FaultRng::new(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .next_u64()
        % base;
    base + jitter
}

/// Dial the coordinator with bounded, seeded backoff-and-jitter retries.
/// Returns the stream (or the last connect error, typed by the caller)
/// plus how many re-dials were needed — the count lands in
/// [`exec::ResilienceStats::connect_retries`] via the `Stats` reply.
pub fn connect_with_retry(port: u16, seed: u64) -> (std::io::Result<TcpStream>, u64) {
    let mut retries = 0u64;
    loop {
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(stream) => return (Ok(stream), retries),
            Err(e) => {
                let attempt = retries as u32 + 1;
                if attempt >= MAX_CONNECT_ATTEMPTS {
                    return (Err(e), retries);
                }
                std::thread::sleep(Duration::from_millis(retry_backoff_ms(seed, attempt)));
                retries += 1;
            }
        }
    }
}

fn corrupt(message: impl Into<String>) -> TransportError {
    TransportError::Corrupt {
        message: message.into(),
    }
}

/// Entry guard for re-executed binaries: if the spawn environment
/// ([`ENV_RANK`]/[`ENV_PORT`]/[`ENV_TOKEN`]) is set, serve as a rank
/// worker and return `true` (the caller should exit immediately —
/// it is a worker, not whatever the binary normally does). Returns
/// `false` untouched when the environment is absent.
pub fn run_if_spawned() -> bool {
    let (Ok(rank), Ok(port), Ok(token)) = (
        std::env::var(ENV_RANK),
        std::env::var(ENV_PORT),
        std::env::var(ENV_TOKEN),
    ) else {
        return false;
    };
    let parsed = (|| -> Option<(u32, u16, u64)> {
        Some((rank.parse().ok()?, port.parse().ok()?, token.parse().ok()?))
    })();
    let Some((rank, port, token)) = parsed else {
        eprintln!("wj-dist-worker: malformed spawn environment");
        return true;
    };
    let (dial, retries) = connect_with_retry(port, token ^ u64::from(rank));
    match dial {
        Ok(stream) => {
            if let Err(e) = serve_on(stream, rank, token, retries) {
                eprintln!("wj-dist-worker rank {rank}: {e}");
            }
        }
        Err(e) => eprintln!(
            "wj-dist-worker rank {rank}: connect after {} attempts: {e}",
            retries + 1
        ),
    }
    true
}

/// Decode an `Init`'s program: the bytes must decode to a program that
/// passes [`Program::verify`] and has an `entry` function, because the
/// engine indexes registers and the entry unchecked and runs on untagged
/// registers. Every failure is a typed message.
fn decode_program(bytes: &[u8], entry: u32) -> Result<Program, String> {
    let program = Program::from_wire(bytes).map_err(|e| format!("decoding program: {e}"))?;
    program
        .verify()
        .map_err(|e| format!("program does not verify: {e}"))?;
    if entry as usize >= program.funcs.len() {
        return Err(format!(
            "entry function {entry} out of range ({} functions)",
            program.funcs.len()
        ));
    }
    Ok(program)
}

/// Serve one rank over an established coordinator connection until
/// `Shutdown`, a simulated kill, coordinator disappearance, or a wire
/// error. Used by spawned processes ([`run_if_spawned`]) and by the
/// in-process `Launch::Threads` mode — the same full protocol (program
/// bytes and all) runs either way. `connect_retries` is how many
/// re-dials [`connect_with_retry`] spent reaching the coordinator; it
/// is folded into every `Stats` reply.
pub fn serve_on(
    mut stream: TcpStream,
    rank: u32,
    token: u64,
    connect_retries: u64,
) -> Result<(), TransportError> {
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(IDLE_TIMEOUT))
        .map_err(|e| corrupt(format!("set_read_timeout: {e}")))?;
    write_frame(
        &mut stream,
        &proto::encode_hello(&Hello {
            token,
            rank,
            proto: PROTO_VERSION,
        }),
    )?;
    match proto::decode_resp(&read_frame(&mut stream)?)? {
        Resp::Ok => {}
        other => return Err(corrupt(format!("rendezvous rejected: {other:?}"))),
    }
    let Request::Init {
        size,
        entry,
        program,
        fault,
        gpu,
        kill_after_runs,
    } = proto::decode_req(&read_frame(&mut stream)?)?
    else {
        return Err(corrupt("first request after Hello must be Init"));
    };
    // An Init whose program does not decode or verify is
    // answered with a typed error, and the worker ends.
    let program = match decode_program(&program, entry) {
        Ok(program) => program,
        Err(message) => {
            let message = format!("dist worker rank {rank}: {message}");
            write_frame(
                &mut stream,
                &proto::encode_resp(&Resp::Err(SimError::World {
                    message: message.clone(),
                })),
            )?;
            return Err(corrupt(message));
        }
    };
    // Entry arguments never originate here: the coordinator seeds every
    // rank with a Restore built from its own arg-builder, so worker and
    // in-process ranks start from byte-identical state.
    let mut no_args = |_: u32, _: &mut Machine| -> Result<Vec<Val>, String> {
        Err("dist worker: rank state is seeded by the coordinator".into())
    };
    // The slice of the coordinator's world the rank engine reads; the
    // scheduling settings stay with the coordinator.
    let mut world = World::new(&program, size);
    world.gpu = gpu;
    world.fault = fault.map(|b| *b);
    let mut pool = LocalPool::new(&world, FuncId(entry), &mut no_args);
    // Ack Init: the coordinator blocks on this before seeding state.
    write_frame(&mut stream, &proto::encode_resp(&Resp::Ok))?;
    serve_pool(
        &mut stream,
        rank,
        &mut pool,
        kill_after_runs,
        connect_retries,
    )
}

fn serve_pool(
    stream: &mut TcpStream,
    rank: u32,
    pool: &mut LocalPool<'_, '_>,
    mut kill_after_runs: Option<u64>,
    connect_retries: u64,
) -> Result<(), TransportError> {
    loop {
        let req = proto::decode_req(&read_frame(stream)?)?;
        let resp = match req {
            Request::Init { .. } => Resp::Err(SimError::World {
                message: format!("dist worker rank {rank}: duplicate Init"),
            }),
            Request::Run { slice } => {
                if let Some(left) = kill_after_runs.as_mut() {
                    if *left == 0 {
                        // The chaos knob: die mid-protocol, request
                        // unanswered — exactly what a SIGKILLed rank
                        // looks like from the coordinator.
                        return Ok(());
                    }
                    *left -= 1;
                }
                reply(pool.run_slices(&[rank], slice).map(|mut ran| {
                    let (_, y, delta) = ran.pop().expect("one yield per rank run");
                    Resp::Yielded { y, delta }
                }))
            }
            Request::Resume { v } => reply(pool.resume(rank, v).map(|()| Resp::Ok)),
            Request::ServiceDevice => reply(pool.service_device(rank).map(Resp::Device)),
            Request::ServiceHost => reply(pool.service_host(rank).map(Resp::U64)),
            Request::ReadFloats { buf, off, count } => reply(
                pool.read_floats(rank, buf, off as usize, count as usize)
                    .map(Resp::Floats),
            ),
            Request::WriteFloats { buf, off, payload } => reply(
                pool.write_floats(rank, buf, off as usize, &payload)
                    .map(|()| Resp::Ok),
            ),
            Request::Location => Resp::Loc(pool.location(rank)),
            Request::Draw { kind } => reply(pool.draw(rank, kind).map(Resp::Fate)),
            Request::Capture => reply(pool.capture_rank(rank).map(Resp::Snapshot)),
            Request::Restore(snap) => pool
                .restore_rank(rank, snap)
                .map_or_else(Resp::CkptErr, |()| Resp::Ok),
            Request::Reseed { attempt } => reply(pool.reseed(rank, attempt).map(|()| Resp::Ok)),
            Request::Stats => reply(pool.stats(rank).map(|mut s| {
                s.connect_retries += connect_retries;
                Resp::Stats(s)
            })),
            Request::Finish {
                done,
                vclock,
                compute_cycles,
                comm_cycles,
            } => {
                let ctl = RankCtl {
                    vclock,
                    compute_cycles,
                    comm_cycles,
                    state: RankState::Done(done),
                    ..RankCtl::default()
                };
                match pool.finish_rank(rank, &ctl) {
                    Ok(outcome) => {
                        let mut w = nir::codec::Writer::new();
                        exec::ckpt::write_machine(&mut w, &outcome.machine);
                        Resp::Outcome {
                            output: outcome.output,
                            gpu_time: outcome.gpu_time,
                            machine: w.into_bytes(),
                        }
                    }
                    Err(e) => Resp::Err(e),
                }
            }
            Request::Shutdown => {
                let _ = write_frame(stream, &proto::encode_resp(&Resp::Ok));
                return Ok(());
            }
        };
        write_frame(stream, &proto::encode_resp(&resp))?;
    }
}

fn reply(r: Result<Resp, SimError>) -> Resp {
    r.unwrap_or_else(Resp::Err)
}
