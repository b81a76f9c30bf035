//! # worker — one rank in its own OS process (or thread)
//!
//! A worker dials the coordinator's loopback rendezvous port,
//! identifies itself with a token-bearing `Hello`, receives the program
//! and world configuration in `Init`, and then answers one
//! [`RankPool`]-shaped request at a time. The execution engine is the
//! *same* [`LocalPool`] the in-process `mpi-sim` backend uses, holding
//! exactly one live rank — so every instruction, fault draw, cost
//! charge, and checkpoint byte is produced by the identical code path
//! on both sides of the process boundary. Bit-identity with `mpi-sim`
//! is by construction, not by test luck.
//!
//! [`RankPool`]: mpi_sim::RankPool

use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use exec::{FaultRng, Machine, Val};
use mpi_sim::{
    read_frame, write_frame, LocalPool, RankCtl, RankPool, SimError, TransportError, World,
};
use nir::codec::Wire;
use nir::{FuncId, Program};

use crate::proto::{self, Hello, Request, Resp, WarmProgram, PROTO_VERSION};

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

/// Resolve an `Init`'s program: inline bytes win; an empty program
/// with a [`WarmProgram`] reference loads `<dir>/<digest:016x>.wprog`
/// and verifies the digest before trusting a byte of it. The bytes must
/// then decode to a program that passes [`Program::validate`] and has an
/// `entry` function, because the engine indexes both unchecked. Every
/// failure is a typed message — the coordinator falls back to inline
/// bytes.
fn resolve_program(
    program: Vec<u8>,
    warm: Option<WarmProgram>,
    entry: u32,
) -> Result<Program, String> {
    let bytes = if program.is_empty() {
        read_warm_program(warm)?
    } else {
        program
    };
    let program = Program::from_wire(&bytes).map_err(|e| format!("decoding program: {e}"))?;
    program
        .validate()
        .map_err(|m| format!("program failed validation: {m}"))?;
    if entry as usize >= program.funcs.len() {
        return Err(format!(
            "entry function {entry} out of range ({} functions)",
            program.funcs.len()
        ));
    }
    Ok(program)
}

/// The image a [`WarmProgram`] names, once its digest checks out.
fn read_warm_program(warm: Option<WarmProgram>) -> Result<Vec<u8>, String> {
    let Some(warm) = warm else {
        return Err("Init carried neither program bytes nor a warm reference".into());
    };
    let path = crate::warm_program_path(Path::new(&warm.dir), warm.digest);
    let bytes =
        std::fs::read(&path).map_err(|e| format!("warm program {}: {e}", path.display()))?;
    let found = nir::digest64(&bytes, crate::WARM_DIGEST_SEED);
    if found != warm.digest {
        return Err(format!(
            "warm program {}: digest mismatch (stored {:#018x}, computed {found:#018x})",
            path.display(),
            warm.digest
        ));
    }
    Ok(bytes)
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
    // An Init whose program does not resolve (missing/corrupt `.wprog`),
    // decode or validate is answered with a typed error; after a warm
    // miss the coordinator re-sends Init with the program inline, so the
    // loop admits a second attempt — never a split-brain, never a hang.
    let mut init = proto::decode_req(&read_frame(&mut stream)?)?;
    let (size, entry, program, fault, gpu, kill_after_runs) = loop {
        let Request::Init {
            size,
            entry,
            program,
            fault,
            gpu,
            kill_after_runs,
            warm,
        } = init
        else {
            return Err(corrupt("first request after Hello must be Init"));
        };
        match resolve_program(program, warm, entry) {
            Ok(program) => break (size, entry, program, fault, gpu, kill_after_runs),
            Err(message) => {
                write_frame(
                    &mut stream,
                    &proto::encode_resp(&Resp::Err(SimError::World {
                        message: format!("dist worker rank {rank}: {message}"),
                    })),
                )?;
                init = proto::decode_req(&read_frame(&mut stream)?)?;
            }
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
                match pool.run_slice(rank, slice) {
                    Ok((y, delta)) => Resp::Yielded { y, delta },
                    Err(e) => Resp::Err(e),
                }
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
            Request::MessageFault => reply(pool.message_fault(rank).map(Resp::Msg)),
            Request::CollectiveFault => reply(pool.collective_fault(rank).map(Resp::Msg)),
            Request::TransportFaultDraw => reply(pool.transport_fault(rank).map(Resp::Transport)),
            Request::ConnectDelay => reply(pool.connect_delay(rank).map(Resp::U64)),
            Request::CkptWriteFails => reply(pool.ckpt_write_fails(rank).map(Resp::Bool)),
            Request::Capture => reply(pool.capture_rank(rank).map(Resp::Snapshot)),
            Request::Restore {
                last_cycles,
                has_gpu,
                n_arrays,
                sections,
            } => {
                match pool.restore_rank(rank, last_cycles, has_gpu, n_arrays as usize, &sections) {
                    Ok(()) => Resp::Ok,
                    Err(e) => Resp::CkptErr(e),
                }
            }
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
                    done: Some(done),
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
