//! # dist — the socket-backed distributed backend
//!
//! One OS process per rank over loopback TCP, driven by the *same*
//! rank runtime ([`mpi_sim::runtime`]) that powers the in-process
//! `mpi-sim` backend. The coordinator (rank-0 side) is
//! the rendezvous point and spawner: it binds an ephemeral loopback
//! port, launches one worker per rank, seeds each worker's initial
//! state from its own argument builder (so initialization is
//! byte-identical to `mpi-sim`'s), and then drives the shared step
//! loop, reaching each rank through a typed, length-prefixed,
//! checksummed frame protocol ([`proto`]). Each worker gets the
//! program inline in one `Init` round; coordinator and worker may be
//! two builds, so the `Hello` carries [`proto::PROTO_VERSION`] and a
//! skew refuses the worker before any state moves. Every reply passes
//! one check: the expected variant, the worker's own typed error, or a
//! world error naming the rank.
//!
//! Because every scheduling, cost-model, and fault-stream decision is
//! made in the shared runtime on the coordinator side, and the worker
//! executes rank code through the identical [`LocalPool`] engine, a
//! `dist` world is bit-identical to an `mpi-sim` world of the same
//! size on every workload — the conformance suite holds it to that.
//!
//! The world's settings are an [`mpi_sim::World`]'s: a [`RemotePool`]
//! is built from one, and [`World::run_on`] drives it.
//!
//! Crash recovery is inherited whole: a worker process that dies
//! mid-protocol surfaces as a typed [`SimError::Crash`] for its rank,
//! and a run with a checkpoint policy rolls every rank back to the last
//! collective-boundary delta checkpoint, respawns the dead process,
//! and resumes.
//!
//! [`LocalPool`]: mpi_sim::LocalPool
//! [`World::run_on`]: mpi_sim::World::run_on

#![forbid(unsafe_code)]

pub mod proto;
pub mod worker;

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use exec::ckpt::{self, CkptError};
use exec::{Draw, Fate, ResilienceStats, Val};
use mpi_sim::{
    read_frame, write_frame, ArgBuilder, DeviceOutcome, RankCtl, RankOutcome, RankPool,
    RankSnapshot, RankYield, SimError, TransportError, World, WorldBody, WorldRun,
};
use nir::codec::{Reader, Wire};
use nir::FuncId;

use proto::{Request, Resp, PROTO_VERSION};

/// A reply picker for [`RemotePool::call`]: the value the expected
/// `Resp` variant carries, or the reply itself (boxed: off the happy
/// path) when it is another one.
macro_rules! pick {
    ($($variant:pat => $value:expr),+ $(,)?) => {
        |resp: Resp| match resp {
            $($variant => Ok($value),)+
            other => Err(Box::new(other)),
        }
    };
}

/// How a [`RemotePool`] brings its rank workers into existence.
#[derive(Debug, Clone)]
pub enum Launch {
    /// Each rank is a thread of this process that dials the rendezvous
    /// port and runs the full worker protocol (program bytes and all)
    /// over real loopback TCP. Default: full wire fidelity without
    /// needing a worker executable on disk.
    Threads,
    /// Each rank is a spawned OS process running `exe args...`, which
    /// must call [`worker::run_if_spawned`] before doing anything else.
    Processes { exe: PathBuf, args: Vec<String> },
}

/// Wall-clock bound for the rendezvous: every spawned worker must dial
/// in and complete its `Hello` within this window.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-response read bound on the coordinator side: no worker reply
/// within this window means the rank is treated as dead (typed
/// [`SimError::Crash`]), never a hang.
const RPC_TIMEOUT: Duration = Duration::from_secs(30);

/// Process-unique rendezvous token source (pid-salted so tokens differ
/// across concurrently testing processes too).
static TOKEN_SEQ: AtomicU64 = AtomicU64::new(1);

fn fresh_token() -> u64 {
    let seq = TOKEN_SEQ.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 32) ^ (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

struct Worker {
    stream: TcpStream,
    /// The rank's OS process under `Launch::Processes` (threads detach).
    child: Option<Child>,
}

impl Worker {
    fn dispose(mut self) {
        // Best-effort: ask nicely, then make sure the process is gone.
        let _ = write_frame(&mut self.stream, &proto::encode_req(&Request::Shutdown))
            .and_then(|()| read_frame(&mut self.stream));
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The distributed rank pool: the coordinator-side half of the
/// [`RankPool`] seam. Owns the rendezvous listener, the worker
/// connections, and the chaos knobs; everything else it reads from its
/// [`World`] (foreign function pointers excepted: they cannot cross a
/// process boundary, so the world's host registry stays unused).
pub struct RemotePool<'p, 'a> {
    /// Program, size, device and fault plan of every rank.
    world: &'a World<'p>,
    program_bytes: Vec<u8>,
    entry: FuncId,
    make_args: ArgBuilder<'a>,
    launch: Launch,
    listener: TcpListener,
    port: u16,
    token: u64,
    workers: Vec<Option<Worker>>,
    /// Kill the given rank's worker after it has served this many run
    /// slices — consumed once (respawned workers never inherit it), so
    /// recovery is observable instead of an infinite kill loop.
    kill_rank_after: Option<(u32, u64)>,
    /// Coordinator-side count of overlapped fan-out rounds (see
    /// [`Self::call_all`]); drained into rank 0's
    /// [`ResilienceStats`] reply so the restart loop's per-attempt
    /// stats reads never double-count it.
    overlapped_rounds: u64,
}

fn world_err(message: impl Into<String>) -> SimError {
    SimError::World {
        message: message.into(),
    }
}

impl<'p, 'a> RemotePool<'p, 'a> {
    /// `world`'s ranks in workers started by `launch`, each entering
    /// `entry` with the arguments `make_args` builds (coordinator-side,
    /// into the rank's memory, then shipped as its first restore).
    pub fn new(
        world: &'a World<'p>,
        entry: FuncId,
        make_args: ArgBuilder<'a>,
        launch: Launch,
    ) -> Result<Self, SimError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| world_err(format!("dist: binding rendezvous port: {e}")))?;
        let port = listener
            .local_addr()
            .map_err(|e| world_err(format!("dist: rendezvous address: {e}")))?
            .port();
        Ok(RemotePool {
            world,
            program_bytes: world.program.to_wire(),
            entry,
            make_args,
            launch,
            listener,
            port,
            token: fresh_token(),
            workers: (0..world.size).map(|_| None).collect(),
            kill_rank_after: None,
            overlapped_rounds: 0,
        })
    }

    /// Chaos knob: kill `rank`'s worker after it has served
    /// `run_slices` slices. Consumed by the first spawn only, so the
    /// respawned worker survives and recovery completes.
    pub fn kill_rank_after(mut self, rank: u32, run_slices: u64) -> Self {
        self.kill_rank_after = Some((rank, run_slices));
        self
    }

    /// Spawn + rendezvous + `Init` every rank that has no live worker.
    fn ensure_workers(&mut self) -> Result<(), SimError> {
        let missing: Vec<u32> = (0..self.world.size)
            .filter(|&r| self.workers[r as usize].is_none())
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let mut children: Vec<Option<Child>> = Vec::new();
        for &r in &missing {
            children.push(self.spawn(r)?);
        }
        self.rendezvous(&missing, &mut children)?;
        // The kill knob goes to the first spawn of its rank only.
        let kill = self
            .kill_rank_after
            .take_if(|(rank, _)| missing.contains(rank));
        let reqs: Vec<(u32, Request)> = missing
            .iter()
            .map(|&r| {
                let req = Request::Init {
                    size: self.world.size,
                    entry: self.entry.0,
                    program: self.program_bytes.clone(),
                    fault: self.world.fault.map(Box::new),
                    gpu: self.world.gpu,
                    kill_after_runs: kill.filter(|&(rank, _)| rank == r).map(|(_, n)| n),
                };
                (r, req)
            })
            .collect();
        self.call_all(&reqs, pick!(Resp::Ok => ()))?;
        Ok(())
    }

    fn spawn(&self, r: u32) -> Result<Option<Child>, SimError> {
        match &self.launch {
            Launch::Threads => {
                let port = self.port;
                let token = self.token;
                std::thread::Builder::new()
                    .name(format!("wj-dist-rank{r}"))
                    .spawn(move || {
                        let (dial, retries) =
                            worker::connect_with_retry(port, token ^ u64::from(r));
                        if let Ok(stream) = dial {
                            let _ = worker::serve_on(stream, r, token, retries);
                        }
                    })
                    .map_err(|e| world_err(format!("dist: spawning rank {r} thread: {e}")))?;
                Ok(None)
            }
            Launch::Processes { exe, args } => {
                let child = Command::new(exe)
                    .args(args)
                    .env(worker::ENV_RANK, r.to_string())
                    .env(worker::ENV_PORT, self.port.to_string())
                    .env(worker::ENV_TOKEN, self.token.to_string())
                    .stdin(Stdio::null())
                    .spawn()
                    .map_err(|e| world_err(format!("dist: spawning rank {r} process: {e}")))?;
                Ok(Some(child))
            }
        }
    }

    /// Accept `Hello`s until every rank in `want` has connected (they
    /// arrive in arbitrary order), within a wall-clock bound.
    fn rendezvous(&mut self, want: &[u32], children: &mut [Option<Child>]) -> Result<(), SimError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| world_err(format!("dist: rendezvous listener: {e}")))?;
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        let mut connected = 0usize;
        while connected < want.len() {
            if Instant::now() > deadline {
                return Err(world_err(format!(
                    "dist: rendezvous timed out with {connected}/{} workers connected",
                    want.len()
                )));
            }
            let mut stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(world_err(format!("dist: accept: {e}"))),
            };
            let _ = stream.set_nodelay(true);
            if stream.set_read_timeout(Some(RPC_TIMEOUT)).is_err() {
                continue;
            }
            let hello = match read_frame(&mut stream).and_then(|b| proto::decode_hello(&b)) {
                Ok(h) => h,
                Err(_) => continue, // stray dialer: drop it, keep waiting
            };
            // Refuse before any state moves, naming the check that failed.
            let refusal = if hello.token != self.token {
                Some("wrong token".to_string())
            } else if hello.proto != PROTO_VERSION {
                Some(format!("proto {}, expected {PROTO_VERSION}", hello.proto))
            } else if !want.contains(&hello.rank) {
                Some(format!("rank {} is not awaited", hello.rank))
            } else if self.workers[hello.rank as usize].is_some() {
                Some(format!("rank {} is already connected", hello.rank))
            } else {
                None
            };
            if let Some(why) = refusal {
                let _ = write_frame(
                    &mut stream,
                    &proto::encode_resp(&Resp::Err(world_err(format!(
                        "dist: rendezvous refused: {why}"
                    )))),
                );
                continue;
            }
            write_frame(&mut stream, &proto::encode_resp(&Resp::Ok))
                .map_err(|e| world_err(format!("dist: acking rank {}: {e}", hello.rank)))?;
            let child = want
                .iter()
                .position(|&r| r == hello.rank)
                .and_then(|i| children[i].take());
            self.workers[hello.rank as usize] = Some(Worker { stream, child });
            connected += 1;
        }
        Ok(())
    }

    /// Tear down rank `r`'s worker after a wire failure and type it as
    /// a *recoverable* crash — the restart machinery respawns it.
    fn bury(&mut self, r: u32, e: TransportError) -> SimError {
        if let Some(w) = self.workers[r as usize].take() {
            if let Some(mut child) = { w }.child {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        SimError::Crash {
            rank: r,
            step: 0,
            post_mortem: format!("dist: worker for rank {r} died mid-protocol: {e}"),
        }
    }

    /// One frame of wire I/O on rank `r`'s live worker; a wire failure
    /// buries the worker.
    fn on_worker<T>(
        &mut self,
        r: u32,
        io: impl FnOnce(&mut TcpStream) -> Result<T, TransportError>,
    ) -> Result<T, SimError> {
        let worker = self
            .workers
            .get_mut(r as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| world_err(format!("dist: rank {r} has no live worker")))?;
        io(&mut worker.stream).map_err(|e| self.bury(r, e))
    }

    /// Write one request frame to rank `r` without awaiting the reply.
    fn send(&mut self, r: u32, req: &Request) -> Result<(), SimError> {
        self.on_worker(r, |s| write_frame(s, &proto::encode_req(req)))
    }

    /// Await the one pending reply from rank `r`.
    fn receive(&mut self, r: u32) -> Result<Resp, SimError> {
        self.on_worker(r, |s| proto::decode_resp(&read_frame(s)?))
    }

    /// One request/response round to rank `r`'s worker, its reply
    /// checked by [`check_reply`]. A wire failure buries the worker and
    /// surfaces as a typed, *recoverable* crash for that rank — the
    /// restart machinery respawns it.
    fn call<T>(
        &mut self,
        r: u32,
        req: &Request,
        pick: impl FnOnce(Resp) -> Result<T, Box<Resp>>,
    ) -> Result<T, SimError> {
        self.send(r, req)?;
        check_reply(r, self.receive(r)?, pick)
    }

    /// Overlapped fan-out of [`Self::call`]: write *every* request frame
    /// back to back, then await the replies in the same rank order — the
    /// whole world pays one round-trip latency instead of one per rank.
    /// Every reply is drained, even after a failure, so surviving
    /// workers stay in strict lockstep (no stale reply can desynchronize
    /// a later request); the first failure surfaces after the drain.
    fn call_all<T>(
        &mut self,
        reqs: &[(u32, Request)],
        pick: impl Fn(Resp) -> Result<T, Box<Resp>>,
    ) -> Result<Vec<(u32, T)>, SimError> {
        if reqs.len() > 1 {
            self.overlapped_rounds += 1;
        }
        let mut first_err: Option<SimError> = None;
        let mut written: Vec<u32> = Vec::with_capacity(reqs.len());
        for (r, req) in reqs {
            match self.send(*r, req) {
                Ok(()) => written.push(*r),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let mut out = Vec::with_capacity(written.len());
        for r in written {
            match self.receive(r).and_then(|resp| check_reply(r, resp, &pick)) {
                Ok(v) => out.push((r, v)),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }
}

/// The one reply check: the value `pick` takes out of the expected
/// variant, the worker's own error passed through unchanged, or a world
/// error naming the rank for any other reply.
fn check_reply<T>(
    r: u32,
    resp: Resp,
    pick: impl FnOnce(Resp) -> Result<T, Box<Resp>>,
) -> Result<T, SimError> {
    pick(resp).map_err(|reply| match *reply {
        Resp::Err(e) => e,
        reply => world_err(format!("dist: rank {r} sent mismatched reply {reply:?}")),
    })
}

impl RankPool for RemotePool<'_, '_> {
    fn wrap_run(&mut self, run: &mut WorldBody<'_>) -> Result<WorldRun, SimError> {
        run(self)
    }
    fn reinit(&mut self) -> Result<(), SimError> {
        self.ensure_workers()?;
        // Build the pristine rank states with the *in-process* engine —
        // same argument builder, same fault derivation, same machine
        // layout — and ship them over as restores. A dist cold start is
        // therefore byte-identical to an mpi-sim cold start.
        let mut seed = mpi_sim::LocalPool::new(self.world, self.entry, &mut *self.make_args);
        seed.reinit()?;
        let snaps: Vec<RankSnapshot> = (0..self.world.size)
            .map(|r| seed.capture_rank(r))
            .collect::<Result<_, _>>()?;
        drop(seed);
        let reqs: Vec<(u32, Request)> = (0..self.world.size)
            .zip(snaps)
            .map(|(r, snap)| (r, Request::Restore(snap)))
            .collect();
        let replies =
            self.call_all(&reqs, pick!(Resp::Ok => Ok(()), Resp::CkptErr(e) => Err(e)))?;
        for (r, restored) in replies {
            restored.map_err(|e| world_err(format!("dist: seeding rank {r}: {e}")))?;
        }
        Ok(())
    }

    fn prepare_resume(&mut self) -> Result<(), SimError> {
        self.ensure_workers()
    }

    fn run_slices(
        &mut self,
        ranks: &[u32],
        slice: u64,
    ) -> Result<Vec<(u32, RankYield, u64)>, SimError> {
        ranks
            .iter()
            .map(|&r| {
                let (y, delta) = self.call(
                    r,
                    &Request::Run { slice },
                    pick!(Resp::Yielded { y, delta } => (y, delta)),
                )?;
                Ok((r, y, delta))
            })
            .collect()
    }

    fn resume(&mut self, r: u32, v: Val) -> Result<(), SimError> {
        self.call(r, &Request::Resume { v }, pick!(Resp::Ok => ()))
    }

    fn service_device(&mut self, r: u32) -> Result<DeviceOutcome, SimError> {
        self.call(r, &Request::ServiceDevice, pick!(Resp::Device(o) => o))
    }

    fn service_host(&mut self, r: u32) -> Result<u64, SimError> {
        self.call(
            r,
            &Request::ServiceHost,
            pick!(Resp::U64(backoff) => backoff),
        )
    }

    fn read_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        count: usize,
    ) -> Result<Vec<f32>, SimError> {
        let req = Request::ReadFloats {
            buf,
            off: off as u64,
            count: count as u64,
        };
        self.call(r, &req, pick!(Resp::Floats(fs) => fs))
    }

    fn write_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        payload: &[f32],
    ) -> Result<(), SimError> {
        let req = Request::WriteFloats {
            buf,
            off: off as u64,
            payload: payload.to_vec(),
        };
        self.call(r, &req, pick!(Resp::Ok => ()))
    }

    fn location(&mut self, r: u32) -> Option<(String, u32)> {
        self.call(r, &Request::Location, pick!(Resp::Loc(loc) => loc))
            .ok()
            .flatten()
    }

    fn draw(&mut self, r: u32, kind: Draw) -> Result<Fate, SimError> {
        // Every rank's plan comes from the world's config: without one,
        // no rank draws, so the answer needs no round trip.
        if self.world.fault.is_none() {
            return Ok(Fate::default());
        }
        self.call(r, &Request::Draw { kind }, pick!(Resp::Fate(f) => f))
    }

    fn capture_rank(&mut self, r: u32) -> Result<RankSnapshot, SimError> {
        self.call(r, &Request::Capture, pick!(Resp::Snapshot(snap) => snap))
    }

    fn restore_rank(&mut self, r: u32, snap: RankSnapshot) -> Result<(), CkptError> {
        let picked = self.call(
            r,
            &Request::Restore(snap),
            pick!(Resp::Ok => Ok(()), Resp::CkptErr(e) => Err(e)),
        );
        // A dead worker degrades the chain link like a corrupt one: the
        // restart loop falls back to a deeper ancestor (or a cold start)
        // after prepare_resume has respawned the rank.
        picked.unwrap_or_else(|e| {
            Err(CkptError::Corrupt {
                offset: 0,
                message: format!("dist: restoring rank {r}: {e}"),
            })
        })
    }

    fn reseed(&mut self, r: u32, attempt: u64) -> Result<(), SimError> {
        self.call(r, &Request::Reseed { attempt }, pick!(Resp::Ok => ()))
    }

    fn stats(&mut self, r: u32) -> Result<ResilienceStats, SimError> {
        let mut s = self.call(r, &Request::Stats, pick!(Resp::Stats(s) => s))?;
        if r == 0 {
            // The coordinator's fan-out counter rides on rank 0's reply,
            // drained so the restart loop's per-attempt reads never
            // double-count it.
            s.overlapped_rounds += std::mem::take(&mut self.overlapped_rounds);
        }
        Ok(s)
    }

    fn finish(&mut self, ctls: &[RankCtl]) -> Result<Vec<RankOutcome>, SimError> {
        let reqs: Vec<(u32, Request)> = ctls
            .iter()
            .enumerate()
            .map(|(r, ctl)| {
                let req = Request::Finish {
                    done: ctl.result(),
                    vclock: ctl.vclock,
                    compute_cycles: ctl.compute_cycles,
                    comm_cycles: ctl.comm_cycles,
                };
                (r as u32, req)
            })
            .collect();
        let replies = self.call_all(
            &reqs,
            pick!(Resp::Outcome { output, gpu_time, machine } => (output, gpu_time, machine)),
        )?;
        replies
            .into_iter()
            .zip(ctls)
            .map(|((r, (output, gpu_time, machine)), ctl)| {
                let machine = ckpt::read_machine(&mut Reader::new(&machine))
                    .map_err(|e| world_err(format!("dist: rank {r} final machine: {e}")))?;
                Ok(RankOutcome {
                    result: ctl.result(),
                    vclock: ctl.vclock,
                    compute_cycles: ctl.compute_cycles,
                    comm_cycles: ctl.comm_cycles,
                    output,
                    gpu_time,
                    machine,
                })
            })
            .collect()
    }
}

impl Drop for RemotePool<'_, '_> {
    fn drop(&mut self) {
        for worker in self.workers.iter_mut().filter_map(Option::take) {
            worker.dispose();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec::Machine;
    use nir::{FuncKind, Function, Instr, Program, Ty};
    use proto::Hello;

    /// `int main() { r0 = 7; return r0; }`.
    fn program() -> Program {
        let mut p = Program::default();
        let main = p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: Some(Ty::I32),
            regs: vec![Ty::I32],
            code: vec![Instr::ConstI32(0, 7), Instr::Ret(Some(0))],
            kind: FuncKind::Host,
        });
        p.entry = Some(main);
        p
    }

    fn no_args(_: u32, _: &mut Machine) -> Result<Vec<Val>, String> {
        Ok(vec![])
    }

    #[test]
    fn every_reply_passes_one_check() {
        let p = program();
        let world = World::new(&p, 1);
        let mut args = no_args;
        let mut pool = RemotePool::new(&world, FuncId(0), &mut args, Launch::Threads).unwrap();
        // A fake rank-0 worker: two scripted replies, then it reads one
        // more request and closes its socket unanswered.
        let port = pool.port;
        let fake = std::thread::spawn(move || {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            let rank_err = SimError::Rank {
                rank: 0,
                message: "boom".into(),
            };
            for reply in [Resp::Ok, Resp::Err(rank_err)] {
                proto::decode_req(&read_frame(&mut s).unwrap()).unwrap();
                write_frame(&mut s, &proto::encode_resp(&reply)).unwrap();
            }
            let _ = read_frame(&mut s);
        });
        let (stream, _) = pool.listener.accept().unwrap();
        stream.set_read_timeout(Some(RPC_TIMEOUT)).unwrap();
        pool.workers[0] = Some(Worker {
            stream,
            child: None,
        });

        // The wrong variant: a world error naming the rank; the worker
        // stays live.
        match pool.service_host(0) {
            Err(SimError::World { message }) => {
                assert_eq!(message, "dist: rank 0 sent mismatched reply Ok")
            }
            other => panic!("expected a world error, got {other:?}"),
        }
        assert!(pool.workers[0].is_some());
        // The worker's own error passes through unchanged.
        match pool.service_host(0) {
            Err(SimError::Rank { rank: 0, message }) => assert_eq!(message, "boom"),
            other => panic!("expected the rank error, got {other:?}"),
        }
        assert!(pool.workers[0].is_some());
        // A closed socket: a crash of that rank, its worker buried.
        match pool.service_host(0) {
            Err(SimError::Crash { rank: 0, .. }) => {}
            other => panic!("expected a crash of rank 0, got {other:?}"),
        }
        assert!(pool.workers[0].is_none());
        fake.join().unwrap();
    }

    #[test]
    fn a_refused_dialer_learns_which_check_failed() {
        let p = program();
        let world = World::new(&p, 2);
        let mut args = no_args;
        let mut pool = RemotePool::new(&world, FuncId(0), &mut args, Launch::Threads).unwrap();
        let hello = |token: u64, rank: u32, proto: u32| Hello { token, rank, proto };
        let rows = [
            (hello(pool.token ^ 1, 0, PROTO_VERSION), "wrong token"),
            (hello(pool.token, 0, PROTO_VERSION ^ 0x100), "proto "),
            (hello(pool.token, 9, PROTO_VERSION), "rank 9 is not awaited"),
        ];
        // Dialed before the workers are spawned, so the rendezvous meets
        // these first.
        let mut dialers: Vec<(TcpStream, &str)> = rows
            .into_iter()
            .map(|(h, needle)| {
                let mut s = TcpStream::connect(("127.0.0.1", pool.port)).unwrap();
                s.set_read_timeout(Some(RPC_TIMEOUT)).unwrap();
                write_frame(&mut s, &proto::encode_hello(&h)).unwrap();
                (s, needle)
            })
            .collect();
        let run = world.run_on(&mut pool, None).unwrap();
        for (s, needle) in &mut dialers {
            let reply = format!("{:?}", proto::decode_resp(&read_frame(s).unwrap()).unwrap());
            assert!(
                reply.starts_with(r#"Err(World { message: "dist: rendezvous refused: "#)
                    && reply.contains(*needle),
                "{needle:?} not in {reply}"
            );
        }
        let results: Vec<_> = run.ranks.iter().map(|r| r.result).collect();
        assert_eq!(results, [Some(Val::I32(7)), Some(Val::I32(7))]);
    }
}
