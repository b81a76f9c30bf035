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
//! checksummed frame protocol ([`proto`]).
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
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use exec::ckpt::chain::Section;
use exec::ckpt::{self, CkptError};
use exec::{MsgFault, ResilienceStats, TransportFault, Val};
use mpi_sim::{
    read_frame, write_frame, ArgBuilder, DeviceOutcome, RankCtl, RankOutcome, RankPool,
    RankSnapshot, RankYield, SimError, TransportError, World,
};
use nir::codec::{Reader, Wire};
use nir::FuncId;

use proto::{Request, Resp, WarmProgram, PROTO_VERSION};

/// Digest seed for warm program images (`.wprog` files) — namespaced
/// away from the artifact-seal and frame-checksum digests so a file of
/// one kind never verifies as another.
pub const WARM_DIGEST_SEED: u64 = 0x5750_5247; // "WPRG"

/// Where a program image with `digest` lives inside a warm directory.
pub fn warm_program_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.wprog"))
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
    fn rpc(&mut self, req: &Request) -> Result<Resp, TransportError> {
        write_frame(&mut self.stream, &proto::encode_req(req))?;
        proto::decode_resp(&read_frame(&mut self.stream)?)
    }

    fn dispose(mut self) {
        // Best-effort: ask nicely, then make sure the process is gone.
        let _ = self.rpc(&Request::Shutdown);
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
    /// Warm program store: when set, the program bytes are persisted
    /// once as `<dir>/<digest:016x>.wprog` and every `Init` ships a
    /// 16-byte digest reference instead of the program (workers verify
    /// the digest; any failure falls back to inline bytes, typed).
    warm_dir: Option<PathBuf>,
    /// Digest of `program_bytes` under [`WARM_DIGEST_SEED`].
    program_digest: u64,
    /// Coordinator-side count of overlapped RPC fan-out rounds (see
    /// [`Self::rpc_fanout`]); drained into rank 0's
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
        let program_bytes = world.program.to_wire();
        let program_digest = nir::digest64(&program_bytes, WARM_DIGEST_SEED);
        Ok(RemotePool {
            world,
            program_bytes,
            entry,
            make_args,
            launch,
            listener,
            port,
            token: fresh_token(),
            workers: (0..world.size).map(|_| None).collect(),
            kill_rank_after: None,
            warm_dir: None,
            program_digest,
            overlapped_rounds: 0,
        })
    }

    /// Share the program image with spawned workers through `dir`
    /// instead of streaming it inline over the Init frame: the
    /// coordinator persists it once (content-addressed by digest) and
    /// every worker — including respawns after a crash — loads and
    /// digest-verifies it from disk. A worker that cannot resolve the
    /// warm reference answers a typed error and the coordinator falls
    /// back to the inline image automatically.
    pub fn with_warm_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.warm_dir = Some(dir.into());
        self
    }

    /// Chaos knob: kill `rank`'s worker after it has served
    /// `run_slices` slices. Consumed by the first spawn only, so the
    /// respawned worker survives and recovery completes.
    pub fn kill_rank_after(mut self, rank: u32, run_slices: u64) -> Self {
        self.kill_rank_after = Some((rank, run_slices));
        self
    }

    /// Persist the program image into the warm directory (idempotent:
    /// the file is content-addressed by digest and written with
    /// [`mpi_sim::write_atomic`], so concurrent coordinators sharing the
    /// directory never tear it). Returns the warm reference to ship, or
    /// `None` when persistence failed — the caller then ships the
    /// program inline: I/O trouble degrades, it never breaks the world.
    fn publish_warm_program(&self) -> Option<WarmProgram> {
        let dir = self.warm_dir.as_deref()?;
        let path = warm_program_path(dir, self.program_digest);
        if !path.is_file() {
            std::fs::create_dir_all(dir).ok()?;
            mpi_sim::write_atomic(&path, &self.program_bytes).ok()?;
        }
        Some(WarmProgram {
            dir: dir.to_string_lossy().into_owned(),
            digest: self.program_digest,
        })
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
        let warm = self.publish_warm_program();
        let kills: Vec<Option<u64>> = missing
            .iter()
            .map(|&r| match self.kill_rank_after {
                Some((kr, n)) if kr == r => {
                    self.kill_rank_after = None;
                    Some(n)
                }
                _ => None,
            })
            .collect();
        // Warm path first: ship a digest reference instead of the
        // program image. A worker that cannot resolve it (missing
        // file, digest mismatch) answers a typed Err and keeps its
        // Init loop open, so that rank is retried with the bytes
        // inline. Both rounds fan out overlapped: every Init frame is
        // written before any reply is awaited, so a cold start pays
        // one round-trip latency instead of one per rank.
        let init_req = |pool: &Self, kill: Option<u64>, warm: Option<WarmProgram>| {
            let inline = warm.is_none();
            Request::Init {
                size: pool.world.size,
                entry: pool.entry.0,
                program: if inline {
                    pool.program_bytes.clone()
                } else {
                    Vec::new()
                },
                fault: pool.world.fault.map(Box::new),
                gpu: pool.world.gpu,
                kill_after_runs: kill,
                warm,
            }
        };
        let first: Vec<(u32, Request)> = missing
            .iter()
            .zip(&kills)
            .map(|(&r, &kill)| (r, init_req(self, kill, warm.clone())))
            .collect();
        let mut retry: Vec<(u32, Request)> = Vec::new();
        for ((r, resp), &kill) in self.rpc_fanout(&first)?.into_iter().zip(&kills) {
            match resp {
                Resp::Ok => {}
                Resp::Err(e) => {
                    if warm.is_some() {
                        // Warm miss: queue the inline retry.
                        retry.push((r, init_req(self, kill, None)));
                    } else {
                        return Err(e);
                    }
                }
                other => {
                    return Err(world_err(format!(
                        "dist: rank {r} answered Init with {other:?}"
                    )))
                }
            }
        }
        if !retry.is_empty() {
            for (r, resp) in self.rpc_fanout(&retry)? {
                match resp {
                    Resp::Ok => {}
                    Resp::Err(e) => return Err(e),
                    other => {
                        return Err(world_err(format!(
                            "dist: rank {r} answered Init with {other:?}"
                        )))
                    }
                }
            }
        }
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
            if hello.token != self.token
                || hello.proto != PROTO_VERSION
                || !want.contains(&hello.rank)
                || self.workers[hello.rank as usize].is_some()
            {
                // Wrong token/version/rank: refuse before any state moves.
                let _ = write_frame(
                    &mut stream,
                    &proto::encode_resp(&Resp::Err(world_err(format!(
                        "dist: rendezvous refused (proto {}, expected {PROTO_VERSION})",
                        hello.proto
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

    /// Write one request frame to rank `r` without awaiting the reply.
    fn worker_write(&mut self, r: u32, req: &Request) -> Result<(), SimError> {
        let res = {
            let worker = self
                .workers
                .get_mut(r as usize)
                .and_then(Option::as_mut)
                .ok_or_else(|| world_err(format!("dist: rank {r} has no live worker")))?;
            write_frame(&mut worker.stream, &proto::encode_req(req))
        };
        res.map_err(|e| self.bury(r, e))
    }

    /// Await the one pending reply from rank `r`.
    fn worker_read(&mut self, r: u32) -> Result<Resp, SimError> {
        let res = {
            let worker = self
                .workers
                .get_mut(r as usize)
                .and_then(Option::as_mut)
                .ok_or_else(|| world_err(format!("dist: rank {r} has no live worker")))?;
            read_frame(&mut worker.stream).and_then(|b| proto::decode_resp(&b))
        };
        res.map_err(|e| self.bury(r, e))
    }

    /// One request/response round to rank `r`'s worker. A wire failure
    /// buries the worker and surfaces as a typed, *recoverable* crash
    /// for that rank — the restart machinery respawns it.
    fn rpc(&mut self, r: u32, req: &Request) -> Result<Resp, SimError> {
        self.worker_write(r, req)?;
        self.worker_read(r)
    }

    /// Overlapped fan-out: write *every* request frame back to back,
    /// then await the replies in the same rank order — the whole world
    /// pays one round-trip latency instead of one per rank. A wire
    /// failure buries its rank exactly as [`Self::rpc`] does, but the
    /// remaining replies are still drained first so surviving workers
    /// stay in strict lockstep (no stale reply can desynchronize a
    /// later request); the first failure surfaces after the drain.
    fn rpc_fanout(&mut self, reqs: &[(u32, Request)]) -> Result<Vec<(u32, Resp)>, SimError> {
        if reqs.len() > 1 {
            self.overlapped_rounds += 1;
        }
        let mut first_err: Option<SimError> = None;
        let mut written: Vec<u32> = Vec::with_capacity(reqs.len());
        for (r, req) in reqs {
            match self.worker_write(*r, req) {
                Ok(()) => written.push(*r),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let mut out = Vec::with_capacity(written.len());
        for r in written {
            match self.worker_read(r) {
                Ok(resp) => out.push((r, resp)),
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

    /// Unwrap a worker reply that should be `Ok`.
    fn expect_ok(&mut self, r: u32, req: &Request) -> Result<(), SimError> {
        match self.rpc(r, req)? {
            Resp::Ok => Ok(()),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} sent mismatched reply {other:?}"
            ))),
        }
    }
}

impl RankPool for RemotePool<'_, '_> {
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
            .map(|(r, snap)| {
                let n_arrays = snap.sections.len() - 2 - usize::from(snap.has_gpu);
                let req = Request::Restore {
                    last_cycles: snap.last_cycles,
                    has_gpu: snap.has_gpu,
                    n_arrays: n_arrays as u64,
                    sections: snap.sections,
                };
                (r, req)
            })
            .collect();
        for (r, resp) in self.rpc_fanout(&reqs)? {
            match resp {
                Resp::Ok => {}
                Resp::CkptErr(e) => return Err(world_err(format!("dist: seeding rank {r}: {e}"))),
                Resp::Err(e) => return Err(e),
                other => {
                    return Err(world_err(format!(
                        "dist: rank {r} answered Restore with {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    fn prepare_resume(&mut self) -> Result<(), SimError> {
        self.ensure_workers()
    }

    fn run_slice(&mut self, r: u32, slice: u64) -> Result<(RankYield, u64), SimError> {
        match self.rpc(r, &Request::Run { slice })? {
            Resp::Yielded { y, delta } => Ok((y, delta)),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered Run with {other:?}"
            ))),
        }
    }

    fn resume(&mut self, r: u32, v: Val) -> Result<(), SimError> {
        self.expect_ok(r, &Request::Resume { v })
    }

    fn service_device(&mut self, r: u32) -> Result<DeviceOutcome, SimError> {
        match self.rpc(r, &Request::ServiceDevice)? {
            Resp::Device(outcome) => Ok(outcome),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered ServiceDevice with {other:?}"
            ))),
        }
    }

    fn service_host(&mut self, r: u32) -> Result<u64, SimError> {
        match self.rpc(r, &Request::ServiceHost)? {
            Resp::U64(backoff) => Ok(backoff),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered ServiceHost with {other:?}"
            ))),
        }
    }

    fn read_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        count: usize,
    ) -> Result<Vec<f32>, SimError> {
        match self.rpc(
            r,
            &Request::ReadFloats {
                buf,
                off: off as u64,
                count: count as u64,
            },
        )? {
            Resp::Floats(fs) => Ok(fs),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered ReadFloats with {other:?}"
            ))),
        }
    }

    fn write_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        payload: &[f32],
    ) -> Result<(), SimError> {
        self.expect_ok(
            r,
            &Request::WriteFloats {
                buf,
                off: off as u64,
                payload: payload.to_vec(),
            },
        )
    }

    fn location(&mut self, r: u32) -> Option<(String, u32)> {
        match self.rpc(r, &Request::Location) {
            Ok(Resp::Loc(loc)) => loc,
            _ => None,
        }
    }

    fn has_fault_plan(&self, r: u32) -> bool {
        let _ = r;
        self.world.fault.is_some()
    }

    fn message_fault(&mut self, r: u32) -> Result<MsgFault, SimError> {
        match self.rpc(r, &Request::MessageFault)? {
            Resp::Msg(f) => Ok(f),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered MessageFault with {other:?}"
            ))),
        }
    }

    fn collective_fault(&mut self, r: u32) -> Result<MsgFault, SimError> {
        match self.rpc(r, &Request::CollectiveFault)? {
            Resp::Msg(f) => Ok(f),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered CollectiveFault with {other:?}"
            ))),
        }
    }

    fn transport_fault(&mut self, r: u32) -> Result<TransportFault, SimError> {
        match self.rpc(r, &Request::TransportFaultDraw)? {
            Resp::Transport(f) => Ok(f),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered TransportFaultDraw with {other:?}"
            ))),
        }
    }

    fn connect_delay(&mut self, r: u32) -> Result<u64, SimError> {
        match self.rpc(r, &Request::ConnectDelay)? {
            Resp::U64(total) => Ok(total),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered ConnectDelay with {other:?}"
            ))),
        }
    }

    fn ckpt_write_fails(&mut self, r: u32) -> Result<bool, SimError> {
        match self.rpc(r, &Request::CkptWriteFails)? {
            Resp::Bool(fails) => Ok(fails),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered CkptWriteFails with {other:?}"
            ))),
        }
    }

    fn capture_rank(&mut self, r: u32) -> Result<RankSnapshot, SimError> {
        match self.rpc(r, &Request::Capture)? {
            Resp::Snapshot(snap) => Ok(snap),
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered Capture with {other:?}"
            ))),
        }
    }

    fn restore_rank(
        &mut self,
        r: u32,
        last_cycles: u64,
        has_gpu: bool,
        n_arrays: usize,
        sections: &[Section],
    ) -> Result<(), CkptError> {
        let req = Request::Restore {
            last_cycles,
            has_gpu,
            n_arrays: n_arrays as u64,
            sections: sections.to_vec(),
        };
        match self.rpc(r, &req) {
            Ok(Resp::Ok) => Ok(()),
            Ok(Resp::CkptErr(e)) => Err(e),
            Ok(other) => Err(CkptError::Corrupt {
                offset: 0,
                message: format!("dist: rank {r} answered Restore with {other:?}"),
            }),
            // A dead worker degrades the chain link like a corrupt one:
            // the restart loop falls back to a deeper ancestor (or a
            // cold start) after prepare_resume has respawned the rank.
            Err(e) => Err(CkptError::Corrupt {
                offset: 0,
                message: format!("dist: restoring rank {r}: {e}"),
            }),
        }
    }

    fn reseed(&mut self, r: u32, attempt: u64) -> Result<(), SimError> {
        self.expect_ok(r, &Request::Reseed { attempt })
    }

    fn stats(&mut self, r: u32) -> Result<ResilienceStats, SimError> {
        match self.rpc(r, &Request::Stats)? {
            Resp::Stats(mut s) => {
                if r == 0 {
                    // The coordinator's fan-out counter rides on rank
                    // 0's reply, drained so the restart loop's
                    // per-attempt reads never double-count it.
                    s.overlapped_rounds += self.overlapped_rounds;
                    self.overlapped_rounds = 0;
                }
                Ok(s)
            }
            Resp::Err(e) => Err(e),
            other => Err(world_err(format!(
                "dist: rank {r} answered Stats with {other:?}"
            ))),
        }
    }

    fn finish(&mut self, ctls: &[RankCtl]) -> Result<Vec<RankOutcome>, SimError> {
        let reqs: Vec<(u32, Request)> = ctls
            .iter()
            .enumerate()
            .map(|(r, ctl)| {
                let req = Request::Finish {
                    done: ctl.done.flatten(),
                    vclock: ctl.vclock,
                    compute_cycles: ctl.compute_cycles,
                    comm_cycles: ctl.comm_cycles,
                };
                (r as u32, req)
            })
            .collect();
        let mut out = Vec::with_capacity(ctls.len());
        for ((r, resp), ctl) in self.rpc_fanout(&reqs)?.into_iter().zip(ctls) {
            match resp {
                Resp::Outcome {
                    output,
                    gpu_time,
                    machine,
                } => {
                    let machine = ckpt::read_machine(&mut Reader::new(&machine))
                        .map_err(|e| world_err(format!("dist: rank {r} final machine: {e}")))?;
                    out.push(RankOutcome {
                        result: ctl.done.flatten(),
                        vclock: ctl.vclock,
                        compute_cycles: ctl.compute_cycles,
                        comm_cycles: ctl.comm_cycles,
                        output,
                        gpu_time,
                        machine,
                    });
                }
                Resp::Err(e) => return Err(e),
                other => {
                    return Err(world_err(format!(
                        "dist: rank {r} answered Finish with {other:?}"
                    )))
                }
            }
        }
        Ok(out)
    }
}

impl Drop for RemotePool<'_, '_> {
    fn drop(&mut self) {
        for worker in self.workers.iter_mut().filter_map(Option::take) {
            worker.dispose();
        }
    }
}
