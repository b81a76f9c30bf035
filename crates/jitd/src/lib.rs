//! # jitd — a multi-tenant JIT service daemon
//!
//! A long-running daemon that accepts jit/invoke requests from many
//! concurrent clients over loopback TCP, speaking the same `WFR1`
//! typed/length-prefixed/checksummed framing as the `dist` backend
//! ([`mpi_sim::transport`]). The robustness contract, under any seeded
//! overload + fault storm:
//!
//! - **Never silent, never unbounded.** Admission is a bounded
//!   worker-pool + queue; anything beyond the bound is rejected with a
//!   typed [`proto::Reply::Shed`] naming the policy
//!   ([`proto::ShedReason`]). Memory use is bounded by construction.
//! - **Deadlines propagate.** Each request carries a wall-clock budget
//!   checked at admission, after queue wait, before translation, while
//!   waiting on a concurrent leader, and before the run; the run itself
//!   is bounded by the deterministic scheduler-round timeout
//!   ([`wootinj::JitCode::set_timeout`]).
//! - **Single-flight translation.** N concurrent clients requesting the
//!   same [`translator::CacheKey`] cause exactly one translation: the
//!   leader translates and publishes the sealed artifact bytes; every
//!   follower decodes them ([`wootinj::WootinJ::code_from_artifact`]).
//! - **Per-tenant artifact quotas.** Each tenant's `DiskStore` lives
//!   under its own directory; a tenant at its byte quota keeps serving
//!   its warm keys but new translations are shed typed (`OverQuota`).
//! - **Faults are counted, not fatal.** Client disconnects mid-request,
//!   truncated frames, and (seeded, injected) translate failures all
//!   land in counters ([`proto::ServiceStats`], extending
//!   [`exec::ResilienceStats`]) — the daemon never panics or hangs.
//! - **Graceful drain.** A `Shutdown` frame stops admission (new work
//!   sheds as `Draining`), in-flight requests flush, and
//!   [`Daemon::serve`] returns the final stats.

#![forbid(unsafe_code)]

pub mod client;
pub mod proto;

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use exec::{FaultConfig, FaultPlan};
use jvm::Value;
use mpi_sim::{read_frame, write_frame, TransportError};
use proto::{
    Arg, JitRequest, Outcome, PassTotals, Reply, Request, ServiceStats, ShedReason, SERVICE_PROTO,
};
use translator::Translated;
use wootinj::{JitCode, JitOptions, WootinJ, Workspace};

/// Admission, quota, deadline, and fault policy for one daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Concurrent in-service requests (worker slots).
    pub workers: usize,
    /// Requests allowed to wait for a slot; beyond this, `QueueFull`.
    pub queue_cap: usize,
    /// Root of the per-tenant artifact stores (`<root>/<tenant>/`).
    pub root: PathBuf,
    /// On-disk byte quota for tenants without an explicit entry.
    pub default_quota: u64,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(String, u64)>,
    /// Seeded service-loop fault injection (`translate_fail` draws one
    /// decision per would-be translation from this plan's stream).
    pub fault: Option<FaultConfig>,
    /// Deadline applied when a request asks for `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Socket read/write timeout — a dead or wedged client can stall a
    /// connection thread at most this long per frame.
    pub io_timeout: Duration,
    /// Deterministic scheduler-round bound for each run.
    pub timeout_rounds: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 4,
            queue_cap: 8,
            root: std::env::temp_dir().join("wj-jitd"),
            default_quota: u64::MAX,
            quotas: Vec::new(),
            fault: None,
            default_deadline: Duration::from_secs(10),
            io_timeout: Duration::from_secs(10),
            timeout_rounds: 400_000,
        }
    }
}

impl DaemonConfig {
    pub fn quota_for(&self, tenant: &str) -> u64 {
        self.quotas
            .iter()
            .find(|(t, _)| t == tenant)
            .map_or(self.default_quota, |(_, q)| *q)
    }
}

// ---------------------------------------------------------------------
// admission gate
// ---------------------------------------------------------------------

struct GateState {
    active: usize,
    queued: usize,
    draining: bool,
}

/// Bounded worker pool + bounded wait queue, deadline-aware. Every exit
/// path from [`Gate::admit`] is typed; a permit holder MUST call
/// [`Gate::release`] exactly once (the connection code pairs them in
/// one function, no early returns between).
struct Gate {
    workers: usize,
    queue_cap: usize,
    m: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    fn new(workers: usize, queue_cap: usize) -> Self {
        Gate {
            workers: workers.max(1),
            queue_cap,
            m: Mutex::new(GateState {
                active: 0,
                queued: 0,
                draining: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn admit(&self, deadline: Instant) -> Result<(), ShedReason> {
        let mut st = self.m.lock().unwrap();
        if st.draining {
            return Err(ShedReason::Draining);
        }
        if st.active < self.workers {
            st.active += 1;
            return Ok(());
        }
        if st.queued >= self.queue_cap {
            return Err(ShedReason::QueueFull);
        }
        st.queued += 1;
        loop {
            let now = Instant::now();
            if now >= deadline {
                st.queued -= 1;
                return Err(ShedReason::Deadline);
            }
            let (g, _t) = self.cv.wait_timeout(st, deadline - now).unwrap();
            st = g;
            if st.draining {
                st.queued -= 1;
                self.cv.notify_all();
                return Err(ShedReason::Draining);
            }
            if st.active < self.workers {
                st.queued -= 1;
                st.active += 1;
                return Ok(());
            }
        }
    }

    fn release(&self) {
        let mut st = self.m.lock().unwrap();
        st.active = st.active.saturating_sub(1);
        self.cv.notify_all();
    }

    fn drain(&self) {
        self.m.lock().unwrap().draining = true;
        self.cv.notify_all();
    }

    fn snapshot(&self) -> (usize, usize, bool) {
        let st = self.m.lock().unwrap();
        (st.active, st.queued, st.draining)
    }
}

// ---------------------------------------------------------------------
// single-flight translation
// ---------------------------------------------------------------------

enum FlightState {
    Running,
    /// The leader's sealed artifact bytes ([`Translated::encode`]).
    Done(Arc<Vec<u8>>),
    /// The leader's typed failure, replayed to every follower.
    Failed(String),
}

struct Flight {
    m: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            m: Mutex::new(FlightState::Running),
            cv: Condvar::new(),
        }
    }
}

// ---------------------------------------------------------------------
// daemon
// ---------------------------------------------------------------------

struct Shared {
    config: DaemonConfig,
    gate: Gate,
    /// In-progress translations, keyed by cache-key fingerprint. An
    /// entry exists only while its leader is translating; completed
    /// flights are removed (later requests warm-start from disk).
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    stats: Mutex<ServiceStats>,
    fault: Option<Mutex<FaultPlan>>,
}

impl Shared {
    fn stats_snapshot(&self) -> ServiceStats {
        let mut s = self.stats.lock().unwrap().clone();
        if let Some(plan) = &self.fault {
            s.resilience.merge(&plan.lock().unwrap().stats);
        }
        s
    }
}

/// A bound-but-not-yet-serving daemon; [`Self::serve`] runs the accept
/// loop until a `Shutdown` drain completes and returns the final stats.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Daemon {
    /// Bind the service socket on loopback (`port` 0 picks an ephemeral
    /// port — read it back with [`Self::port`]).
    pub fn bind(config: DaemonConfig, port: u16) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let fault = config.fault.map(|f| Mutex::new(FaultPlan::new(f)));
        let shared = Arc::new(Shared {
            gate: Gate::new(config.workers, config.queue_cap),
            flights: Mutex::new(HashMap::new()),
            stats: Mutex::new(ServiceStats::default()),
            fault,
            config,
        });
        Ok(Daemon { listener, shared })
    }

    pub fn port(&self) -> u16 {
        self.listener.local_addr().map(|a| a.port()).unwrap_or(0)
    }

    /// Accept and serve connections (one thread each) until a client
    /// sends `Shutdown` and all in-flight work has flushed. Returns the
    /// final counters; the process-level binary exits 0 after this.
    pub fn serve(self) -> ServiceStats {
        // Nonblocking accept with a short poll so the drain flag stops
        // the loop promptly — the daemon's only busy-wait, at ~2ms.
        if self.listener.set_nonblocking(true).is_err() {
            return self.shared.stats_snapshot();
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    // Thread-per-connection: bounded by the OS, while
                    // *requests* are bounded by the admission gate (a
                    // connection beyond capacity gets typed sheds, and
                    // an idle one costs a parked thread, not a slot).
                    let _ = std::thread::Builder::new()
                        .name("wj-jitd-conn".into())
                        .spawn(move || serve_conn(&shared, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let (active, queued, draining) = self.shared.gate.snapshot();
                    if draining && active == 0 && queued == 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        self.shared.stats_snapshot()
    }
}

// ---------------------------------------------------------------------
// connection service
// ---------------------------------------------------------------------

fn shed_reply(reason: ShedReason, message: impl Into<String>) -> Reply {
    Reply::Shed {
        reason,
        message: message.into(),
    }
}

fn err_reply(message: impl std::fmt::Display) -> Reply {
    Reply::Err {
        message: message.to_string(),
    }
}

fn expired(deadline: Instant) -> bool {
    Instant::now() >= deadline
}

/// Keep tenant ids path-safe: anything outside `[A-Za-z0-9._-]` maps to
/// `_`, and a traversal-ish or empty id becomes a literal bucket.
fn tenant_dir(root: &Path, tenant: &str) -> PathBuf {
    let safe: String = tenant
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '.' | '_' | '-' => c,
            _ => '_',
        })
        .collect();
    let safe = safe.trim_matches('.').to_string();
    root.join(if safe.is_empty() {
        "_anon".into()
    } else {
        safe
    })
}

/// Bytes of sealed artifacts currently stored for a tenant.
fn artifact_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "wjar"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn serve_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));

    let hello = match read_frame(&mut stream).and_then(|b| proto::decode_hello(&b)) {
        Ok(h) => h,
        Err(_) => {
            shared.stats.lock().unwrap().bad_frames += 1;
            return;
        }
    };
    if hello.proto != SERVICE_PROTO {
        let refuse = err_reply(format!(
            "service proto skew: client {}, daemon {SERVICE_PROTO}",
            hello.proto
        ));
        let _ = write_frame(&mut stream, &proto::encode_reply(&refuse));
        return;
    }
    if write_frame(
        &mut stream,
        &proto::encode_reply(&Reply::HelloOk {
            proto: SERVICE_PROTO,
        }),
    )
    .is_err()
    {
        shared.stats.lock().unwrap().disconnects += 1;
        return;
    }

    loop {
        let buf = match read_frame(&mut stream) {
            Ok(b) => b,
            Err(TransportError::Disconnected) => return, // clean close
            Err(_) => {
                // Truncated/corrupt/timed-out framing: the stream can no
                // longer be trusted frame-aligned — count and drop it.
                shared.stats.lock().unwrap().bad_frames += 1;
                return;
            }
        };
        let req = match proto::decode_request(&buf) {
            Ok(q) => q,
            Err(e) => {
                // The frame layer was intact but the payload was not:
                // still replyable, so the client gets a typed error.
                shared.stats.lock().unwrap().bad_frames += 1;
                let _ = write_frame(&mut stream, &proto::encode_reply(&err_reply(e)));
                return;
            }
        };
        let reply = match req {
            Request::Stats => Reply::Stats(Box::new(shared.stats_snapshot())),
            Request::Shutdown => {
                shared.gate.drain();
                let _ = write_frame(&mut stream, &proto::encode_reply(&Reply::Bye));
                return;
            }
            Request::Jit(j) => serve_jit(shared, &hello.tenant, j),
        };
        // Client died between request and reply: the work is done and
        // accounted; only the delivery fails. Asked before writing,
        // because a first write to a peer that has closed succeeds — the
        // error would surface on some later write, if there were one.
        if peer_closed(&stream) || write_frame(&mut stream, &proto::encode_reply(&reply)).is_err() {
            shared.stats.lock().unwrap().disconnects += 1;
            return;
        }
    }
}

/// Has the client closed its end? The protocol is strictly request →
/// reply, so while a reply is owed nothing more can arrive from a live
/// client: a non-blocking peek finds no data (`WouldBlock`), and
/// end-of-stream or a reset there means the client is gone.
fn peer_closed(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let closed = match stream.peek(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
        ),
    };
    // Left non-blocking, the reply write and every later read would fail
    // where they should wait: a stream that cannot be put back is unusable.
    closed || stream.set_nonblocking(false).is_err()
}

/// One admitted-or-shed request, start to finish. Every path produces
/// exactly one reply and bumps exactly one terminal counter.
fn serve_jit(shared: &Arc<Shared>, tenant: &str, j: JitRequest) -> Reply {
    let budget = if j.deadline_ms == 0 {
        shared.config.default_deadline
    } else {
        Duration::from_millis(j.deadline_ms)
    };
    let deadline = Instant::now() + budget;

    if let Err(reason) = shared.gate.admit(deadline) {
        let mut s = shared.stats.lock().unwrap();
        match reason {
            ShedReason::QueueFull => s.shed_queue_full += 1,
            ShedReason::Draining => s.shed_draining += 1,
            ShedReason::Deadline => s.shed_deadline += 1,
            ShedReason::OverQuota => s.shed_over_quota += 1,
        }
        return shed_reply(reason, format!("admission refused: {reason}"));
    }
    shared.stats.lock().unwrap().admitted += 1;

    let outcome = run_admitted(shared, tenant, &j, deadline);

    // Chaos knob: keep occupying the slot (bounded) before release, so
    // tests and the bench storm can deterministically exhaust capacity.
    if j.hold_ms > 0 {
        std::thread::sleep(Duration::from_millis(j.hold_ms.min(10_000)));
    }
    shared.gate.release();

    let mut s = shared.stats.lock().unwrap();
    match outcome {
        Ok(o) => {
            s.completed += 1;
            Reply::Done(o)
        }
        Err(reply) => {
            match &reply {
                Reply::Shed { reason, .. } => match reason {
                    ShedReason::QueueFull => s.shed_queue_full += 1,
                    ShedReason::Draining => s.shed_draining += 1,
                    ShedReason::Deadline => s.shed_deadline += 1,
                    ShedReason::OverQuota => s.shed_over_quota += 1,
                },
                _ => s.request_errors += 1,
            }
            reply
        }
    }
}

/// The slot-holding body: compile, key, single-flight translate (or
/// follow), run. Returns the outcome or the typed reply to send instead.
fn run_admitted(
    shared: &Arc<Shared>,
    tenant: &str,
    j: &JitRequest,
    deadline: Instant,
) -> Result<Outcome, Reply> {
    let t0 = Instant::now();
    if expired(deadline) {
        return Err(shed_reply(
            ShedReason::Deadline,
            "deadline expired in the admission queue",
        ));
    }

    // Per-request compile + env. The facade is deliberately not shared
    // across threads (it is !Send by design); what *is* shared is the
    // expensive part — the sealed translation artifact. Compiling
    // through a `Workspace` (not a bare table) matters for correctness:
    // its cache keys carry the source fingerprint, so two different
    // programs whose classes happen to share ids can never collide on
    // one artifact — and formatting-only differences still dedup.
    let mut ws = Workspace::new();
    ws.set_source(&j.file, &j.source)
        .map_err(|e| err_reply(format!("compile failed: {e:?}")))?;
    let mut env = ws.env().map_err(err_reply)?;
    let recv = env
        .new_instance(&j.class, &[])
        .map_err(|e| err_reply(format!("instantiating {}: {e}", j.class)))?;
    let args: Vec<Value> = j
        .args
        .iter()
        .map(|a| match a {
            Arg::I32(v) => Value::Int(*v),
            Arg::F32(v) => Value::Float(*v),
            Arg::F32Arr(xs) => env.new_f32_array(xs),
        })
        .collect();

    let dir = tenant_dir(&shared.config.root, tenant);
    let options = JitOptions::wootinj().with_disk_cache(&dir);
    let key = env
        .cache_key(&recv, &j.method, &args, options.config, 0)
        .map_err(err_reply)?;
    let fingerprint = key.fingerprint();

    // Single-flight: first thread in becomes the leader; concurrent
    // requests for the same fingerprint wait for its sealed artifact.
    let (leader, flight) = {
        let mut flights = shared.flights.lock().unwrap();
        match flights.get(&fingerprint) {
            Some(f) => (false, Arc::clone(f)),
            None => {
                let f = Arc::new(Flight::new());
                flights.insert(fingerprint.clone(), Arc::clone(&f));
                (true, f)
            }
        }
    };

    let (mut code, translated, followed) = if leader {
        let led = lead_translate(
            shared, &env, &recv, j, &args, options, tenant, &dir, deadline,
        );
        // Publish before unkeying, so followers of *this* flight get
        // the verdict while later requests start fresh (warm from disk).
        {
            let mut st = flight.m.lock().unwrap();
            *st = match &led {
                Ok(code) => FlightState::Done(Arc::new(code.translated.encode())),
                Err(reply) => FlightState::Failed(match reply {
                    Reply::Shed { reason, message } => format!("leader shed ({reason}): {message}"),
                    Reply::Err { message } => message.clone(),
                    _ => "leader failed".to_string(),
                }),
            };
            flight.cv.notify_all();
        }
        shared.flights.lock().unwrap().remove(&fingerprint);
        let code = led?;
        let translated = env.cache_stats().translations > 0;
        (code, translated, false)
    } else {
        let bytes = follow(&flight, deadline)?;
        let t = Translated::decode(&bytes)
            .map_err(|e| err_reply(format!("decoding shared artifact: {e}")))?;
        shared.stats.lock().unwrap().follower_serves += 1;
        (
            env.code_from_artifact(Arc::new(t), &recv, &args),
            false,
            true,
        )
    };

    let compile_us = t0.elapsed().as_micros() as u64;
    if expired(deadline) {
        return Err(shed_reply(
            ShedReason::Deadline,
            "deadline expired before the run",
        ));
    }
    code.set_timeout(shared.config.timeout_rounds);
    let t_run = Instant::now();
    let report = code
        .invoke(&env)
        .map_err(|e| err_reply(format!("run failed: {e}")))?;
    Ok(Outcome {
        result: report.result,
        translated,
        followed,
        compile_us,
        run_us: t_run.elapsed().as_micros() as u64,
    })
}

/// The leader half of a flight: quota gate, injected-fault draw, then
/// the real `jit` (which itself warm-starts from the tenant store).
#[allow(clippy::too_many_arguments)]
fn lead_translate(
    shared: &Arc<Shared>,
    env: &WootinJ<'_>,
    recv: &Value,
    j: &JitRequest,
    args: &[Value],
    options: JitOptions,
    tenant: &str,
    dir: &Path,
    deadline: Instant,
) -> Result<JitCode, Reply> {
    let key = env
        .cache_key(recv, &j.method, args, options.config, 0)
        .map_err(err_reply)?;
    let artifact = dir.join(format!("{}.wjar", key.fingerprint()));

    // Quota: a warm key (artifact already on disk) always serves; new
    // bytes for a tenant at its quota are refused typed.
    let quota = shared.config.quota_for(tenant);
    if !artifact.is_file() && artifact_bytes(dir) >= quota {
        return Err(shed_reply(
            ShedReason::OverQuota,
            format!("tenant store at quota ({quota} bytes); warm keys still serve"),
        ));
    }

    // Seeded service-loop fault: one stream draw per would-be
    // translation, counted in `ResilienceStats::translate_failures`.
    if !artifact.is_file() {
        if let Some(plan) = &shared.fault {
            if plan.lock().unwrap().translate_fails() {
                return Err(err_reply("injected translate failure"));
            }
        }
    }

    if expired(deadline) {
        return Err(shed_reply(
            ShedReason::Deadline,
            "deadline expired before translation",
        ));
    }

    let code = env
        .jit(recv, &j.method, args, options)
        .map_err(|e| err_reply(format!("translate failed: {e}")))?;

    let cs = env.cache_stats();
    let mut s = shared.stats.lock().unwrap();
    if cs.translations > 0 {
        s.translations += cs.translations;
        for p in &code.stats().passes {
            let idx = match s.passes.iter().position(|t| t.pass == p.pass) {
                Some(i) => i,
                None => {
                    s.passes.push(PassTotals {
                        pass: p.pass.to_string(),
                        ..PassTotals::default()
                    });
                    s.passes.len() - 1
                }
            };
            let entry = &mut s.passes[idx];
            entry.wall_us += p.wall.as_micros() as u64;
            entry.instrs_before += p.instrs_before;
            entry.instrs_after += p.instrs_after;
        }
    }
    if cs.disk_hits > 0 {
        s.warm_hits += 1;
    }
    Ok(code)
}

/// The follower half: deadline-bounded wait for the leader's verdict.
fn follow(flight: &Flight, deadline: Instant) -> Result<Arc<Vec<u8>>, Reply> {
    let mut st = flight.m.lock().unwrap();
    loop {
        match &*st {
            FlightState::Done(bytes) => return Ok(Arc::clone(bytes)),
            FlightState::Failed(message) => {
                return Err(Reply::Err {
                    message: message.clone(),
                })
            }
            FlightState::Running => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(shed_reply(
                        ShedReason::Deadline,
                        "deadline expired waiting for the in-flight translation",
                    ));
                }
                let (g, _t) = flight.cv.wait_timeout(st, deadline - now).unwrap();
                st = g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_within_capacity_and_sheds_typed_beyond_it() {
        let gate = Gate::new(2, 1);
        let deadline = Instant::now() + Duration::from_millis(50);
        assert!(gate.admit(deadline).is_ok());
        assert!(gate.admit(deadline).is_ok());
        // Third waits in the queue until the deadline expires.
        assert_eq!(gate.admit(deadline), Err(ShedReason::Deadline));
        // Queue slot is free again; a second *concurrent* waiter beyond
        // queue_cap is refused immediately.
        let g2 = Arc::new(Gate::new(1, 0));
        let far = Instant::now() + Duration::from_secs(5);
        assert!(g2.admit(far).is_ok());
        assert_eq!(g2.admit(far), Err(ShedReason::QueueFull));
        g2.release();
        assert!(g2.admit(far).is_ok());
    }

    #[test]
    fn draining_gate_refuses_even_queued_waiters() {
        let gate = Arc::new(Gate::new(1, 4));
        let far = Instant::now() + Duration::from_secs(10);
        assert!(gate.admit(far).is_ok());
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.admit(far))
        };
        std::thread::sleep(Duration::from_millis(20));
        gate.drain();
        assert_eq!(waiter.join().unwrap(), Err(ShedReason::Draining));
        assert_eq!(gate.admit(far), Err(ShedReason::Draining));
    }

    #[test]
    fn tenant_dirs_are_path_safe() {
        let root = Path::new("/srv/jitd");
        assert_eq!(tenant_dir(root, "acme"), root.join("acme"));
        assert_eq!(tenant_dir(root, "../../etc"), root.join("_.._etc"));
        assert_eq!(tenant_dir(root, ""), root.join("_anon"));
        assert_eq!(tenant_dir(root, ".."), root.join("_anon"));
    }
}
