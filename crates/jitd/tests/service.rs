//! Service-level robustness gates for the `jitd` daemon: single-flight
//! translation under concurrency, typed quota and overload shedding,
//! deadline expiry, chaos clients (truncated frames, mid-request
//! death), injected translate faults, and graceful drain. Every wire
//! wait in these tests is timeout-bounded — a daemon bug surfaces as a
//! typed failure or an assert, never as a hung test run.

use jitd::client::{jit_request, Client};
use jitd::proto::{Arg, Reply, Request, ServiceStats, ShedReason};
use jitd::{Daemon, DaemonConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const DOUBLER: &str = "@WootinJ final class Doubler {
    Doubler() { }
    int run(int x) { return x * 2; }
}";

const TRIPLER: &str = "@WootinJ final class Tripler {
    Tripler() { }
    int run(int x) { return x * 3; }
}";

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("wj-jitd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Boot a daemon on an ephemeral port; the returned handle resolves to
/// the final stats once the daemon drains.
fn boot(config: DaemonConfig) -> (u16, std::thread::JoinHandle<ServiceStats>) {
    let daemon = Daemon::bind(config, 0).expect("bind");
    let port = daemon.port();
    (port, std::thread::spawn(move || daemon.serve()))
}

fn drain(port: u16, handle: std::thread::JoinHandle<ServiceStats>) -> ServiceStats {
    Client::connect(port, "ops").unwrap().shutdown().unwrap();
    handle.join().expect("daemon panicked")
}

fn doubler_req(x: i32) -> jitd::proto::JitRequest {
    jit_request("doubler.jl", DOUBLER, "Doubler", "run", vec![Arg::I32(x)])
}

#[test]
fn concurrent_clients_for_one_cache_key_cause_exactly_one_translation() {
    let scratch = ScratchDir::new("singleflight");
    let (port, handle) = boot(DaemonConfig {
        workers: 8,
        queue_cap: 16,
        root: scratch.0.clone(),
        ..DaemonConfig::default()
    });

    // N concurrent clients, all asking for the same CacheKey. Whether a
    // given client leads, follows the in-flight leader, or warm-starts
    // from the artifact the leader sealed, the translator runs once.
    let n = 8;
    let clients: Vec<_> = (0..n)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(port, "acme").unwrap();
                c.jit(doubler_req(21 + i)).unwrap()
            })
        })
        .collect();
    let replies: Vec<Reply> = clients.into_iter().map(|h| h.join().unwrap()).collect();

    // The cache key is shaped by types, not values: all N requests share
    // one key, yet each client's run binds its *own* argument values.
    let mut translated = 0;
    for (i, r) in replies.iter().enumerate() {
        match r {
            Reply::Done(o) => {
                assert_eq!(
                    o.result,
                    Some(wootinj::Val::I32(2 * (21 + i as i32))),
                    "client {i} must run the shared artifact on its own args"
                );
                translated += u64::from(o.translated);
            }
            other => panic!("every concurrent client must complete, got {other:?}"),
        }
    }
    assert_eq!(
        translated, 1,
        "exactly one client is the translating leader"
    );

    let stats = drain(port, handle);
    assert_eq!(
        stats.translations, 1,
        "N concurrent same-key clients must cause exactly 1 translation, got {}",
        stats.translations
    );
    assert_eq!(stats.completed, n as u64);
    assert_eq!(stats.resilience.translate_failures, 0);
}

#[test]
fn over_quota_tenants_get_typed_rejections_but_warm_keys_still_serve() {
    let scratch = ScratchDir::new("quota");
    let (port, handle) = boot(DaemonConfig {
        root: scratch.0.clone(),
        quotas: vec![("cramped".into(), 1), ("locked".into(), 0)],
        ..DaemonConfig::default()
    });

    // A zero-quota tenant is refused before any translator work.
    let mut locked = Client::connect(port, "locked").unwrap();
    match locked.jit(doubler_req(1)).unwrap() {
        Reply::Shed { reason, .. } => assert_eq!(reason, ShedReason::OverQuota),
        other => panic!("zero-quota tenant must shed typed, got {other:?}"),
    }

    // A 1-byte tenant fits its first artifact (admission is checked
    // against *current* usage), then is at quota for anything new...
    let mut cramped = Client::connect(port, "cramped").unwrap();
    match cramped.jit(doubler_req(21)).unwrap() {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(42))),
        other => panic!("first artifact must serve, got {other:?}"),
    }
    let tripler = jit_request("tripler.jl", TRIPLER, "Tripler", "run", vec![Arg::I32(5)]);
    match cramped.jit(tripler).unwrap() {
        Reply::Shed { reason, message } => {
            assert_eq!(reason, ShedReason::OverQuota);
            assert!(
                message.contains("quota"),
                "message names the policy: {message}"
            );
        }
        other => panic!("over-quota translation must shed typed, got {other:?}"),
    }
    // ...while its warm key keeps serving without new bytes.
    match cramped.jit(doubler_req(50)).unwrap() {
        Reply::Done(o) => {
            assert_eq!(o.result, Some(wootinj::Val::I32(100)));
            assert!(!o.translated, "warm serve must not re-translate");
        }
        other => panic!("warm key must serve over-quota tenant, got {other:?}"),
    }

    let stats = drain(port, handle);
    assert_eq!(stats.shed_over_quota, 2);
    assert_eq!(stats.translations, 1);
    assert!(stats.warm_hits >= 1, "the repeat serve comes from disk");
}

#[test]
fn chaos_clients_never_hang_or_kill_the_daemon() {
    let scratch = ScratchDir::new("chaos");
    let (port, handle) = boot(DaemonConfig {
        root: scratch.0.clone(),
        ..DaemonConfig::default()
    });

    // A client that sends a valid request and dies without reading the
    // reply: the daemon does the work, finds nobody to deliver it to, and
    // counts it. The request holds its slot a while after the work, so
    // the close (made before `send_and_die` returns) comes first.
    let mut ghost_req = doubler_req(2);
    ghost_req.hold_ms = 300;
    Client::connect(port, "ghost")
        .unwrap()
        .send_and_die(&Request::Jit(ghost_req));

    // A client that truncates its frame mid-payload.
    Client::connect(port, "cutter")
        .unwrap()
        .send_truncated_frame(&Request::Jit(doubler_req(3)), 9);

    // A client that speaks no framing at all.
    Client::connect(port, "noise")
        .unwrap()
        .send_garbage(b"definitely not WFR1");

    // The daemon must still be fully alive for a well-behaved client —
    // poll stats until the chaos above has been absorbed and counted.
    let mut c = Client::connect(port, "acme").unwrap();
    match c.jit(doubler_req(21)).unwrap() {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(42))),
        other => panic!("daemon must survive chaos clients, got {other:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    let stats = loop {
        let s = c.stats().unwrap();
        if (s.disconnects >= 1 && s.bad_frames >= 2) || Instant::now() > deadline {
            break s;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        stats.disconnects >= 1,
        "the mid-request death must be observed and counted: {stats:?}"
    );
    assert!(
        stats.bad_frames >= 2,
        "the truncated frame and the garbage must be counted: {stats:?}"
    );

    drain(port, handle);
}

#[test]
fn overload_sheds_typed_queue_full_and_deadline() {
    let scratch = ScratchDir::new("overload");
    let (port, handle) = boot(DaemonConfig {
        workers: 1,
        queue_cap: 1,
        root: scratch.0.clone(),
        ..DaemonConfig::default()
    });

    // Warm the artifact first so the holder's slot time is dominated by
    // the deterministic hold, not by translation timing.
    let mut warmer = Client::connect(port, "acme").unwrap();
    warmer.jit(doubler_req(1)).unwrap();

    // Occupy the single worker slot for a while.
    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(port, "acme").unwrap();
        let mut req = doubler_req(2);
        req.hold_ms = 1_200;
        c.jit(req).unwrap()
    });
    std::thread::sleep(Duration::from_millis(300));

    // One request fits the queue but dies there on its own deadline...
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(port, "acme").unwrap();
        let mut req = doubler_req(3);
        req.deadline_ms = 150;
        c.jit(req).unwrap()
    });
    std::thread::sleep(Duration::from_millis(50));
    // ...and with the queue occupied, the next is refused immediately.
    let mut c = Client::connect(port, "acme").unwrap();
    let overflow = c.jit(doubler_req(4)).unwrap();
    match overflow {
        Reply::Shed { reason, .. } => assert_eq!(reason, ShedReason::QueueFull),
        other => panic!("queue overflow must shed typed, got {other:?}"),
    }
    match queued.join().unwrap() {
        Reply::Shed { reason, .. } => assert_eq!(reason, ShedReason::Deadline),
        other => panic!("queued request must shed on its deadline, got {other:?}"),
    }
    match holder.join().unwrap() {
        Reply::Done(_) => {}
        other => panic!("the slot holder itself must complete, got {other:?}"),
    }

    let stats = drain(port, handle);
    assert!(stats.shed_queue_full >= 1);
    assert!(stats.shed_deadline >= 1);
}

/// A 20 KB source of ten thousand nested blocks used to overflow the
/// connection thread's stack in the parser — an abort, which no handler
/// catches, so one request took the daemon down. It is a source error
/// like any other, and the daemon serves the next request.
#[test]
fn a_brace_bomb_is_a_typed_source_error_and_the_daemon_keeps_serving() {
    let scratch = ScratchDir::new("brace-bomb");
    let (port, handle) = boot(DaemonConfig {
        root: scratch.0.clone(),
        ..DaemonConfig::default()
    });

    let bomb = format!(
        "@WootinJ final class Bomb {{ Bomb() {{ }} int run(int x) {{ {}{} return x; }} }}",
        "{".repeat(10_000),
        "}".repeat(10_000)
    );
    let mut c = Client::connect(port, "acme").unwrap();
    match c
        .jit(jit_request(
            "bomb.jl",
            &bomb,
            "Bomb",
            "run",
            vec![Arg::I32(1)],
        ))
        .unwrap()
    {
        Reply::Err { message } => assert!(
            message.contains("statement nesting deeper"),
            "the parser's diagnostic must reach the client: {message}"
        ),
        other => panic!("a brace bomb must fail typed, got {other:?}"),
    }
    match c.jit(doubler_req(21)).unwrap() {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(42))),
        other => panic!("the daemon must still serve, got {other:?}"),
    }

    let stats = drain(port, handle);
    assert_eq!(stats.request_errors, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn injected_translate_faults_are_typed_counted_and_seeded() {
    let scratch = ScratchDir::new("xlate-fault");
    let mut fault = wootinj::FaultConfig::seeded(7);
    fault.translate_fail = 1.0;
    let (port, handle) = boot(DaemonConfig {
        root: scratch.0.clone(),
        fault: Some(fault),
        ..DaemonConfig::default()
    });

    let mut c = Client::connect(port, "acme").unwrap();
    for _ in 0..3 {
        match c.jit(doubler_req(21)).unwrap() {
            Reply::Err { message } => {
                assert!(
                    message.contains("injected translate failure"),
                    "the injected fault must be typed: {message}"
                )
            }
            other => panic!("rate-1.0 translate faults must fail typed, got {other:?}"),
        }
    }

    let stats = drain(port, handle);
    assert_eq!(stats.request_errors, 3);
    assert_eq!(stats.resilience.translate_failures, 3);
    assert_eq!(stats.translations, 0, "a failed draw must never translate");
}

#[test]
fn shutdown_drains_in_flight_work_then_sheds_new_requests() {
    let scratch = ScratchDir::new("drain");
    let (port, handle) = boot(DaemonConfig {
        workers: 2,
        root: scratch.0.clone(),
        ..DaemonConfig::default()
    });

    let mut warmer = Client::connect(port, "acme").unwrap();
    warmer.jit(doubler_req(1)).unwrap();

    // Put a request in flight (held slot), then ask for the drain.
    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(port, "acme").unwrap();
        let mut req = doubler_req(21);
        req.hold_ms = 600;
        c.jit(req).unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));

    let mut late = Client::connect(port, "acme").unwrap();
    Client::connect(port, "ops").unwrap().shutdown().unwrap();

    // New work on an existing connection sheds typed while draining.
    match late.jit(doubler_req(9)).unwrap() {
        Reply::Shed { reason, .. } => assert_eq!(reason, ShedReason::Draining),
        other => panic!("post-shutdown work must shed as draining, got {other:?}"),
    }

    // The in-flight request still completes — drain flushes, not kills.
    match inflight.join().unwrap() {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(42))),
        other => panic!("in-flight work must flush through the drain, got {other:?}"),
    }

    let stats = handle.join().expect("daemon panicked");
    assert!(stats.shed_draining >= 1);
    assert_eq!(
        stats.admitted,
        stats.completed + stats.request_errors,
        "every admitted request must terminate: {stats:?}"
    );
}
