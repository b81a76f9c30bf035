//! The `jitd` daemon under a seeded client storm: single-flight,
//! overload, quotas, chaos clients and injected translate faults.

use jitd::client::jit_request;
use jitd::proto::{Arg, JitRequest};

use super::TempDir;
use crate::series::{Figure, Series};

/// `Svc(m).run(x)`. Each multiplier `m` is a distinct source, hence a
/// distinct cache key; every client of one program shares that key.
fn request(m: i32, x: i32) -> JitRequest {
    let source =
        format!("@WootinJ final class Svc {{ Svc() {{ }} int run(int x) {{ return x * {m}; }} }}");
    jit_request("svc.jl", &source, "Svc", "run", vec![Arg::I32(x)])
}

/// The `service` gate: every request ends in a reply or a typed shed
/// within its deadline, same-key clients share one translation, and
/// neither chaos clients nor injected translate faults hang or kill the
/// daemon.
pub(super) fn service(quick: bool) -> Figure {
    use jitd::client::Client;
    use jitd::proto::{Reply, Request, ServiceStats, ShedReason};
    use jitd::{Daemon, DaemonConfig};
    use std::time::{Duration, Instant};

    let mut fig = Figure::new(
        "service",
        "jitd daemon: seeded client storm under overload, chaos, quotas, and faults",
        "counter",
        "value",
    );
    fig.note(
        "gate: every request ends in a reply or a typed shed within its \
         deadline; same-key concurrent clients cause exactly one translation; \
         chaos clients (mid-request death, truncated frames, garbage) and \
         injected translate faults never hang or kill the daemon",
    );

    // programs × clients-per-program; capacity (workers + queue) must admit
    // a full same-key wave so the single-flight gate is not masked by sheds.
    let (programs, clients, workers, queue_cap) = if quick { (2, 4, 4, 8) } else { (4, 8, 8, 16) };
    fig.note(if quick {
        "quick mode: 2 programs x 4 clients, 4 workers, queue 8"
    } else {
        "full mode: 4 programs x 8 clients, 8 workers, queue 16"
    });

    let root = TempDir::new("wj-bench-service");
    let daemon = Daemon::bind(
        DaemonConfig {
            workers,
            queue_cap,
            root: root.path().to_path_buf(),
            quotas: vec![("capped".into(), 1)],
            ..DaemonConfig::default()
        },
        0,
    )
    .expect("service experiment: bind");
    let port = daemon.port();
    let handle = std::thread::spawn(move || daemon.serve());

    // Every reply must land well inside the default 10s request deadline.
    let reply_bound = Duration::from_secs(10);
    let mut max_latency = Duration::ZERO;
    let mut expected_requests = 0u64;

    // Wave 1 — single-flight: for each program, a concurrent same-key
    // burst. Every client completes on its own argument values.
    for p in 0..programs {
        let m = p + 2;
        let burst: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let x = 11 + 7 * p + 13 * c; // seeded per-client args
                    let mut cl = Client::connect(port, "acme").unwrap();
                    let t0 = Instant::now();
                    let reply = cl.jit(request(m, x)).unwrap();
                    (reply, t0.elapsed(), x)
                })
            })
            .collect();
        for h in burst {
            let (reply, took, x) = h.join().expect("storm client panicked");
            assert!(
                took < reply_bound,
                "reply exceeded deadline bound: {took:?}"
            );
            max_latency = max_latency.max(took);
            expected_requests += 1;
            match reply {
                Reply::Done(o) => assert_eq!(
                    o.result,
                    Some(wootinj::Val::I32(m * x)),
                    "program x{m} client must run the shared artifact on its own args"
                ),
                other => panic!("single-flight wave client got {other:?}"),
            }
        }
    }

    // Wave 2 — overload: saturate every worker slot with held requests,
    // then pile on. Everything still terminates typed within bound.
    let holders: Vec<_> = (0..workers)
        .map(|_| {
            std::thread::spawn(move || {
                let mut cl = Client::connect(port, "acme").unwrap();
                let mut req = request(2, 1);
                req.hold_ms = 1_000;
                cl.jit(req).unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(250));
    let squeezed: Vec<_> = (0..queue_cap + 4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut cl = Client::connect(port, "acme").unwrap();
                let mut req = request(2, 2 + i as i32);
                req.deadline_ms = 300;
                let t0 = Instant::now();
                (cl.jit(req).unwrap(), t0.elapsed())
            })
        })
        .collect();
    let mut shed_typed = 0u64;
    for h in squeezed {
        let (reply, took) = h.join().expect("squeezed client panicked");
        assert!(
            took < reply_bound,
            "overload reply exceeded bound: {took:?}"
        );
        max_latency = max_latency.max(took);
        expected_requests += 1;
        match reply {
            Reply::Done(_) => {}
            Reply::Shed { reason, .. } => {
                assert!(
                    matches!(reason, ShedReason::QueueFull | ShedReason::Deadline),
                    "overload shed must be queue-full or deadline, got {reason}"
                );
                shed_typed += 1;
            }
            other => panic!("overload wave client got {other:?}"),
        }
    }
    assert!(
        shed_typed >= 1,
        "the overload wave must shed at least one request typed"
    );
    for h in holders {
        expected_requests += 1;
        match h.join().expect("holder panicked") {
            Reply::Done(_) => {}
            other => panic!("slot holder must complete, got {other:?}"),
        }
    }

    // Wave 3 — quotas: a 1-byte tenant fits its first artifact, then any
    // *new* key is refused typed while the warm key keeps serving.
    let mut capped = Client::connect(port, "capped").unwrap();
    expected_requests += 3;
    match capped.jit(request(9, 3)).unwrap() {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(27))),
        other => panic!("capped tenant's first artifact must serve, got {other:?}"),
    }
    match capped.jit(request(10, 3)).unwrap() {
        Reply::Shed { reason, .. } => assert_eq!(reason, ShedReason::OverQuota),
        other => panic!("over-quota key must shed typed, got {other:?}"),
    }
    match capped.jit(request(9, 5)).unwrap() {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(45))),
        other => panic!("warm key must serve an over-quota tenant, got {other:?}"),
    }

    // Wave 4 — chaos: a mid-request death, a truncated frame, and raw
    // garbage; a healthy client must still be served afterwards.
    // The ghost's request holds its slot a while after the work, so its
    // close comes before the daemon looks for someone to reply to.
    let ghost_req = Request::Jit(JitRequest {
        hold_ms: 300,
        ..request(2, 4)
    });
    Client::connect(port, "ghost")
        .unwrap()
        .send_and_die(&ghost_req);
    expected_requests += 1; // the ghost's request is decoded and served
    Client::connect(port, "cutter")
        .unwrap()
        .send_truncated_frame(&ghost_req, 9);
    Client::connect(port, "noise")
        .unwrap()
        .send_garbage(b"not WFR1 at all");
    let mut healthy = Client::connect(port, "acme").unwrap();
    expected_requests += 1;
    match healthy.jit(request(2, 8)).unwrap() {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(16))),
        other => panic!("daemon must survive chaos clients, got {other:?}"),
    }
    let absorb = Instant::now() + Duration::from_secs(20);
    loop {
        let s = healthy.stats().unwrap();
        if (s.disconnects >= 1 && s.bad_frames >= 2) || Instant::now() > absorb {
            assert!(
                s.disconnects >= 1,
                "mid-request death must be counted: {s:?}"
            );
            assert!(s.bad_frames >= 2, "bad frames must be counted: {s:?}");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    Client::connect(port, "ops").unwrap().shutdown().unwrap();
    let stats: ServiceStats = handle.join().expect("daemon panicked under the storm");

    // Every decodable request ends in exactly one terminal counter.
    let terminal = stats.completed + stats.request_errors + stats.sheds();
    assert_eq!(
        terminal, expected_requests,
        "every request must end typed exactly once: {stats:?}"
    );
    // One translation per storm program, plus two cold tenant-scoped
    // artifacts (the capped tenant's x9 and the ghost tenant's x2 —
    // disk stores are per-tenant, so those keys start cold).
    assert_eq!(
        stats.translations,
        programs as u64 + 2,
        "single-flight must hold across the whole storm: {stats:?}"
    );
    assert_eq!(stats.request_errors, 0, "no untyped failures: {stats:?}");
    // Whether a same-key client follows the in-flight leader or
    // warm-starts from the sealed artifact is a thread race; the *sum*
    // is an invariant: every completed request that did not translate.
    assert_eq!(
        stats.warm_hits + stats.follower_serves,
        (programs * (clients - 1)) as u64 + workers as u64 + 2,
        "every non-leader completion is a warm hit or a follower serve: {stats:?}"
    );

    // Wave 5 — injected translate faults on a separate seeded daemon.
    let fault_root = TempDir::new("wj-bench-svcfault");
    let mut fault = wootinj::FaultConfig::seeded(0x5EED);
    fault.translate_fail = 1.0;
    let fd = Daemon::bind(
        DaemonConfig {
            root: fault_root.path().to_path_buf(),
            fault: Some(fault),
            ..DaemonConfig::default()
        },
        0,
    )
    .expect("service experiment: fault bind");
    let fport = fd.port();
    let fhandle = std::thread::spawn(move || fd.serve());
    let mut fc = Client::connect(fport, "acme").unwrap();
    for _ in 0..2 {
        match fc.jit(request(2, 1)).unwrap() {
            Reply::Err { message } => assert!(
                message.contains("injected translate failure"),
                "fault must surface typed: {message}"
            ),
            other => panic!("rate-1.0 translate fault must fail typed, got {other:?}"),
        }
    }
    Client::connect(fport, "ops").unwrap().shutdown().unwrap();
    let fstats = fhandle.join().expect("fault daemon panicked");
    assert_eq!(fstats.resilience.translate_failures, 2);
    assert_eq!(fstats.translations, 0, "a failed draw must never translate");

    let mut counters = Series::new("storm counters");
    for (i, (_, v)) in [
        ("admitted", stats.admitted),
        ("completed", stats.completed),
        ("translations", stats.translations),
        (
            "warm-or-follower-serves",
            stats.warm_hits + stats.follower_serves,
        ),
        ("shed-queue-full", stats.shed_queue_full),
        ("shed-deadline", stats.shed_deadline),
        ("shed-over-quota", stats.shed_over_quota),
        ("request-errors", stats.request_errors),
        ("bad-frames", stats.bad_frames),
        ("disconnects", stats.disconnects),
        (
            "injected-translate-failures",
            fstats.resilience.translate_failures,
        ),
    ]
    .iter()
    .enumerate()
    {
        counters.push(i as f64, *v as f64);
    }
    fig.note(
        "storm counters series order: admitted, completed, translations, \
         warm-or-follower-serves, shed-queue-full, shed-deadline, \
         shed-over-quota, request-errors, bad-frames, disconnects, \
         injected-translate-failures",
    );
    fig.series.push(counters);
    let mut s_lat = Series::new("max-reply-latency-ms");
    s_lat.push(0.0, max_latency.as_secs_f64() * 1e3);
    fig.series.push(s_lat);
    let mut s_gate = Series::new("reply-or-typed-shed");
    s_gate.push(0.0, 1.0);
    fig.series.push(s_gate);
    fig
}
