//! `wj-jitd` — the multi-tenant JIT service daemon, and its client CLI.
//!
//! ```text
//! wj-jitd serve [--port P] [--workers N] [--queue N] [--root DIR]
//!               [--quota TENANT=BYTES]... [--translate-fail RATE --seed S]
//!     Run the daemon until a client sends `shutdown`; prints the final
//!     counters and exits 0.
//!
//! wj-jitd jit --port P [--tenant T] --file F --class C --method M
//!             [--arg i32:V | f32:V]... [--deadline-ms D] [--hold-ms H]
//!     Compile F, instantiate C, jit+run M, print the typed reply.
//!
//! wj-jitd stats --port P        print the daemon's service counters
//! wj-jitd shutdown --port P     gracefully drain the daemon
//! ```

use jitd::client::Client;
use jitd::proto::{Arg, JitRequest, Reply, ServiceStats};
use jitd::{Daemon, DaemonConfig};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(|s| s.as_str()) {
        Some("serve") => serve(&args[1..]),
        Some("jit") => jit(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("shutdown") => shutdown(&args[1..]),
        _ => {
            eprintln!("usage: wj-jitd serve|jit|stats|shutdown [options]");
            2
        }
    };
    std::process::exit(code);
}

/// `--key value` lookup; exits with a message on a malformed pair.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .map(|i| args.get(i + 1).map(|s| s.as_str()).unwrap_or(""))
}

fn opt_parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    match opt(args, key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("wj-jitd: bad value for {key}: {v}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn serve(args: &[String]) -> i32 {
    let mut config = DaemonConfig {
        workers: opt_parse(args, "--workers", 4),
        queue_cap: opt_parse(args, "--queue", 8),
        ..DaemonConfig::default()
    };
    if let Some(root) = opt(args, "--root") {
        config.root = root.into();
    }
    for (i, a) in args.iter().enumerate() {
        if a == "--quota" {
            let spec = args.get(i + 1).map(|s| s.as_str()).unwrap_or("");
            let Some((tenant, bytes)) = spec.split_once('=') else {
                eprintln!("wj-jitd: --quota wants TENANT=BYTES, got `{spec}`");
                return 2;
            };
            let Ok(bytes) = bytes.parse::<u64>() else {
                eprintln!("wj-jitd: --quota bytes must be an integer, got `{spec}`");
                return 2;
            };
            config.quotas.push((tenant.to_string(), bytes));
        }
    }
    let rate: f64 = opt_parse(args, "--translate-fail", 0.0);
    if rate > 0.0 {
        let mut fault = wootinj::FaultConfig::seeded(opt_parse(args, "--seed", 42));
        fault.translate_fail = rate;
        config.fault = Some(fault);
    }
    let port: u16 = opt_parse(args, "--port", 0);

    let daemon = match Daemon::bind(config, port) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("wj-jitd: bind failed: {e}");
            return 1;
        }
    };
    println!("wj-jitd listening on 127.0.0.1:{}", daemon.port());
    print_stats("wj-jitd drained", &daemon.serve());
    0
}

/// The service counters on one line after `label`, the resilience
/// counters on the next, then one line per optimizer pass.
fn print_stats(label: &str, s: &ServiceStats) {
    println!(
        "{label}: admitted {} · completed {} · translations {} · warm {} · followed {} · \
         sheds {} (queue-full {}, draining {}, over-quota {}, deadline {}) · errors {} · \
         disconnects {} · bad frames {}",
        s.admitted,
        s.completed,
        s.translations,
        s.warm_hits,
        s.follower_serves,
        s.sheds(),
        s.shed_queue_full,
        s.shed_draining,
        s.shed_over_quota,
        s.shed_deadline,
        s.request_errors,
        s.disconnects,
        s.bad_frames,
    );
    println!("resilience: {}", s.resilience);
    for p in &s.passes {
        println!(
            "pass {:<24} {:>8}us  instrs {} -> {}",
            p.pass, p.wall_us, p.instrs_before, p.instrs_after
        );
    }
}

fn connect(args: &[String]) -> Result<Client, i32> {
    let port: u16 = opt_parse(args, "--port", 0);
    if port == 0 {
        eprintln!("wj-jitd: --port is required");
        return Err(2);
    }
    let tenant = opt(args, "--tenant").unwrap_or("default");
    Client::connect_with_timeout(port, tenant, Duration::from_secs(30)).map_err(|e| {
        eprintln!("wj-jitd: connect failed: {e}");
        1
    })
}

fn jit(args: &[String]) -> i32 {
    let (Some(file), Some(class), Some(method)) = (
        opt(args, "--file"),
        opt(args, "--class"),
        opt(args, "--method"),
    ) else {
        eprintln!("wj-jitd jit: --file, --class, and --method are required");
        return 2;
    };
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wj-jitd: reading {file}: {e}");
            return 1;
        }
    };
    let mut jit_args = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--arg" {
            let spec = args.get(i + 1).map(|s| s.as_str()).unwrap_or("");
            let parsed = match spec.split_once(':') {
                Some(("i32", v)) => v.parse().map(Arg::I32).ok(),
                Some(("f32", v)) => v.parse().map(Arg::F32).ok(),
                _ => None,
            };
            let Some(parsed) = parsed else {
                eprintln!("wj-jitd: --arg wants i32:V or f32:V, got `{spec}`");
                return 2;
            };
            jit_args.push(parsed);
        }
    }
    let req = JitRequest {
        file: file.to_string(),
        source,
        class: class.to_string(),
        method: method.to_string(),
        args: jit_args,
        deadline_ms: opt_parse(args, "--deadline-ms", 0),
        hold_ms: opt_parse(args, "--hold-ms", 0),
    };
    let mut client = match connect(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.jit(req) {
        Ok(Reply::Done(o)) => {
            println!(
                "done: result {:?} ({}; compile {}us, run {}us)",
                o.result,
                if o.translated {
                    "translated"
                } else if o.followed {
                    "followed in-flight leader"
                } else {
                    "warm"
                },
                o.compile_us,
                o.run_us
            );
            0
        }
        Ok(Reply::Shed { reason, message }) => {
            println!("shed ({reason}): {message}");
            3
        }
        Ok(Reply::Err { message }) => {
            println!("error: {message}");
            1
        }
        Ok(other) => {
            eprintln!("wj-jitd: unexpected reply {other:?}");
            1
        }
        Err(e) => {
            eprintln!("wj-jitd: {e}");
            1
        }
    }
}

fn stats(args: &[String]) -> i32 {
    let mut client = match connect(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.stats() {
        Ok(s) => {
            print_stats("wj-jitd stats", &s);
            0
        }
        Err(e) => {
            eprintln!("wj-jitd: {e}");
            1
        }
    }
}

fn shutdown(args: &[String]) -> i32 {
    let mut client = match connect(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.shutdown() {
        Ok(()) => {
            println!("wj-jitd: drain acknowledged");
            0
        }
        Err(e) => {
            eprintln!("wj-jitd: {e}");
            1
        }
    }
}
