//! The emitted C, compiled: `nir::emit_c` renders what the paper hands to
//! icc (Listing 5), and here `cc` builds and runs it. Every program must
//! print what `exec` computes, bit for bit: its printed lines, then its
//! result (floats as bit patterns).
//!
//! * The gate: the host-only series of Figures 17 and 18 (*WootinJ*,
//!   *Template w/o virt.* and the hand-written *C*) at three optimizer
//!   levels, composed as `run_stencil`/`run_matmul` compose them.
//! * One targeted program per rule of the emitted prelude, which no
//!   figure reaches. These run on the `jvm` too, so the interpreter, the
//!   engine and the compiled C all agree.
//!
//! Each program is built twice: `-O2 -fwrapv` (Java's wrapping `+ - *`),
//! and `-O1` under UBSan without `-fwrapv`, which must report nothing.
//! The C has no bounds checks, as in the paper's C; `exec`'s never fire
//! on these programs. Without `cc` on `PATH` each test prints a note and
//! passes; `scripts/check.sh` refuses to start without one.

use std::path::PathBuf;
use std::process::Command;

use bench::cprogs::{C_DIFFUSION, C_MATMUL};
use bench::experiments::{matmul_app, stencil_runner, Kind, MatTarget};
use hpclib::StencilPlatform;
use jvm::Value;
use nir::OptConfig;
use wootinj::{JitCode, JitOptions, Val, WootinJ};

/// The two builds of every program.
const BUILDS: [(&str, &[&str]); 2] = [
    ("wrapv", &["-std=c11", "-O2", "-fwrapv"]),
    (
        "ubsan",
        &[
            "-std=c11",
            "-O1",
            "-fsanitize=undefined",
            "-fno-sanitize-recover=all",
        ],
    ),
];

/// What one compiled program did.
#[derive(Debug, PartialEq)]
struct Run {
    stdout: String,
    status: Option<i32>,
}

fn have_cc() -> bool {
    let found = Command::new("cc")
        .arg("--version")
        .output()
        .is_ok_and(|o| o.status.success());
    if !found {
        eprintln!("note: no `cc` on PATH, so the emitted C was not compiled");
    }
    found
}

/// Write `src` under the target directory, build it with `cc flags`, and
/// run it with `args`. Anything on the program's stderr (a UBSan report)
/// fails the test.
fn compile_and_run(name: &str, src: &str, (build, flags): (&str, &[&str]), args: &[String]) -> Run {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("emitted_c");
    std::fs::create_dir_all(&dir).unwrap();
    let c = dir.join(format!("{name}.c"));
    let bin = dir.join(format!("{name}-{build}"));
    std::fs::write(&c, src).unwrap();
    let cc = Command::new("cc")
        .args(flags)
        .arg(&c)
        .arg("-o")
        .arg(&bin)
        .arg("-lm")
        .output()
        .unwrap();
    assert!(
        cc.status.success(),
        "cc {flags:?} {}:\n{}",
        c.display(),
        String::from_utf8_lossy(&cc.stderr)
    );
    let run = Command::new(&bin).args(args).output().unwrap();
    assert!(
        run.stderr.is_empty(),
        "{name}-{build}:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    Run {
        stdout: String::from_utf8(run.stdout).unwrap(),
        status: run.status.code(),
    }
}

/// An entry argument as `main` parses it from `argv`.
fn argv_of(v: Val) -> String {
    match v {
        Val::Bool(b) => (b as i32).to_string(),
        _ => line_of(v),
    }
}

/// A value as the emitted C prints it: integers in decimal, bools as
/// words, floats as bit patterns.
fn line_of(v: Val) -> String {
    match v {
        Val::I32(x) => x.to_string(),
        Val::I64(x) => x.to_string(),
        Val::Bool(b) => b.to_string(),
        Val::F32(x) => format!("{:#010x}", x.to_bits()),
        Val::F64(x) => format!("{:#018x}", x.to_bits()),
        other => panic!("{other:?} has no printed form"),
    }
}

fn val_of(v: &Value) -> Val {
    match *v {
        Value::Int(x) => Val::I32(x),
        Value::Long(x) => Val::I64(x),
        Value::Float(x) => Val::F32(x),
        Value::Double(x) => Val::F64(x),
        Value::Bool(b) => Val::Bool(b),
        ref other => panic!("{other} is not a scalar"),
    }
}

/// Does the C's printed line `c` say what `exec` printed as `exec`?
/// `exec` prints floats in Rust's shortest round-trip form, so a float is
/// compared by its bits, except that the form carries no NaN's bits.
fn same_line(exec: &str, c: &str) -> bool {
    match c.strip_prefix("0x") {
        _ if exec == c => true,
        Some(hex) if hex.len() == 8 => match (u32::from_str_radix(hex, 16), exec.parse::<f32>()) {
            (Ok(bits), Ok(x)) => {
                bits == x.to_bits() || (x.is_nan() && f32::from_bits(bits).is_nan())
            }
            _ => false,
        },
        Some(hex) if hex.len() == 16 => match (u64::from_str_radix(hex, 16), exec.parse::<f64>()) {
            (Ok(bits), Ok(x)) => {
                bits == x.to_bits() || (x.is_nan() && f64::from_bits(bits).is_nan())
            }
            _ => false,
        },
        _ => false,
    }
}

fn assert_prints(name: &str, printed: &[String], result: Option<Val>, stdout: &str) {
    let mut want = printed.to_vec();
    want.extend(result.map(line_of));
    let got: Vec<&str> = stdout.lines().collect();
    assert_eq!(got.len(), want.len(), "{name}: exec {want:?}, C {got:?}");
    for (w, g) in want.iter().zip(&got) {
        assert!(same_line(w, g), "{name}: exec {want:?}, C {got:?}");
    }
}

/// The emitted C of `code`, built both ways and run with the arguments
/// `exec` is bound to. Both builds must behave the same; returns the run.
fn run_emitted(name: &str, code: &JitCode, env: &WootinJ<'_>, recv: &Value, args: &[Value]) -> Run {
    let t = &code.translated;
    let mut machine = exec::Machine::new();
    let bound = translator::bind_entry_args(&env.jvm, recv, args, &t.bindings, &mut machine)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let argv: Vec<String> = bound.into_iter().map(argv_of).collect();
    let src = t.c_source();
    let [first, second] = BUILDS.map(|build| compile_and_run(name, &src, build, &argv));
    assert_eq!(first, second, "{name}: the two builds disagree");
    first
}

/// Run `code` (jitted from `recv` and `args`) on `exec` and as compiled
/// C: the same lines and result bits, and a clean exit. Returns `exec`'s
/// result.
fn same_as_exec(
    name: &str,
    code: &JitCode,
    env: &WootinJ<'_>,
    recv: &Value,
    args: &[Value],
) -> Option<Val> {
    let report = code.invoke(env).unwrap();
    let run = run_emitted(name, code, env, recv, args);
    assert_eq!(run.status, Some(0), "{name}: {run:?}");
    assert_prints(name, &report.outputs[0], report.result, &run.stdout);
    report.result
}

fn levels() -> [(&'static str, OptConfig); 3] {
    [
        ("none", OptConfig::none()),
        ("standard", OptConfig::standard()),
        ("aggressive", OptConfig::aggressive()),
    ]
}

const SERIES: [(&str, Kind); 3] = [
    ("wootinj", Kind::WootinJ),
    ("tnv", Kind::TemplateNoVirt),
    ("c", Kind::C),
];

#[test]
fn figure17_and_18_series_print_exec_bits_when_compiled() {
    if !have_cc() {
        return;
    }
    let stencil = hpclib::stencil_table(&[("c_diffusion.jl", C_DIFFUSION)]).unwrap();
    let matmul = hpclib::matmul_table(&[("c_matmul.jl", C_MATMUL)]).unwrap();
    let reference = hpclib::reference_matmul(24);
    let mut diffusion = Vec::new();
    for (series, kind) in SERIES {
        for (level, opt) in levels() {
            let options = kind.jit_options().with_opt(opt);

            let mut env = WootinJ::new(&stencil).unwrap();
            let runner = stencil_runner(&mut env, kind, StencilPlatform::Cpu, true);
            let args = [16, 16, 12, 3].map(Value::Int);
            let code = env.jit(&runner, "invoke", &args, options.clone()).unwrap();
            let name = format!("fig17-{series}-{level}");
            diffusion.push(same_as_exec(&name, &code, &env, &runner, &args));

            let mut env = WootinJ::new(&matmul).unwrap();
            let app = matmul_app(&mut env, kind, MatTarget::Cpu);
            let args = [Value::Int(24)];
            let code = env.jit(&app, "start", &args, options).unwrap();
            let name = format!("fig18-{series}-{level}");
            let got = same_as_exec(&name, &code, &env, &app, &args);
            // A modular series and the hand-written one both compute the
            // reference checksum.
            assert_eq!(got, Some(Val::F32(reference)), "{name}");
        }
    }
    // Identical float operation order in every series and at every level.
    assert!(diffusion.windows(2).all(|w| w[0] == w[1]), "{diffusion:?}");
}

/// One program per prelude rule, jitted with the WootinJ preset (`Full`
/// mode). Arguments, not literals, carry the edge values, so that no
/// optimizer folds the operation away before the C sees it; `needle` is
/// what the source must contain for the rule to be reached.
struct Targeted {
    name: &'static str,
    source: &'static str,
    args: Vec<Value>,
    needle: &'static str,
}

fn targeted() -> Vec<Targeted> {
    vec![
        Targeted {
            name: "array-length",
            source: "@WootinJ final class P { P() { }
               int run(int n) {
                 float[] a = new float[n];
                 int[] b = new int[n + 3];
                 double[] c = new double[2 * n];
                 return a.length * 10000 + b.length * 100 + c.length;
               } }",
            args: vec![Value::Int(7)],
            needle: "wj_length(",
        },
        Targeted {
            name: "shift-counts",
            source: "@WootinJ final class P { P() { }
               int run(int x, int s, long y, int t) {
                 WJ.printInt(x << s);
                 WJ.printInt(x >> s);
                 WJ.printInt(x << (s - 1));
                 WJ.printLong(y << t);
                 WJ.printLong(y >> t);
                 WJ.printLong(y << (t - 1));
                 return x << -s;
               } }",
            args: vec![
                Value::Int(-5),
                Value::Int(33),
                Value::Long(-7),
                Value::Int(65),
            ],
            needle: "wj_shl_i64(",
        },
        Targeted {
            name: "min-over-minus-one",
            source: "@WootinJ final class P { P() { }
               int run(int x, int m, long y, long n) {
                 WJ.printInt(x / m);
                 WJ.printInt(x % m);
                 WJ.printLong(y / n);
                 WJ.printLong(y % n);
                 return Math.absi(x);
               } }",
            args: vec![
                Value::Int(i32::MIN),
                Value::Int(-1),
                Value::Long(i64::MIN),
                Value::Long(-1),
            ],
            needle: "wj_abs_i32(",
        },
        Targeted {
            name: "saturating-casts",
            source: "@WootinJ final class P { P() { }
               int run(float nan, float big) {
                 double d = big;
                 WJ.printInt((int) nan);
                 WJ.printInt((int) -big);
                 WJ.printLong((long) nan);
                 WJ.printLong((long) (d * d));
                 WJ.printLong((long) -big);
                 return (int) big;
               } }",
            args: vec![Value::Float(f32::NAN), Value::Float(1e20)],
            needle: "wj_d2i(",
        },
        Targeted {
            name: "java-min-max",
            source: "@WootinJ final class P { P() { }
               float run(float nz, float pz, float nan, float one) {
                 WJ.printFloat(Math.minf(nz, pz));
                 WJ.printFloat(Math.minf(pz, nz));
                 WJ.printFloat(Math.maxf(nz, pz));
                 WJ.printFloat(Math.maxf(pz, nz));
                 WJ.printFloat(Math.minf(one, nan));
                 return Math.maxf(nan, one);
               } }",
            args: vec![
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Float(f32::NAN),
                Value::Float(1.0),
            ],
            needle: "wj_min_f32(",
        },
        Targeted {
            name: "division-by-zero",
            source: "@WootinJ final class P { P() { }
               int run(int x, int y) { WJ.printInt(x); return x / y; } }",
            args: vec![Value::Int(7), Value::Int(0)],
            needle: "wj_div_i32(",
        },
        Targeted {
            name: "folded-constants",
            source: "@WootinJ final class P {
               static final float INF = 1.0f / 0.0f;
               static final long LMIN = -9223372036854775808L;
               static final int IMIN = -2147483648;
               P() { }
               float run() {
                 float z = 0.0f;
                 WJ.printFloat(INF);
                 WJ.printFloat(-INF);
                 WJ.printLong(LMIN);
                 WJ.printInt(IMIN);
                 WJ.printBool(IMIN < 0);
                 return z / z;
               } }",
            args: vec![],
            needle: "NAN;",
        },
    ]
}

#[test]
fn each_prelude_rule_agrees_on_the_jvm_exec_and_compiled_c() {
    if !have_cc() {
        return;
    }
    for t in targeted() {
        let name = t.name;
        let table = wootinj::build_table(&[("p.jl", t.source)]).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let recv = env.new_instance("P", &[]).unwrap();
        let java = env.run_interpreted(&recv, "run", &t.args);
        let code = env
            .jit(&recv, "run", &t.args, JitOptions::wootinj())
            .unwrap();
        assert!(
            code.c_source().contains(t.needle),
            "{name}: no {}",
            t.needle
        );
        let run = run_emitted(name, &code, &env, &recv, &t.args);
        match (java, code.invoke(&env)) {
            (Ok(java), Ok(report)) => {
                assert_eq!(run.status, Some(0), "{name}: {run:?}");
                let printed = &report.outputs[0];
                assert_eq!(&env.jvm.output, printed, "{name}: exec against the jvm");
                let want = Some(line_of(val_of(&java.result)));
                assert_eq!(
                    report.result.map(line_of),
                    want,
                    "{name}: exec against the jvm"
                );
                assert_prints(name, printed, report.result, &run.stdout);
            }
            // Integer division by zero: both fail, the C exits distinctly
            // after printing what the jvm printed.
            (Err(java), Err(exec)) => {
                for e in [java.to_string(), exec.to_string()] {
                    assert!(e.contains("division by zero"), "{name}: {e}");
                }
                assert_eq!(run.status, Some(nir::DIV_BY_ZERO_EXIT), "{name}: {run:?}");
                assert_prints(name, &env.jvm.output, None, &run.stdout);
            }
            (java, exec) => panic!("{name}: jvm ok {}, exec ok {}", java.is_ok(), exec.is_ok()),
        }
    }
}
