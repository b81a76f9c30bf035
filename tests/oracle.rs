//! A differential oracle against the `jvm`, first cut: seeded programs
//! from `support/oracle_gen.rs` (an interface with 2–4 implementations
//! composed up to three deep, `static final`s, int and float arithmetic
//! over a small literal pool, `if`/`else` on `&&` and `||`, loops that
//! write `int[]` and `float[]` arguments). Each runs on the `jvm`, then
//! translated in Virtual, Devirt and Full mode at `none`, `standard` and
//! `aggressive`, and with the WootinJ preset; the result and both array
//! arguments must equal the `jvm`'s bit for bit. A divergence prints the
//! program's seed, configuration and source.

use exec::{ArrStore, Image, Machine, Thread, Val, Yield};
use jvm::{ArrayData, Value};
use nir::OptConfig;
use translator::{bind_entry_args, translate, Mode, TransConfig};
use wootinj::{build_table, JitOptions, WootinJ};

#[path = "support/oracle_gen.rs"]
mod oracle_gen;

use oracle_gen::{program, Arg, Obj};

/// How many programs one run checks, and the seed of the first.
const PROGRAMS: u64 = 200;
const SEED: u64 = 0x0AC1_E000;

fn java_bits(v: &Value) -> u64 {
    match v {
        Value::Int(x) => *x as u32 as u64,
        Value::Float(x) => x.to_bits() as u64,
        other => panic!("not an int or a float: {other:?}"),
    }
}

fn native_bits(v: &Val) -> u64 {
    match v {
        Val::I32(x) => *x as u32 as u64,
        Val::F32(x) => x.to_bits() as u64,
        other => panic!("not an int or a float: {other:?}"),
    }
}

/// Every configuration: each mode at each level, then the preset.
fn configs() -> Vec<(String, TransConfig)> {
    let mut out = Vec::new();
    for mode in [Mode::Virtual, Mode::Devirt, Mode::Full] {
        for (level, opt) in [
            ("none", OptConfig::none()),
            ("standard", OptConfig::standard()),
            ("aggressive", OptConfig::aggressive()),
        ] {
            let config = TransConfig {
                mode,
                opt,
                check_rules: true,
            };
            out.push((format!("{mode:?} {level}"), config));
        }
    }
    out.push(("wootinj".into(), JitOptions::wootinj().config));
    out
}

/// The object `o` describes, built in the `jvm` from the bottom up.
fn build(env: &mut WootinJ<'_>, o: &Obj) -> Value {
    let args: Vec<Value> = (o.args.iter())
        .map(|a| match a {
            Arg::Int(v) => Value::Int(*v),
            Arg::Float(v) => Value::Float(*v),
            Arg::Obj(o) => build(env, o),
        })
        .collect();
    env.new_instance(&o.class, &args)
        .unwrap_or_else(|e| panic!("new {}: {e}", o.class))
}

/// What a run shows: the result's bits and both arrays' bits.
type Observed = (u64, Vec<u32>, Vec<u32>);

/// The translated run under `config`, on fresh copies of the arrays, on
/// a budget: a generated program retires a few thousand instructions,
/// so one that has not returned after 2^22 does not end.
fn translated(
    env: &mut WootinJ<'_>,
    table: &jlang::table::ClassTable,
    recv: &Value,
    prog: &oracle_gen::Program,
    config: TransConfig,
) -> Result<Observed, String> {
    let args = [
        env.jvm.new_i32_array(&prog.ints),
        env.new_f32_array(&prog.floats),
    ];
    let t = translate(table, &env.jvm, recv, "run", &args, config).map_err(|e| e.to_string())?;
    let mut m = Machine::with_globals(&t.program);
    let vals =
        bind_entry_args(&env.jvm, recv, &args, &t.bindings, &mut m).map_err(|e| e.to_string())?;
    let arrays: Vec<u32> = (vals.iter())
        .filter_map(|v| match v {
            Val::Arr(h) => Some(*h),
            _ => None,
        })
        .collect();
    let [a, b] = arrays[..] else {
        return Err(format!("{} array parameters", arrays.len()));
    };
    let image = Image::build(&t.program).map_err(|e| e.message)?;
    let mut thread = Thread::new(&t.program, t.entry, &vals).map_err(|e| e.message)?;
    let result = match exec::run(&mut thread, &image, &mut m, 1 << 22).map_err(|e| e.message)? {
        Yield::Done(Some(v)) => native_bits(&v),
        other => return Err(format!("stopped: {other:?}")),
    };
    let (ArrStore::I32(a), ArrStore::F32(b)) = (m.mem.arr(a).unwrap(), m.mem.arr(b).unwrap())
    else {
        return Err("the arguments are not an int and a float array".into());
    };
    let a = a.iter().map(|&x| x as u32).collect();
    let b = b.iter().map(|x| x.to_bits()).collect();
    Ok((result, a, b))
}

#[test]
fn generated_programs_match_the_jvm_in_every_configuration() {
    let configs = configs();
    let mut divergences = Vec::new();
    for seed in SEED..SEED + PROGRAMS {
        let prog = program(seed);
        let table = build_table(&[("gen.jl", &prog.source)])
            .unwrap_or_else(|e| panic!("seed {seed:#x}: {e:?}\n{}", prog.source));
        let mut env = WootinJ::new(&table).unwrap();
        let recv = build(&mut env, &prog.receiver);
        let args = [
            env.jvm.new_i32_array(&prog.ints),
            env.new_f32_array(&prog.floats),
        ];
        let java = env
            .run_interpreted(&recv, "run", &args)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}\n{}", prog.source))
            .result;
        let arr = |v: &Value| match v {
            Value::Arr(r) => env.jvm.heap.arr(*r).clone(),
            other => panic!("not an array: {other:?}"),
        };
        let (ArrayData::I32(a), ArrayData::F32(b)) = (arr(&args[0]), arr(&args[1])) else {
            panic!("seed {seed:#x}: the arguments are not an int and a float array")
        };
        let want: Observed = (
            java_bits(&java),
            a.iter().map(|&x| x as u32).collect(),
            b.iter().map(|x| x.to_bits()).collect(),
        );
        for (name, config) in &configs {
            let got = translated(&mut env, &table, &recv, &prog, *config);
            if got.as_ref() != Ok(&want) {
                divergences.push(format!(
                    "seed {seed:#x}, {name}: translated {got:?}, jvm {want:?}\n{}",
                    prog.source
                ));
            }
        }
    }
    assert!(
        divergences.is_empty(),
        "{} divergences; the first:\n{}",
        divergences.len(),
        divergences[0]
    );
}
