//! Java control flow against the `jvm`, in every mode: `break`,
//! `continue`, loops without a condition, nested loops, `&&` and `||`
//! whose right operand has an effect, unary operators, every numeric cast,
//! the array operations and constructor chains (`super(...)` arguments,
//! field initializers, overwritten and unassigned fields, a `new` in a
//! `super(...)` argument). Each program runs interpreted once and
//! translated in Virtual, Devirt and Full mode at `none` and `standard`;
//! the translated result and the contents of the array argument must
//! equal the interpreter's bit for bit.

use exec::{ArrStore, Image, Machine, Thread, Val, Yield};
use jvm::{ArrayData, Value};
use nir::OptConfig;
use translator::{bind_entry_args, translate, TransConfig};
use wootinj::{build_table, WootinJ};

#[path = "support/programs.rs"]
mod programs;

use programs::{source, INPUT, PROGRAMS};

fn java_bits(v: &Value) -> u64 {
    match v {
        Value::Int(x) => *x as u32 as u64,
        Value::Long(x) => *x as u64,
        Value::Float(x) => x.to_bits() as u64,
        Value::Double(x) => x.to_bits(),
        Value::Bool(x) => *x as u64,
        other => panic!("not a primitive: {other:?}"),
    }
}

fn native_bits(v: &Val) -> u64 {
    match v {
        Val::I32(x) => *x as u32 as u64,
        Val::I64(x) => *x as u64,
        Val::F32(x) => x.to_bits() as u64,
        Val::F64(x) => x.to_bits(),
        Val::Bool(x) => *x as u64,
        other => panic!("not a primitive: {other:?}"),
    }
}

/// Run `entry` on a budget: each program retires a few thousand
/// instructions, so one that has not returned after 2^20 has a loop that
/// does not end, and fails instead of hanging the suite.
fn run(p: &nir::Program, entry: nir::FuncId, args: &[Val], m: &mut Machine) -> Result<Val, String> {
    let image = Image::build(p).map_err(|e| e.message)?;
    let mut thread = Thread::new(p, entry, args).map_err(|e| e.message)?;
    match exec::run(&mut thread, &image, m, 1 << 20).map_err(|e| e.message)? {
        Yield::Done(Some(v)) => Ok(v),
        other => Err(format!("stopped: {other:?}")),
    }
}

#[test]
fn control_flow_matches_the_jvm_in_every_mode_and_opt_level() {
    for (name, classes, members) in PROGRAMS {
        let src = source(classes, members);
        let table = build_table(&[("p.jl", &src)]).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let mut env = WootinJ::new(&table).unwrap();
        let p = env.new_instance("P", &[]).unwrap();

        let args = [env.jvm.new_i32_array(&INPUT)];
        let java = env.run_interpreted(&p, "run", &args).unwrap().result;
        let Value::Arr(r) = &args[0] else {
            unreachable!()
        };
        let ArrayData::I32(java_arr) = env.jvm.heap.arr(*r).clone() else {
            panic!("{name}: the argument is not an int array")
        };
        assert_ne!(java_arr, INPUT, "{name}: the program writes no element");

        for base in [
            TransConfig::virtual_dispatch(),
            TransConfig::devirt(),
            TransConfig::full(),
        ] {
            for opt in [
                OptConfig::none(),
                OptConfig::standard(),
                OptConfig::aggressive(),
            ] {
                let config = TransConfig { opt, ..base };
                let what = format!("{name}, {:?}, {opt:?}", config.mode);
                let arr = env.jvm.new_i32_array(&INPUT);
                let args = [arr];
                let t = translate(&table, &env.jvm, &p, "run", &args, config)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let mut m = Machine::with_globals(&t.program);
                let vals = bind_entry_args(&env.jvm, &p, &args, &t.bindings, &mut m).unwrap();
                let Some(Val::Arr(h)) = vals.last().cloned() else {
                    panic!("{what}: the array is not the last parameter")
                };
                let native = run(&t.program, t.entry, &vals, &mut m)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(
                    native_bits(&native),
                    java_bits(&java),
                    "{what}: translated {native:?}, interpreted {java:?}"
                );
                let ArrStore::I32(native_arr) = m.mem.arr(h).unwrap() else {
                    panic!("{what}: the argument is not an int array")
                };
                assert_eq!(native_arr, &java_arr, "{what}: array contents");
            }
        }
    }
}
