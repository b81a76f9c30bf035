//! Java control flow against the `jvm`, in every mode: `break`,
//! `continue`, loops without a condition, nested loops, `&&` and `||`
//! whose right operand has an effect, unary operators, every numeric cast
//! and the array operations. Each program runs interpreted once and
//! translated in Virtual, Devirt and Full mode at `none` and `standard`;
//! the translated result and the contents of the array argument must
//! equal the interpreter's bit for bit.

use exec::{ArrStore, Image, Machine, Thread, Val, Yield};
use jvm::{ArrayData, Value};
use nir::OptConfig;
use translator::{bind_entry_args, translate, TransConfig};
use wootinj::{build_table, WootinJ};

/// The array each program gets; it may write to it.
const INPUT: [i32; 8] = [7, -3, 2147483647, -2147483648, 5, 0, 100, 13];

/// `(name, members of class P)`: each has `run(int[] a)`.
const PROGRAMS: &[(&str, &str)] = &[
    (
        "for with continue",
        "int run(int[] a) {
           int s = 0;
           for (int i = 0; i < a.length; i++) {
             if (a[i] % 3 == 0) { continue; }
             s += a[i] % 1000;
             a[i] = s;
           }
           return s;
         }",
    ),
    (
        "while with break",
        "int run(int[] a) {
           int i = 0;
           while (i < a.length) {
             if (a[i] > 40) { break; }
             a[i] = a[i] * 2;
             i++;
           }
           return i;
         }",
    ),
    (
        "for (;;) left by break",
        "int run(int[] a) {
           int n = 0;
           for (;;) {
             n++;
             if (n >= a.length) { break; }
             a[n] = a[n - 1] / 2 + a[n] % 7;
           }
           return n;
         }",
    ),
    (
        "nested loops",
        "long run(int[] a) {
           long s = 1L;
           for (int i = 0; i < a.length; i++) {
             int j = 0;
             while (true) {
               j++;
               if (j > i) { break; }
               if ((i + j) % 2 == 0) { continue; }
               for (int k = 0; k < 3; k++) {
                 if (k == j) { break; }
                 s = s * 31L + a[i] * j - k;
               }
             }
             a[i] = (int) s;
           }
           return s;
         }",
    ),
    (
        "&& and || with an effect on the right",
        "boolean bump(int[] a, int i, boolean v) {
           a[i] = a[i] + 1;
           return v;
         }
         int run(int[] a) {
           int c = 0;
           for (int i = 0; i < a.length; i++) {
             if (a[i] > 10 && bump(a, i, a[i] % 2 == 0)) { c += 1; }
             if (a[i] < 5 || bump(a, i, false)) { c += 100; }
           }
           boolean x = a[1] > 0 && bump(a, 0, true) || bump(a, 5, a[6] > 0);
           boolean y = !(a[4] < 0 || bump(a, 7, true)) && bump(a, 7, false);
           if (x) { c += 10000; }
           if (y) { c += 20000; }
           return c;
         }",
    ),
    (
        "unary operators and every numeric cast",
        "double run(int[] a) {
           int i = -a[0];
           long l = -(long) a[3];
           float f = -(float) a[2] / 3f;
           double d = -(double) a[1] / 7.0;
           boolean z = !(a[4] > 3);
           long il = (long) a[2] * 3L;
           float fi = (float) a[2];
           double di = (double) a[3];
           int li = (int) il;
           float lf = (float) il;
           double ld = (double) l;
           int fl = (int) (f * 1.0e10f);
           long flong = (long) (f * 1.0e20f);
           double fd = (double) f;
           int dl = (int) (d * 1.0e12);
           long dlong = (long) (d * 1.0e30);
           float df = (float) (d * 1.0e40);
           a[0] = i;
           a[1] = li;
           a[2] = fl;
           a[3] = dl;
           a[4] = (int) flong;
           a[5] = (int) (dlong >> 32);
           a[6] = (int) df;
           a[7] = -(int) fi;
           if (z) { return -(ld + di + fd + (double) lf); }
           return ld + di + fd + (double) lf + (double) df;
         }",
    ),
    (
        "array new, store, load and length",
        "float run(int[] a) {
           float[] f = new float[a.length + 1];
           double[] d = new double[3];
           long[] l = new long[a.length];
           boolean[] z = new boolean[2];
           int[] c = new int[a.length];
           for (int i = 0; i < a.length; i++) {
             f[i] = (float) a[i] * 0.5f;
             l[i] = (long) a[i] << 33;
             c[a.length - 1 - i] = a[i];
           }
           f[a.length] = (float) f.length;
           d[1] = (double) f[2] + (double) d.length;
           z[1] = l[0] > 0L;
           for (int i = 0; i < a.length; i++) {
             a[i] = c[i] + (int) (l[i] >> 40) + l.length;
           }
           if (z[1] && !z[0]) { return f[a.length] + (float) d[1] + (float) c.length; }
           return f[0];
         }",
    ),
];

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
    for (name, members) in PROGRAMS {
        let src = format!("@WootinJ final class P {{ P() {{ }} {members} }}");
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
            for opt in [OptConfig::none(), OptConfig::standard()] {
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
