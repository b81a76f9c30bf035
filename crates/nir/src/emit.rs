//! Textual C / CUDA emission from NIR.
//!
//! WootinJ hands the generated C/CUDA source to an external compiler
//! (icc/nvcc). In this reproduction the program is *executed* by the
//! `exec` engine, and the emitter renders the same program as C — the
//! analogue of Listing 5 of the paper. For host-only programs that C is a
//! complete program: `crates/bench/tests/emitted_c.rs` compiles it with
//! `cc` and checks that it prints the same result bits as `exec`. The
//! output is a direct register-level rendering: one C variable per
//! register and `goto` for control flow, i.e. exactly what the IR says,
//! with no prettification pass.
//!
//! A short prelude (`PRELUDE`) spells out the Java behaviour that plain
//! C operators do not have; `main` reads the entry arguments from `argv`
//! and prints the result on stdout.

use std::fmt::Write as _;

use jlang::ast::BinOp;
use jlang::types::PrimKind;

use crate::intrin::{IntrinOp, IntrinTy};
use crate::ir::{ConstVal, FuncKind, Function, Instr, Program, Ty};

/// Exit status of an emitted program whose integer division or remainder
/// has a zero divisor: where `exec` fails with "division by zero".
pub const DIV_BY_ZERO_EXIT: i32 = 3;

/// Java's semantics where C's operators differ, as `exec` implements them
/// (`crates/exec/src/lib.rs`). `+`, `-` and `*` stay C operators, which
/// wrap as Java's do under `-fwrapv`; everything here is well defined
/// without it. Arguments and results cross `main` as decimal integers,
/// `0`/`1` bools and floats as hex bit patterns.
const PRELUDE: &str = r#"/* Arrays are zeroed and carry their length in the word before element 0. */
static inline void* wj_new_arr(int n, size_t size) {
    int64_t* h = calloc(1, sizeof(int64_t) + size * (size_t) n);
    if (h == NULL) abort();
    h[0] = n;
    return h + 1;
}
static inline int wj_length(const void* a) { return (int) ((const int64_t*) a)[-1]; }
static inline void wj_free_arr(void* a) { if (a != NULL) free((int64_t*) a - 1); }

/* Division wraps at MIN / -1; a zero divisor ends the program. */
static inline int wj_div_i32(int x, int y) {
    if (y == 0) exit(WJ_DIV_BY_ZERO_EXIT);
    return y == -1 ? (int) (0u - (uint32_t) x) : x / y;
}
static inline int wj_rem_i32(int x, int y) {
    if (y == 0) exit(WJ_DIV_BY_ZERO_EXIT);
    return y == -1 ? 0 : x % y;
}
static inline long wj_div_i64(long x, long y) {
    if (y == 0) exit(WJ_DIV_BY_ZERO_EXIT);
    return y == -1 ? (long) (0u - (uint64_t) x) : x / y;
}
static inline long wj_rem_i64(long x, long y) {
    if (y == 0) exit(WJ_DIV_BY_ZERO_EXIT);
    return y == -1 ? 0 : x % y;
}
static inline int wj_abs_i32(int x) { return x < 0 ? (int) (0u - (uint32_t) x) : x; }

/* Shift counts are masked to the operand's width. */
static inline int wj_shl_i32(int x, int s) { return (int) ((uint32_t) x << (s & 31)); }
static inline int wj_shr_i32(int x, int s) { return x >> (s & 31); }
static inline long wj_shl_i64(long x, long s) { return (long) ((uint64_t) x << (s & 63)); }
static inline long wj_shr_i64(long x, long s) { return x >> (s & 63); }

/* Float-to-integer casts saturate, and NaN becomes 0 (a float widens exactly). */
static inline int wj_d2i(double v) {
    if (v != v) return 0;
    if (v >= 2147483647.0) return INT_MAX;
    if (v <= -2147483648.0) return INT_MIN;
    return (int) v;
}
static inline long wj_d2l(double v) {
    if (v != v) return 0;
    if (v >= 9223372036854775807.0) return LONG_MAX;
    if (v <= -9223372036854775808.0) return LONG_MIN;
    return (long) v;
}

/* Math.minf / Math.maxf: a NaN operand wins, and -0.0 is below +0.0. */
static inline float wj_min_f32(float a, float b) {
    if (a != a) return a;
    if (b != b) return b;
    if (a == b) return signbit(a) ? a : b;
    return a < b ? a : b;
}
static inline float wj_max_f32(float a, float b) {
    if (a != a) return a;
    if (b != b) return b;
    if (a == b) return signbit(a) ? b : a;
    return a > b ? a : b;
}

/* Floats cross the process boundary as bit patterns. */
static inline uint32_t wj_bits_f32(float v) { uint32_t b; memcpy(&b, &v, sizeof b); return b; }
static inline uint64_t wj_bits_f64(double v) { uint64_t b; memcpy(&b, &v, sizeof b); return b; }
static inline float wj_arg_f32(const char* s) {
    uint32_t b = (uint32_t) strtoul(s, NULL, 16);
    float v;
    memcpy(&v, &b, sizeof v);
    return v;
}
static inline double wj_arg_f64(const char* s) {
    uint64_t b = strtoull(s, NULL, 16);
    double v;
    memcpy(&v, &b, sizeof v);
    return v;
}
static inline void wj_print_i32(int v) { printf("%d\n", v); }
static inline void wj_print_i64(long v) { printf("%lld\n", (long long) v); }
static inline void wj_print_bool(bool v) { puts(v ? "true" : "false"); }
static inline void wj_print_f32(float v) { printf("0x%08" PRIx32 "\n", wj_bits_f32(v)); }
static inline void wj_print_f64(double v) { printf("0x%016" PRIx64 "\n", wj_bits_f64(v)); }
"#;

/// Emit a full C (plus CUDA where kernels exist) translation unit.
pub fn emit_c(p: &Program) -> String {
    let mut out = String::new();
    let has_kernels = p.funcs.iter().any(|f| f.kind != FuncKind::Host);
    let (has_mpi, _) = p.uses();
    out.push_str(
        "#include <stdlib.h>\n#include <stdio.h>\n#include <math.h>\n\
         #include <stdbool.h>\n#include <string.h>\n#include <stdint.h>\n\
         #include <inttypes.h>\n#include <limits.h>\n",
    );
    if has_mpi {
        out.push_str("#include <mpi.h>\n");
    }
    if has_kernels {
        out.push_str("#include <cuda_runtime.h>\n");
    }
    let _ = writeln!(out, "\n#define WJ_DIV_BY_ZERO_EXIT {DIV_BY_ZERO_EXIT}\n");
    out.push_str(PRELUDE);
    out.push('\n');

    for g in &p.globals {
        let v = c_const(&g.value);
        let _ = writeln!(out, "static const {} {} = {};", g.ty.c_name(), g.name, v);
    }
    if !p.globals.is_empty() {
        out.push('\n');
    }

    // Forward declarations.
    for f in &p.funcs {
        let _ = writeln!(out, "{};", signature(f));
    }
    out.push('\n');

    for f in &p.funcs {
        emit_func(&mut out, p, f);
        out.push('\n');
    }

    // Listing 5's main(): one argv entry per entry parameter, the result
    // printed on stdout.
    if let Some(entry) = p.entry {
        let e = p.func(entry);
        out.push_str("int main(int argc, char* argv[]) {\n");
        if has_mpi {
            out.push_str("    MPI_Init(&argc, &argv);\n");
        }
        let n = e.params.len();
        let _ = writeln!(
            out,
            "    if (argc != {}) {{\n        fprintf(stderr, \"usage: %s <{n} arguments>\\n\", argv[0]);\n        return 2;\n    }}",
            n + 1
        );
        for (i, t) in e.params.iter().enumerate() {
            let _ = writeln!(out, "    {} arg{i} = {};", t.c_name(), c_arg(*t, i + 1));
        }
        let args: Vec<String> = (0..n).map(|i| format!("arg{i}")).collect();
        let call = format!("{}({})", e.name, args.join(", "));
        match e.ret.and_then(print_fn) {
            Some(print) => {
                let _ = writeln!(out, "    {print}({call});");
            }
            None => {
                let _ = writeln!(out, "    {call};");
            }
        }
        if has_mpi {
            out.push_str("    MPI_Finalize();\n");
        }
        out.push_str("    return 0;\n}\n");
    }
    out
}

/// `argv[i]` parsed as a `ty` entry argument. Array and object parameters
/// have no textual form: they are passed as `NULL`.
fn c_arg(ty: Ty, i: usize) -> String {
    match ty {
        Ty::I32 => format!("(int) strtol(argv[{i}], NULL, 10)"),
        Ty::I64 => format!("strtol(argv[{i}], NULL, 10)"),
        Ty::Bool => format!("strtol(argv[{i}], NULL, 10) != 0"),
        Ty::F32 => format!("wj_arg_f32(argv[{i}])"),
        Ty::F64 => format!("wj_arg_f64(argv[{i}])"),
        Ty::Arr(_) | Ty::Obj => "NULL".into(),
    }
}

/// The prelude function printing a `ty` value on a line of its own.
fn print_fn(ty: Ty) -> Option<&'static str> {
    Some(match ty {
        Ty::I32 => "wj_print_i32",
        Ty::I64 => "wj_print_i64",
        Ty::Bool => "wj_print_bool",
        Ty::F32 => "wj_print_f32",
        Ty::F64 => "wj_print_f64",
        Ty::Arr(_) | Ty::Obj => return None,
    })
}

/// A constant as a C expression. Non-finite floats go through `NAN` and
/// `INFINITY` with their sign, and the minimum integers as `(-MAX - 1)`:
/// neither has a literal.
fn c_const(v: &ConstVal) -> String {
    fn non_finite(nan: bool, negative: bool) -> String {
        let sign = if negative { "-" } else { "" };
        let name = if nan { "NAN" } else { "INFINITY" };
        format!("{sign}{name}")
    }
    match *v {
        ConstVal::I32(i32::MIN) => "(-2147483647 - 1)".into(),
        ConstVal::I32(x) => x.to_string(),
        ConstVal::I64(i64::MIN) => "(-9223372036854775807L - 1)".into(),
        ConstVal::I64(x) => format!("{x}L"),
        ConstVal::F32(x) if !x.is_finite() => non_finite(x.is_nan(), x.is_sign_negative()),
        ConstVal::F32(x) => format!("{x:?}f"),
        ConstVal::F64(x) if !x.is_finite() => non_finite(x.is_nan(), x.is_sign_negative()),
        ConstVal::F64(x) => format!("{x:?}"),
        ConstVal::Bool(x) => (x as i32).to_string(),
    }
}

fn signature(f: &Function) -> String {
    let prefix = match f.kind {
        FuncKind::Host => "",
        FuncKind::Kernel => "__global__ ",
        FuncKind::Device => "__device__ ",
    };
    let ret = match (f.kind, &f.ret) {
        (FuncKind::Kernel, _) => "void".to_string(),
        (_, Some(t)) => t.c_name(),
        (_, None) => "void".to_string(),
    };
    let params: Vec<String> = f
        .params
        .iter()
        .enumerate()
        .map(|(i, t)| format!("{} r{}", t.c_name(), i))
        .collect();
    format!("{prefix}{ret} {}({})", f.name, params.join(", "))
}

fn emit_func(out: &mut String, p: &Program, f: &Function) {
    let _ = writeln!(out, "{} {{", signature(f));
    // Declare non-parameter registers.
    for (i, t) in f.regs.iter().enumerate().skip(f.params.len()) {
        let _ = writeln!(out, "    {} r{};", t.c_name(), i);
    }
    // Which pcs are jump targets (need labels)?
    let mut target = vec![false; f.code.len() + 1];
    for ins in &f.code {
        ins.for_each_target(|t| target[t as usize] = true);
    }
    for (pc, ins) in f.code.iter().enumerate() {
        if target[pc] {
            let _ = writeln!(out, "L{pc}:;");
        }
        let line = render(p, ins, pc);
        let _ = writeln!(out, "    {line}");
    }
    if target[f.code.len()] {
        let _ = writeln!(out, "L{}:;", f.code.len());
    }
    out.push_str("}\n");
}

fn c_op(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::BitXor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
    }
}

/// The prelude (or libm) function a binary op renders as, where C's
/// operator is not Java's: integer division, remainder and shifts, and
/// float remainder (C's `%` takes integers only).
fn bin_fn(op: BinOp, kind: PrimKind) -> Option<&'static str> {
    Some(match (op, kind) {
        (BinOp::Div, PrimKind::Int) => "wj_div_i32",
        (BinOp::Div, PrimKind::Long) => "wj_div_i64",
        (BinOp::Rem, PrimKind::Int) => "wj_rem_i32",
        (BinOp::Rem, PrimKind::Long) => "wj_rem_i64",
        (BinOp::Rem, PrimKind::Float) => "fmodf",
        (BinOp::Rem, PrimKind::Double) => "fmod",
        (BinOp::Shl, PrimKind::Int) => "wj_shl_i32",
        (BinOp::Shl, PrimKind::Long) => "wj_shl_i64",
        (BinOp::Shr, PrimKind::Int) => "wj_shr_i32",
        (BinOp::Shr, PrimKind::Long) => "wj_shr_i64",
        _ => return None,
    })
}

fn render(p: &Program, ins: &Instr, _pc: usize) -> String {
    match ins {
        Instr::Mov(d, s) => format!("r{d} = r{s};"),
        Instr::Bin {
            op,
            kind,
            dst,
            lhs,
            rhs,
        } => match bin_fn(*op, *kind) {
            Some(f) => format!("r{dst} = {f}(r{lhs}, r{rhs});"),
            None => format!("r{dst} = r{lhs} {} r{rhs};", c_op(*op)),
        },
        Instr::Neg { dst, src, .. } => format!("r{dst} = -r{src};"),
        Instr::Not { dst, src } => format!("r{dst} = !r{src};"),
        Instr::Cast {
            to: to @ (PrimKind::Int | PrimKind::Long),
            from: PrimKind::Float | PrimKind::Double,
            dst,
            src,
        } => {
            let f = if *to == PrimKind::Int {
                "wj_d2i"
            } else {
                "wj_d2l"
            };
            format!("r{dst} = {f}(r{src});")
        }
        Instr::Cast { to, dst, src, .. } => {
            let t = Ty::of_prim(*to).c_name();
            format!("r{dst} = ({t}) r{src};")
        }
        Instr::Jmp(t) => format!("goto L{t};"),
        Instr::Br { cond, t, f } => format!("if (r{cond}) goto L{t}; else goto L{f};"),
        Instr::Ret(Some(r)) => format!("return r{r};"),
        Instr::Ret(None) => "return;".to_string(),
        Instr::Call { func, args, dst } => {
            let callee = p.func(*func);
            let a: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
            match dst {
                Some(d) => format!("r{d} = {}({});", callee.name, a.join(", ")),
                None => format!("{}({});", callee.name, a.join(", ")),
            }
        }
        Instr::CallHost { host, args, dst } => {
            let sig = &p.host_fns[*host as usize];
            let a: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
            let cname = sig.name.replace('.', "_");
            match dst {
                Some(d) => format!("r{d} = {cname}({}); /* extern */", a.join(", ")),
                None => format!("{cname}({}); /* extern */", a.join(", ")),
            }
        }
        Instr::NewObj { class, dst } => {
            let c = &p.classes[*class as usize];
            format!(
                "r{dst} = obj_new(/* {} */ {}, {});",
                c.name, class, c.field_count
            )
        }
        Instr::GetField { obj, slot, dst } => format!("r{dst} = r{obj}->f[{slot}];"),
        Instr::PutField { obj, slot, src } => format!("r{obj}->f[{slot}] = r{src};"),
        Instr::CallVirt {
            selector,
            recv,
            args,
            dst,
        } => {
            let sel = &p.selectors[*selector as usize];
            let mut a: Vec<String> = vec![format!("r{recv}")];
            a.extend(args.iter().map(|r| format!("r{r}")));
            match dst {
                Some(d) => format!("r{d} = VCALL(r{recv}, {sel})({});", a.join(", ")),
                None => format!("VCALL(r{recv}, {sel})({});", a.join(", ")),
            }
        }
        Instr::NewArr { elem, len, dst } => {
            let t = elem.c_name();
            format!("r{dst} = ({t}*) wj_new_arr(r{len}, sizeof({t}));")
        }
        Instr::LdArr { arr, idx, dst } => format!("r{dst} = r{arr}[r{idx}];"),
        Instr::StArr { arr, idx, src } => format!("r{arr}[r{idx}] = r{src};"),
        Instr::ArrLen { arr, dst } => format!("r{dst} = wj_length(r{arr});"),
        Instr::FreeArr { arr } => format!("wj_free_arr(r{arr});"),
        Instr::Intrin { op, args, dst } => {
            // `Program::verify` makes the same check, so a verified
            // program never renders the comment; past it, `args` has the
            // op's arity and `dst` is present wherever it is read.
            let row = match op.check_operands(args.len(), dst.is_some()) {
                Ok(row) => row,
                Err(e) => return format!("/* {e} */"),
            };
            let d = dst.unwrap_or_default();
            let a: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
            match op {
                IntrinOp::ThreadIdx(_)
                | IntrinOp::BlockIdx(_)
                | IntrinOp::BlockDim(_)
                | IntrinOp::GridDim(_) => format!("r{d} = {};", row.c_name),
                // C has no integer `min`/`max`.
                IntrinOp::MinI32 | IntrinOp::MaxI32 => {
                    let cmp = if *op == IntrinOp::MinI32 { "<" } else { ">" };
                    let (x, y) = (args[0], args[1]);
                    format!("r{d} = r{x} {cmp} r{y} ? r{x} : r{y};")
                }
                IntrinOp::MpiRank | IntrinOp::MpiSize => {
                    format!("{}(MPI_COMM_WORLD, &r{d});", row.c_name)
                }
                IntrinOp::MpiBarrier => format!("{}(MPI_COMM_WORLD);", row.c_name),
                IntrinOp::MpiSendF32 | IntrinOp::MpiBcastF32 => {
                    format!("{}({}, MPI_FLOAT, MPI_COMM_WORLD);", row.c_name, a.join(", "))
                }
                IntrinOp::MpiRecvF32 => format!(
                    "{}({}, MPI_FLOAT, MPI_COMM_WORLD, MPI_STATUS_IGNORE);",
                    row.c_name,
                    a.join(", ")
                ),
                IntrinOp::MpiSendRecvF32 => format!(
                    "{}({}, MPI_COMM_WORLD, MPI_STATUS_IGNORE);",
                    row.c_name,
                    a.join(", ")
                ),
                IntrinOp::MpiAllreduceSumF64
                | IntrinOp::MpiAllreduceSumF32
                | IntrinOp::MpiAllreduceMaxF64 => {
                    let f32 = row.ret == Some(IntrinTy::Is(Ty::F32));
                    let ty = if f32 { "MPI_FLOAT" } else { "MPI_DOUBLE" };
                    let reduce = if *op == IntrinOp::MpiAllreduceMaxF64 { "MPI_MAX" } else { "MPI_SUM" };
                    format!("{}(MPI_IN_PLACE, &r{d}, 1, {ty}, {reduce}, MPI_COMM_WORLD);", row.c_name)
                }
                IntrinOp::CopyToGpu => format!(
                    "cudaMalloc(&r{0}, sizeof(float) * wj_length(r{1})); cudaMemcpy(r{0}, r{1}, sizeof(float) * wj_length(r{1}), cudaMemcpyHostToDevice);",
                    d,
                    args[0]
                ),
                IntrinOp::CopyFromGpu => format!(
                    "cudaMemcpy(r{0}, r{1}, sizeof(float) * wj_length(r{0}), cudaMemcpyDeviceToHost);",
                    args[0], args[1]
                ),
                IntrinOp::GpuAllocF32 => {
                    format!("cudaMalloc(&r{d}, sizeof(float) * r{});", args[0])
                }
                IntrinOp::ArrayCopyF32 => format!(
                    "memmove(r{2} + r{3}, r{0} + r{1}, sizeof(float) * r{4});",
                    args[0], args[1], args[2], args[3], args[4]
                ),
                _ => match dst {
                    Some(d) => format!("r{d} = {}({});", row.c_name, a.join(", ")),
                    None => format!("{}({});", row.c_name, a.join(", ")),
                },
            }
        }
        Instr::Launch {
            kernel,
            grid,
            block,
            args,
        } => {
            let k = p.func(*kernel);
            let a: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
            format!(
                "{}<<<dim3(r{}, r{}, r{}), dim3(r{}, r{}, r{})>>>({});",
                k.name,
                grid[0],
                grid[1],
                grid[2],
                block[0],
                block[1],
                block[2],
                a.join(", ")
            )
        }
        Instr::SharedAlloc { elem, len, dst } => {
            format!("__shared__ {} r{dst}[/* r{len} */];", elem.c_name())
        }
        Instr::Sync => "__syncthreads();".to_string(),
        // What is left loads a constant.
        _ => match (ins.dst(), ins.const_val()) {
            (Some(d), Some(v)) => format!("r{d} = {};", c_const(&v)),
            _ => format!("/* {ins:?} */"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ElemTy, FuncBuilder, Global};

    #[test]
    fn emits_listing5_like_structure() {
        // Build: __global__ kernel writing array[threadIdx.x] and a host
        // run() that launches it — the shape of Listing 5.
        let mut p = Program::default();
        let mut kb = FuncBuilder::new("runGPU", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
        let x = kb.reg(Ty::I32);
        let v = kb.reg(Ty::F32);
        let two = kb.reg(Ty::F32);
        kb.emit(Instr::Intrin {
            op: IntrinOp::ThreadIdx(0),
            args: vec![],
            dst: Some(x),
        });
        kb.emit(Instr::LdArr {
            arr: 0,
            idx: x,
            dst: v,
        });
        kb.emit(Instr::ConstF32(two, 2.0));
        kb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Float,
            dst: v,
            lhs: v,
            rhs: two,
        });
        kb.emit(Instr::StArr {
            arr: 0,
            idx: x,
            src: v,
        });
        kb.emit(Instr::Ret(None));
        let kid = p.add_func(kb.finish().unwrap());

        let mut hb = FuncBuilder::new("run", vec![Ty::I32], None, FuncKind::Host);
        let one = hb.reg(Ty::I32);
        let arr = hb.reg(Ty::Arr(ElemTy::F32));
        hb.emit(Instr::ConstI32(one, 1));
        hb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: 0,
            dst: arr,
        });
        hb.emit(Instr::Launch {
            kernel: kid,
            grid: [one, one, one],
            block: [0, one, one],
            args: vec![arr],
        });
        hb.emit(Instr::Ret(None));
        let hid = p.add_func(hb.finish().unwrap());
        p.entry = Some(hid);
        p.verify().unwrap();

        let src = emit_c(&p);
        assert!(src.contains("__global__ void runGPU(float* r0)"), "{src}");
        assert!(src.contains("threadIdx.x"), "{src}");
        assert!(src.contains("runGPU<<<"), "{src}");
        assert!(src.contains("#include <cuda_runtime.h>"), "{src}");
        assert!(src.contains("int main(int argc, char* argv[])"), "{src}");
    }

    #[test]
    fn mpi_program_includes_mpi_shell() {
        let mut p = Program::default();
        let mut fb = FuncBuilder::new("run", vec![], None, FuncKind::Host);
        let r = fb.reg(Ty::I32);
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiRank,
            args: vec![],
            dst: Some(r),
        });
        fb.emit(Instr::Ret(None));
        let id = p.add_func(fb.finish().unwrap());
        p.entry = Some(id);
        let src = emit_c(&p);
        assert!(src.contains("#include <mpi.h>"), "{src}");
        assert!(src.contains("MPI_Init(&argc, &argv);"), "{src}");
        assert!(src.contains("MPI_Comm_rank(MPI_COMM_WORLD, &r0);"), "{src}");
        assert!(src.contains("MPI_Finalize();"), "{src}");
    }

    #[test]
    fn control_flow_uses_labels() {
        let mut fb = FuncBuilder::new("f", vec![Ty::Bool], Some(Ty::I32), FuncKind::Host);
        let a = fb.reg(Ty::I32);
        let t = fb.label();
        let e = fb.label();
        fb.br(0, t, e);
        fb.bind(t);
        fb.emit(Instr::ConstI32(a, 1));
        fb.emit(Instr::Ret(Some(a)));
        fb.bind(e);
        fb.emit(Instr::ConstI32(a, 2));
        fb.emit(Instr::Ret(Some(a)));
        let mut p = Program::default();
        p.add_func(fb.finish().unwrap());
        let src = emit_c(&p);
        assert!(src.contains("goto L"), "{src}");
        assert!(src.contains("L1:;"), "{src}");
    }

    /// `fn f(a: ty, b: ty) -> ty { ins }` rendered, `ins` writing `r2`.
    fn emit_one(ty: Ty, ins: Instr) -> String {
        let mut fb = FuncBuilder::new("f", vec![ty, ty], Some(ty), FuncKind::Host);
        let d = fb.reg(ty);
        fb.emit(ins);
        fb.emit(Instr::Ret(Some(d)));
        let mut p = Program::default();
        p.entry = Some(p.add_func(fb.finish().unwrap()));
        p.verify().unwrap();
        emit_c(&p)
    }

    #[test]
    fn float_and_double_rem_render_as_fmod() {
        for (ty, kind, want) in [
            (Ty::F32, PrimKind::Float, "r2 = fmodf(r0, r1);"),
            (Ty::F64, PrimKind::Double, "r2 = fmod(r0, r1);"),
            (Ty::I32, PrimKind::Int, "r2 = wj_rem_i32(r0, r1);"),
        ] {
            let rem = Instr::Bin {
                op: BinOp::Rem,
                kind,
                dst: 2,
                lhs: 0,
                rhs: 1,
            };
            let src = emit_one(ty, rem);
            assert!(src.contains(want), "{src}");
        }
    }

    #[test]
    fn int_min_and_max_render_as_conditionals() {
        for (op, want) in [
            (IntrinOp::MinI32, "r2 = r0 < r1 ? r0 : r1;"),
            (IntrinOp::MaxI32, "r2 = r0 > r1 ? r0 : r1;"),
        ] {
            let args = vec![0, 1];
            let src = emit_one(
                Ty::I32,
                Instr::Intrin {
                    op,
                    args,
                    dst: Some(2),
                },
            );
            assert!(src.contains(want), "{src}");
        }
    }

    /// The runtime intrinsics render as their MPI or CUDA calls: each op
    /// at its row's arity, operands `r0..` and a destination `r8`.
    #[test]
    fn runtime_intrinsics_render_as_their_calls() {
        use IntrinOp as I;
        for (op, want) in [
            (I::ThreadIdx(1), "r8 = threadIdx.y;"),
            (I::GridDim(2), "r8 = gridDim.z;"),
            (I::GpuFree, "cudaFree(r0);"),
            (
                I::CopyToGpuRange,
                "cudaMemcpy/*range,HtoD*/(r0, r1, r2, r3, r4);",
            ),
            (I::MpiRank, "MPI_Comm_rank(MPI_COMM_WORLD, &r8);"),
            (I::MpiSize, "MPI_Comm_size(MPI_COMM_WORLD, &r8);"),
            (I::MpiBarrier, "MPI_Barrier(MPI_COMM_WORLD);"),
            (
                I::MpiSendF32,
                "MPI_Send(r0, r1, r2, r3, r4, MPI_FLOAT, MPI_COMM_WORLD);",
            ),
            (
                I::MpiRecvF32,
                "MPI_Recv(r0, r1, r2, r3, r4, MPI_FLOAT, MPI_COMM_WORLD, MPI_STATUS_IGNORE);",
            ),
            (
                I::MpiSendRecvF32,
                "MPI_Sendrecv(r0, r1, r2, r3, r4, r5, r6, r7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);",
            ),
            (
                I::MpiBcastF32,
                "MPI_Bcast(r0, r1, r2, r3, MPI_FLOAT, MPI_COMM_WORLD);",
            ),
            (
                I::MpiAllreduceSumF64,
                "MPI_Allreduce(MPI_IN_PLACE, &r8, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);",
            ),
            (
                I::MpiAllreduceSumF32,
                "MPI_Allreduce(MPI_IN_PLACE, &r8, 1, MPI_FLOAT, MPI_SUM, MPI_COMM_WORLD);",
            ),
            (
                I::MpiAllreduceMaxF64,
                "MPI_Allreduce(MPI_IN_PLACE, &r8, 1, MPI_DOUBLE, MPI_MAX, MPI_COMM_WORLD);",
            ),
        ] {
            let row = op.row().unwrap();
            let mut fb = FuncBuilder::new("f", vec![Ty::I32; 9], None, FuncKind::Host);
            fb.emit(Instr::Intrin {
                op,
                args: (0..row.params.len() as u32).collect(),
                dst: row.ret.map(|_| 8),
            });
            fb.emit(Instr::Ret(None));
            let mut p = Program::default();
            p.add_func(fb.finish().unwrap());
            let src = emit_c(&p);
            assert!(src.contains(&format!("    {want}\n")), "{op:?}: {src}");
        }
    }

    #[test]
    fn main_reads_each_parameter_from_argv_and_prints_the_result() {
        let src = emit_one(Ty::F64, Instr::Mov(2, 0));
        for want in [
            "if (argc != 3) {",
            "double arg0 = wj_arg_f64(argv[1]);",
            "double arg1 = wj_arg_f64(argv[2]);",
            "wj_print_f64(f(arg0, arg1));",
        ] {
            assert!(src.contains(want), "{want}: {src}");
        }
    }

    #[test]
    fn constants_without_a_c_literal_render_as_expressions() {
        for (v, want) in [
            (ConstVal::F32(f32::NAN), "NAN"),
            (ConstVal::F32(-f32::NAN), "-NAN"),
            (ConstVal::F32(f32::INFINITY), "INFINITY"),
            (ConstVal::F32(f32::NEG_INFINITY), "-INFINITY"),
            (ConstVal::F64(f64::NAN), "NAN"),
            (ConstVal::F64(f64::NEG_INFINITY), "-INFINITY"),
            (ConstVal::I32(i32::MIN), "(-2147483647 - 1)"),
            (ConstVal::I64(i64::MIN), "(-9223372036854775807L - 1)"),
            (ConstVal::I32(i32::MAX), "2147483647"),
            (ConstVal::I64(-5), "-5L"),
            (ConstVal::F32(-0.0), "-0.0f"),
            (ConstVal::F64(0.1), "0.1"),
        ] {
            assert_eq!(c_const(&v), want, "{v:?}");
        }
        // The same rendering reaches instructions and globals.
        let mut src = emit_one(Ty::I64, Instr::ConstI64(2, i64::MIN));
        assert!(src.contains("r2 = (-9223372036854775807L - 1);"), "{src}");
        src = emit_one(Ty::F32, Instr::ConstF32(2, f32::NEG_INFINITY));
        assert!(src.contains("r2 = -INFINITY;"), "{src}");
        let mut p = Program::default();
        p.globals.push(Global {
            name: "K_NAN".into(),
            ty: Ty::F32,
            value: ConstVal::F32(f32::NAN),
        });
        src = emit_c(&p);
        assert!(src.contains("static const float K_NAN = NAN;"), "{src}");
    }

    #[test]
    fn bool_and_memcpy_have_their_headers() {
        let src = emit_one(Ty::Bool, Instr::Mov(2, 0));
        assert!(src.contains("#include <stdbool.h>\n"), "{src}");
        assert!(src.contains("#include <string.h>\n"), "{src}");
    }
}
