//! Textual C / CUDA emission from NIR.
//!
//! WootinJ hands the generated C/CUDA source to an external compiler
//! (icc/nvcc). In this reproduction the program is *executed* by the
//! `exec` engine, but the emitter still produces readable source — the
//! analogue of Listing 5 of the paper — for inspection, documentation,
//! and golden tests. The output is a direct register-level rendering: one
//! C variable per register and `goto` for control flow, i.e. exactly what
//! the IR says, with no prettification pass.

use std::fmt::Write as _;

use jlang::ast::BinOp;
use jlang::types::PrimKind;

use crate::ir::{FuncKind, Function, Instr, IntrinOp, Program};

/// Emit a full C (plus CUDA where kernels exist) translation unit.
pub fn emit_c(p: &Program) -> String {
    let mut out = String::new();
    let has_kernels = p.funcs.iter().any(|f| f.kind != FuncKind::Host);
    let has_mpi = p.funcs.iter().any(|f| {
        f.code.iter().any(|i| {
            matches!(
                i,
                Instr::Intrin {
                    op: IntrinOp::MpiRank
                        | IntrinOp::MpiSize
                        | IntrinOp::MpiBarrier
                        | IntrinOp::MpiSendF32
                        | IntrinOp::MpiRecvF32
                        | IntrinOp::MpiSendRecvF32
                        | IntrinOp::MpiBcastF32
                        | IntrinOp::MpiAllreduceSumF64
                        | IntrinOp::MpiAllreduceSumF32
                        | IntrinOp::MpiAllreduceMaxF64,
                    ..
                }
            )
        })
    });
    out.push_str(
        "#include <stdlib.h>\n#include <stdio.h>\n#include <math.h>\n\
         #include <stdbool.h>\n#include <string.h>\n",
    );
    if has_mpi {
        out.push_str("#include <mpi.h>\n");
    }
    if has_kernels {
        out.push_str("#include <cuda_runtime.h>\n");
    }
    out.push('\n');

    for g in &p.globals {
        let v = match &g.value {
            crate::ir::ConstVal::I32(x) => x.to_string(),
            crate::ir::ConstVal::I64(x) => format!("{x}L"),
            crate::ir::ConstVal::F32(x) => format!("{x:?}f"),
            crate::ir::ConstVal::F64(x) => format!("{x:?}"),
            crate::ir::ConstVal::Bool(x) => (*x as i32).to_string(),
        };
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

    // A main() shell mirroring Listing 5's structure.
    if let Some(entry) = p.entry {
        let e = p.func(entry);
        out.push_str("int main(int argc, char* argv[]) {\n");
        if has_mpi {
            out.push_str("    MPI_Init(&argc, &argv);\n");
        }
        let args: Vec<String> = (0..e.params.len()).map(|i| format!("arg{i}")).collect();
        for (i, t) in e.params.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {} arg{} = /* recorded by jit() */;",
                t.c_name(),
                i
            );
        }
        let _ = writeln!(out, "    {}({});", e.name, args.join(", "));
        if has_mpi {
            out.push_str("    MPI_Finalize();\n");
        }
        out.push_str("    return 0;\n}\n");
    }
    out
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
        match ins {
            Instr::Jmp(t) => target[*t as usize] = true,
            Instr::Br { t, f: fl, .. } => {
                target[*t as usize] = true;
                target[*fl as usize] = true;
            }
            _ => {}
        }
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

fn render(p: &Program, ins: &Instr, _pc: usize) -> String {
    match ins {
        Instr::ConstI32(d, v) => format!("r{d} = {v};"),
        Instr::ConstI64(d, v) => format!("r{d} = {v}L;"),
        Instr::ConstF32(d, v) => format!("r{d} = {v:?}f;"),
        Instr::ConstF64(d, v) => format!("r{d} = {v:?};"),
        Instr::ConstBool(d, v) => format!("r{d} = {};", *v as i32),
        Instr::Mov(d, s) => format!("r{d} = r{s};"),
        // C's `%` takes integers only; Java's float `%` is `fmod`'s.
        Instr::Bin {
            op: BinOp::Rem,
            kind: kind @ (PrimKind::Float | PrimKind::Double),
            dst,
            lhs,
            rhs,
        } => {
            let f = if *kind == PrimKind::Float {
                "fmodf"
            } else {
                "fmod"
            };
            format!("r{dst} = {f}(r{lhs}, r{rhs});")
        }
        Instr::Bin {
            op, dst, lhs, rhs, ..
        } => {
            format!("r{dst} = r{lhs} {} r{rhs};", c_op(*op))
        }
        Instr::Neg { dst, src, .. } => format!("r{dst} = -r{src};"),
        Instr::Not { dst, src } => format!("r{dst} = !r{src};"),
        Instr::Cast { to, dst, src, .. } => {
            let t = crate::ir::Ty::of_prim(*to).c_name();
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
            format!("r{dst} = ({t}*) malloc(sizeof({t}) * r{len});")
        }
        Instr::LdArr { arr, idx, dst } => format!("r{dst} = r{arr}[r{idx}];"),
        Instr::StArr { arr, idx, src } => format!("r{arr}[r{idx}] = r{src};"),
        Instr::ArrLen { arr, dst } => format!("r{dst} = len(r{arr});"),
        Instr::FreeArr { arr } => format!("free(r{arr});"),
        Instr::Intrin { op, args, dst } => {
            // `Program::validate` makes the same check, so a validated
            // program never renders the comment; past it, `args` has the
            // op's arity and `dst` is present wherever it is read.
            if let Err(e) = op.check_operands(args.len(), dst.is_some()) {
                return format!("/* {e} */");
            }
            let d = dst.unwrap_or_default();
            let a: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
            match op {
                IntrinOp::ThreadIdx(_)
                | IntrinOp::BlockIdx(_)
                | IntrinOp::BlockDim(_)
                | IntrinOp::GridDim(_) => format!("r{d} = {};", op.c_name()),
                // C has no integer `min`/`max`.
                IntrinOp::MinI32 | IntrinOp::MaxI32 => {
                    let cmp = if *op == IntrinOp::MinI32 { "<" } else { ">" };
                    let (x, y) = (args[0], args[1]);
                    format!("r{d} = r{x} {cmp} r{y} ? r{x} : r{y};")
                }
                IntrinOp::MpiRank => format!("MPI_Comm_rank(MPI_COMM_WORLD, &r{d});"),
                IntrinOp::MpiSize => format!("MPI_Comm_size(MPI_COMM_WORLD, &r{d});"),
                IntrinOp::MpiBarrier => "MPI_Barrier(MPI_COMM_WORLD);".to_string(),
                IntrinOp::MpiSendF32 => format!(
                    "MPI_Send({}, MPI_FLOAT, MPI_COMM_WORLD);",
                    a.join(", ")
                ),
                IntrinOp::MpiRecvF32 => format!(
                    "MPI_Recv({}, MPI_FLOAT, MPI_COMM_WORLD, MPI_STATUS_IGNORE);",
                    a.join(", ")
                ),
                IntrinOp::MpiSendRecvF32 => format!(
                    "MPI_Sendrecv({}, MPI_COMM_WORLD, MPI_STATUS_IGNORE);",
                    a.join(", ")
                ),
                IntrinOp::MpiBcastF32 => {
                    format!("MPI_Bcast({}, MPI_FLOAT, MPI_COMM_WORLD);", a.join(", "))
                }
                IntrinOp::MpiAllreduceSumF64 => format!(
                    "MPI_Allreduce(MPI_IN_PLACE, &r{d}, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);"
                ),
                IntrinOp::MpiAllreduceSumF32 => format!(
                    "MPI_Allreduce(MPI_IN_PLACE, &r{d}, 1, MPI_FLOAT, MPI_SUM, MPI_COMM_WORLD);"
                ),
                IntrinOp::MpiAllreduceMaxF64 => format!(
                    "MPI_Allreduce(MPI_IN_PLACE, &r{d}, 1, MPI_DOUBLE, MPI_MAX, MPI_COMM_WORLD);"
                ),
                IntrinOp::CopyToGpu => format!(
                    "cudaMalloc(&r{0}, len(r{1})); cudaMemcpy(r{0}, r{1}, len(r{1}), cudaMemcpyHostToDevice);",
                    d,
                    args[0]
                ),
                IntrinOp::CopyFromGpu => format!(
                    "cudaMemcpy(r{}, r{}, len(r{}), cudaMemcpyDeviceToHost);",
                    args[0], args[1], args[1]
                ),
                IntrinOp::GpuAllocF32 => {
                    format!("cudaMalloc(&r{d}, sizeof(float) * r{});", args[0])
                }
                IntrinOp::GpuFree => format!("cudaFree(r{});", args[0]),
                IntrinOp::PrintI32 | IntrinOp::PrintI64 => {
                    format!("printf(\"%ld\\n\", (long) r{});", args[0])
                }
                IntrinOp::PrintF32 | IntrinOp::PrintF64 => {
                    format!("printf(\"%g\\n\", (double) r{});", args[0])
                }
                IntrinOp::PrintBool => format!("printf(\"%d\\n\", (int) r{});", args[0]),
                IntrinOp::ArrayCopyF32 => format!(
                    "memcpy(r{2} + r{3}, r{0} + r{1}, sizeof(float) * r{4});",
                    args[0], args[1], args[2], args[3], args[4]
                ),
                _ => match dst {
                    Some(d) => format!("r{d} = {}({});", op.c_name(), a.join(", ")),
                    None => format!("{}({});", op.c_name(), a.join(", ")),
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ElemTy, FuncBuilder, FuncId, Ty};

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
        p.validate().unwrap();

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
        p.validate().unwrap();
        emit_c(&p)
    }

    #[test]
    fn float_and_double_rem_render_as_fmod() {
        for (ty, kind, want) in [
            (Ty::F32, PrimKind::Float, "r2 = fmodf(r0, r1);"),
            (Ty::F64, PrimKind::Double, "r2 = fmod(r0, r1);"),
            (Ty::I32, PrimKind::Int, "r2 = r0 % r1;"),
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

    #[test]
    fn bool_and_memcpy_have_their_headers() {
        let src = emit_one(Ty::Bool, Instr::Mov(2, 0));
        assert!(src.contains("#include <stdbool.h>\n"), "{src}");
        assert!(src.contains("#include <string.h>\n"), "{src}");
    }

    #[test]
    fn unknown_function_panics_cleanly_prevented_by_validate() {
        let mut p = Program::default();
        let mut fb = FuncBuilder::new("f", vec![], None, FuncKind::Host);
        fb.emit(Instr::Call {
            func: FuncId(7),
            args: vec![],
            dst: None,
        });
        fb.emit(Instr::Ret(None));
        p.add_func(fb.finish().unwrap());
        assert!(p.validate().is_err());
    }
}
