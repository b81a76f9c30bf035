//! The WootinJ preset's hot code, pinned as NIR text: the inner loops of
//! the 3-D diffusion update (Fig 17, `stencil-flat`) and the Fox
//! multiply-add (Fig 18, `fox-ranks`), with the instructions each retires
//! per iteration, and the whole body of the GPU stencil's kernel
//! (`stencil-gpu`), which every thread runs once.
//! `compile_path_output_is_pinned` only shows that a program moved; a
//! lost hoist, an undone rotation or a missed common subexpression shows
//! here as a line of text.

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jvm::Value;
use nir::{Function, Instr};
use wootinj::{JitOptions, WootinJ};

/// The diffusion update: seven loads, the weighted sum, one store.
const DIFFUSION: &str = "\
@0: Bin { op: Add, kind: Int, dst: 101, lhs: 94, rhs: 96 }
@1: LdArr { arr: 18, idx: 101, dst: 102 }
@2: Bin { op: Sub, kind: Int, dst: 104, lhs: 101, rhs: 88 }
@3: LdArr { arr: 18, idx: 104, dst: 105 }
@4: Bin { op: Add, kind: Int, dst: 107, lhs: 101, rhs: 88 }
@5: LdArr { arr: 18, idx: 107, dst: 108 }
@6: Bin { op: Sub, kind: Int, dst: 109, lhs: 101, rhs: 2 }
@7: LdArr { arr: 18, idx: 109, dst: 110 }
@8: Bin { op: Add, kind: Int, dst: 111, lhs: 101, rhs: 2 }
@9: LdArr { arr: 18, idx: 111, dst: 112 }
@10: Bin { op: Sub, kind: Int, dst: 114, lhs: 101, rhs: 113 }
@11: LdArr { arr: 18, idx: 114, dst: 115 }
@12: Bin { op: Add, kind: Int, dst: 117, lhs: 101, rhs: 113 }
@13: LdArr { arr: 18, idx: 117, dst: 118 }
@14: Bin { op: Mul, kind: Float, dst: 135, lhs: 0, rhs: 102 }
@15: Bin { op: Add, kind: Float, dst: 136, lhs: 105, rhs: 108 }
@16: Bin { op: Add, kind: Float, dst: 137, lhs: 136, rhs: 110 }
@17: Bin { op: Add, kind: Float, dst: 138, lhs: 137, rhs: 112 }
@18: Bin { op: Add, kind: Float, dst: 139, lhs: 138, rhs: 115 }
@19: Bin { op: Add, kind: Float, dst: 140, lhs: 139, rhs: 118 }
@20: Bin { op: Mul, kind: Float, dst: 141, lhs: 1, rhs: 140 }
@21: Bin { op: Add, kind: Float, dst: 119, lhs: 135, rhs: 141 }
@22: StArr { arr: 19, idx: 101, src: 119 }
@23: Bin { op: Add, kind: Int, dst: 96, lhs: 96, rhs: 88 }
@24: Bin { op: Lt, kind: Int, dst: 99, lhs: 96, rhs: 98 }
@25: Br { cond: 99, t: @0, f: exit }
";

/// The Fox multiply-add: `c[i][k] += a[i][j] * b[j][k]`.
const FOX: &str = "\
@0: Bin { op: Add, kind: Int, dst: 207, lhs: 206, rhs: 181 }
@1: LdArr { arr: 78, idx: 207, dst: 183 }
@2: Bin { op: Add, kind: Int, dst: 214, lhs: 213, rhs: 181 }
@3: LdArr { arr: 76, idx: 214, dst: 184 }
@4: Bin { op: Mul, kind: Float, dst: 185, lhs: 179, rhs: 184 }
@5: Bin { op: Add, kind: Float, dst: 186, lhs: 183, rhs: 185 }
@6: StArr { arr: 78, idx: 207, src: 186 }
@7: Bin { op: Add, kind: Int, dst: 181, lhs: 181, rhs: 187 }
@8: Bin { op: Lt, kind: Int, dst: 182, lhs: 181, rhs: 171 }
@9: Br { cond: 182, t: @0, f: exit }
";

/// The GPU stencil's kernel: one thread's point of the diffusion update,
/// guarded by the bounds test (`&&` chains over the point's coordinates).
/// The repeats that cross blocks stay, as merging them needs a dominator
/// tree: `ConstI32 1` at @13, @18 and @27, `ConstI32 0` at @15 and @23,
/// and `nx * ny` at @45, which @5 computed.
const STENCIL_KERNEL: &str = "\
@0: Intrin { op: BlockIdx(0), args: [], dst: Some(13) }
@1: Intrin { op: BlockDim(0), args: [], dst: Some(14) }
@2: Bin { op: Mul, kind: Int, dst: 15, lhs: 13, rhs: 14 }
@3: Intrin { op: ThreadIdx(0), args: [], dst: Some(16) }
@4: Bin { op: Add, kind: Int, dst: 18, lhs: 15, rhs: 16 }
@5: Bin { op: Mul, kind: Int, dst: 19, lhs: 10, rhs: 11 }
@6: Bin { op: Mul, kind: Int, dst: 21, lhs: 19, rhs: 12 }
@7: Bin { op: Lt, kind: Int, dst: 22, lhs: 18, rhs: 21 }
@8: Br { cond: 22, t: @9, f: @59 }
@9: Bin { op: Rem, kind: Int, dst: 24, lhs: 18, rhs: 10 }
@10: Bin { op: Div, kind: Int, dst: 26, lhs: 18, rhs: 10 }
@11: Bin { op: Rem, kind: Int, dst: 28, lhs: 26, rhs: 11 }
@12: Bin { op: Div, kind: Int, dst: 29, lhs: 26, rhs: 11 }
@13: ConstI32(30, 1)
@14: Bin { op: Add, kind: Int, dst: 32, lhs: 29, rhs: 30 }
@15: ConstI32(36, 0)
@16: Bin { op: Gt, kind: Int, dst: 35, lhs: 24, rhs: 36 }
@17: Br { cond: 35, t: @18, f: @21 }
@18: ConstI32(38, 1)
@19: Bin { op: Sub, kind: Int, dst: 39, lhs: 10, rhs: 38 }
@20: Bin { op: Lt, kind: Int, dst: 35, lhs: 24, rhs: 39 }
@21: Mov(34, 35)
@22: Br { cond: 35, t: @23, f: @25 }
@23: ConstI32(41, 0)
@24: Bin { op: Gt, kind: Int, dst: 34, lhs: 28, rhs: 41 }
@25: Mov(33, 34)
@26: Br { cond: 34, t: @27, f: @30 }
@27: ConstI32(43, 1)
@28: Bin { op: Sub, kind: Int, dst: 44, lhs: 11, rhs: 43 }
@29: Bin { op: Lt, kind: Int, dst: 33, lhs: 28, rhs: 44 }
@30: Br { cond: 33, t: @31, f: @59 }
@31: Bin { op: Mul, kind: Int, dst: 46, lhs: 32, rhs: 11 }
@32: Bin { op: Add, kind: Int, dst: 47, lhs: 46, rhs: 28 }
@33: Bin { op: Mul, kind: Int, dst: 48, lhs: 47, rhs: 10 }
@34: Bin { op: Add, kind: Int, dst: 50, lhs: 48, rhs: 24 }
@35: LdArr { arr: 8, idx: 50, dst: 51 }
@36: ConstI32(52, 1)
@37: Bin { op: Sub, kind: Int, dst: 53, lhs: 50, rhs: 52 }
@38: LdArr { arr: 8, idx: 53, dst: 54 }
@39: Bin { op: Add, kind: Int, dst: 56, lhs: 50, rhs: 52 }
@40: LdArr { arr: 8, idx: 56, dst: 57 }
@41: Bin { op: Sub, kind: Int, dst: 58, lhs: 50, rhs: 10 }
@42: LdArr { arr: 8, idx: 58, dst: 59 }
@43: Bin { op: Add, kind: Int, dst: 60, lhs: 50, rhs: 10 }
@44: LdArr { arr: 8, idx: 60, dst: 61 }
@45: Bin { op: Mul, kind: Int, dst: 62, lhs: 10, rhs: 11 }
@46: Bin { op: Sub, kind: Int, dst: 63, lhs: 50, rhs: 62 }
@47: LdArr { arr: 8, idx: 63, dst: 64 }
@48: Bin { op: Add, kind: Int, dst: 66, lhs: 50, rhs: 62 }
@49: LdArr { arr: 8, idx: 66, dst: 67 }
@50: Bin { op: Mul, kind: Float, dst: 78, lhs: 0, rhs: 51 }
@51: Bin { op: Add, kind: Float, dst: 79, lhs: 54, rhs: 57 }
@52: Bin { op: Add, kind: Float, dst: 80, lhs: 79, rhs: 59 }
@53: Bin { op: Add, kind: Float, dst: 81, lhs: 80, rhs: 61 }
@54: Bin { op: Add, kind: Float, dst: 82, lhs: 81, rhs: 64 }
@55: Bin { op: Add, kind: Float, dst: 83, lhs: 82, rhs: 67 }
@56: Bin { op: Mul, kind: Float, dst: 84, lhs: 1, rhs: 83 }
@57: Bin { op: Add, kind: Float, dst: 68, lhs: 78, rhs: 84 }
@58: StArr { arr: 9, idx: 50, src: 68 }
@59: Ret(None)
";

/// The innermost loop of `f` that loads the most array elements, as
/// text: one instruction a line, each at its offset `@n` in the loop,
/// branch targets inside the loop as offsets and outside it as `exit`. The loop is the range from a
/// backward branch's target to the branch, and holds no other branch
/// but forward exits, so every instruction in it retires once an
/// iteration; the count is returned beside the text.
fn hot_loop(f: &Function) -> (String, usize) {
    let back = |pc: usize, ins: &Instr| match *ins {
        Instr::Jmp(t) | Instr::Br { t, .. } if (t as usize) <= pc => Some(t as usize),
        _ => None,
    };
    let loads = |r: &std::ops::RangeInclusive<usize>| {
        f.code[r.clone()]
            .iter()
            .filter(|i| matches!(i, Instr::LdArr { .. }))
            .count()
    };
    let range = f
        .code
        .iter()
        .enumerate()
        .filter_map(|(pc, ins)| Some(back(pc, ins)?..=pc))
        .filter(|r| (*r.start()..*r.end()).all(|pc| back(pc, &f.code[pc]).is_none()))
        .max_by_key(|r| loads(r))
        .expect("a loop");
    let (start, end) = (*range.start(), *range.end());
    (listing(&f.code[range], start, "exit"), end - start + 1)
}

/// `code`, which starts at pc `start` of its function, as text: one
/// instruction a line, each at its offset `@n`, branch targets inside
/// `code` as offsets and outside it as `outside`.
fn listing(code: &[Instr], start: usize, outside: &str) -> String {
    let at = |t: u32| match (t as usize).checked_sub(start) {
        Some(t) if t < code.len() => format!("@{t}"),
        _ => outside.to_string(),
    };
    let mut text = String::new();
    for (i, ins) in code.iter().enumerate() {
        let line = match *ins {
            Instr::Jmp(t) => format!("Jmp({})", at(t)),
            Instr::Br { cond, t, f } => {
                format!("Br {{ cond: {cond}, t: {}, f: {} }}", at(t), at(f))
            }
            ref other => format!("{other:?}"),
        };
        text.push_str(&format!("@{i}: {line}\n"));
    }
    text
}

fn entry(t: &translator::Translated) -> &Function {
    t.program.func(t.program.entry.expect("an entry"))
}

fn diffusion() -> (String, usize) {
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let runner =
        StencilApp::compose(&mut env, StencilPlatform::Cpu, StencilApp::default_model()).unwrap();
    let args = [8, 8, 8, 2].map(Value::Int);
    let code = env
        .jit(&runner, "invoke", &args, JitOptions::wootinj())
        .unwrap();
    hot_loop(entry(&code.translated))
}

fn fox() -> (String, usize) {
    let table = hpclib::matmul_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let app = MatmulApp::compose(
        &mut env,
        MatmulThread::Mpi,
        MatmulBody::Fox,
        MatmulCalc::Simple,
    )
    .unwrap();
    let code = env
        .jit(&app, "start", &[Value::Int(16)], JitOptions::wootinj())
        .unwrap();
    let p = &code.translated.program;
    let run = p
        .funcs
        .iter()
        .find(|f| f.name.starts_with("FoxAlgorithm_run"))
        .expect("FoxAlgorithm.run is not spliced into its caller");
    hot_loop(run)
}

/// The GPU stencil's kernel, `StencilGPU3D_stepGPU`, whole: its body and
/// its length.
fn stencil_kernel() -> (String, usize) {
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let runner =
        StencilApp::compose(&mut env, StencilPlatform::Gpu, StencilApp::default_model()).unwrap();
    let args = [24, 24, 24, 4].map(Value::Int);
    let code = env
        .jit(&runner, "invoke", &args, JitOptions::wootinj())
        .unwrap();
    let p = &code.translated.program;
    let kernel = p
        .funcs
        .iter()
        .find(|f| f.name.starts_with("StencilGPU3D_stepGPU"))
        .expect("the kernel");
    (listing(&kernel.code, 0, "end"), kernel.code.len())
}

#[test]
fn the_presets_hot_loops_are_pinned() {
    let mut moved = Vec::new();
    // The loops' counts are per iteration; the kernel's, per thread.
    for (name, (text, per_iteration), pinned, pinned_count) in [
        ("diffusion", diffusion(), DIFFUSION, 26),
        ("fox", fox(), FOX, 10),
        ("stencil kernel", stencil_kernel(), STENCIL_KERNEL, 60),
    ] {
        if (text.as_str(), per_iteration) != (pinned, pinned_count) {
            moved.push(format!(
                "{name}: {per_iteration} (pinned {pinned_count})\n{text}"
            ));
        }
    }
    assert!(moved.is_empty(), "hot loops moved:\n{}", moved.join("\n"));
}
