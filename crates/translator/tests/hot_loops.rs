//! The WootinJ preset's hot inner loops, pinned as NIR text: the 3-D
//! diffusion update (Fig 17, `stencil-flat`) and the Fox multiply-add
//! (Fig 18, `fox-ranks`), with the instructions each retires per
//! iteration. `compile_path_output_is_pinned` only shows that a program
//! moved; a lost hoist, an undone rotation or a missed common
//! subexpression shows here as a line of text.

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
    let at = |t: u32| {
        let t = t as usize;
        if (start..=end).contains(&t) {
            format!("@{}", t - start)
        } else {
            "exit".to_string()
        }
    };
    let mut text = String::new();
    for (i, ins) in f.code[range].iter().enumerate() {
        let line = match *ins {
            Instr::Jmp(t) => format!("Jmp({})", at(t)),
            Instr::Br { cond, t, f } => {
                format!("Br {{ cond: {cond}, t: {}, f: {} }}", at(t), at(f))
            }
            ref other => format!("{other:?}"),
        };
        text.push_str(&format!("@{i}: {line}\n"));
    }
    (text, end - start + 1)
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

#[test]
fn the_presets_hot_loops_are_pinned() {
    let mut moved = Vec::new();
    for (name, (text, per_iteration), pinned, pinned_count) in [
        ("diffusion", diffusion(), DIFFUSION, 26),
        ("fox", fox(), FOX, 10),
    ] {
        if (text.as_str(), per_iteration) != (pinned, pinned_count) {
            moved.push(format!(
                "{name}: {per_iteration} per iteration (pinned {pinned_count})\n{text}"
            ));
        }
    }
    assert!(moved.is_empty(), "hot loops moved:\n{}", moved.join("\n"));
}
