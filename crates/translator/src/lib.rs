//! # translator — the WootinJ JIT: Java-subset → flat native IR
//!
//! This crate is the paper's primary contribution rebuilt in Rust. Given a
//! typed class table, a *live* receiver object (composed in the `jvm`
//! interpreter's heap, exactly like the untranslated Java side of a
//! WootinJ application), an entry method, and the actual argument values,
//! it produces a NIR program in one of three configurations:
//!
//! | mode | paper series | dispatch | objects |
//! |---|---|---|---|
//! | [`Mode::Full`]    | *WootinJ*  | devirtualized + specialized | inlined into registers |
//! | [`Mode::Devirt`]  | *Template* | devirtualized + specialized | heap + field indirection |
//! | [`Mode::Virtual`] | *C++*      | vtable dispatch             | heap + field indirection |
//!
//! The hand-written *C* baselines are flat `@WootinJ` classes
//! (`bench::cprogs`) translated in [`Mode::Full`], and the *Java* series
//! is the `jvm` interpreter. Every translation also renders as C
//! ([`Translated::c_source`]); `crates/bench/tests/emitted_c.rs` compiles
//! that C and runs it against `exec`, not only prints it.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod incr;
pub mod lower;
pub mod shape;
pub mod sheval;
pub mod virt;
pub(crate) mod walk;

use jlang::table::ClassTable;
use jlang::types::ClassId;
use jvm::{ArrayData, Jvm, Value};
use nir::{FuncId, OptConfig, Program};

pub use artifact::CacheKey;
pub use incr::{BodyRef, CalleeEdge, FnMemo, FnRec, MemberRef, ReplayState, TraceState};
pub use lower::{Lowerer, TransStats};
pub use shape::{leaf_paths, shape_of_value, LeafPath, Shape, TransError};
pub use sheval::SpecKey;

pub type TResult<T> = Result<T, TransError>;

/// Translation mode (see the crate docs for the paper-series mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Vtable dispatch, heap objects (*C++*).
    Virtual,
    /// Devirtualized + specialized, heap objects (*Template*).
    Devirt,
    /// Devirtualized + specialized + object inlining (*WootinJ*).
    Full,
}

/// Translator configuration. `Eq`/`Hash` make it usable as part of a
/// code-cache key: every field changes what translation emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransConfig {
    pub mode: Mode,
    /// NIR optimizer setting — the Table 1/2 analogue. `aggressive()`
    /// (function inlining) models the paper's *Template w/o virt.*.
    pub opt: OptConfig,
    /// Enforce the eight coding rules before translating (the paper's
    /// `@WootinJ` contract). On by default.
    pub check_rules: bool,
}

impl TransConfig {
    pub fn full() -> Self {
        TransConfig {
            mode: Mode::Full,
            opt: OptConfig::standard(),
            check_rules: true,
        }
    }

    pub fn devirt() -> Self {
        TransConfig {
            mode: Mode::Devirt,
            opt: OptConfig::standard(),
            check_rules: true,
        }
    }

    pub fn virtual_dispatch() -> Self {
        TransConfig {
            mode: Mode::Virtual,
            opt: OptConfig::standard(),
            check_rules: false,
        }
    }

    /// *Template w/o virt.*: full pipeline plus NIR function inlining.
    pub fn template_no_virt() -> Self {
        TransConfig {
            mode: Mode::Full,
            opt: OptConfig::aggressive(),
            check_rules: true,
        }
    }
}

/// How to build each NIR entry parameter from the live jvm values.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// A leaf of the (flattened) receiver, addressed by field-slot path.
    RecvLeaf { path: Vec<u32> },
    /// A leaf of flattened argument `arg`.
    ArgLeaf { arg: usize, path: Vec<u32> },
    /// The whole receiver, materialized as a heap object.
    RecvObj,
    /// Argument `arg` as a single value (prim / array / heap object).
    ArgWhole(usize),
}

/// The output of translation.
#[derive(Debug)]
pub struct Translated {
    pub program: Program,
    pub entry: FuncId,
    pub bindings: Vec<Binding>,
    pub mode: Mode,
    pub stats: TransStats,
    pub uses_mpi: bool,
    pub uses_gpu: bool,
    /// Virtual-mode impls skipped because they cannot compile on this
    /// path (kept for diagnostics).
    pub warnings: Vec<String>,
}

impl Translated {
    /// Render the Listing-5-style C/CUDA source for this program.
    pub fn c_source(&self) -> String {
        nir::emit_c(&self.program)
    }
}

/// The canonical specialization identity of an entry invocation: every
/// piece of the *live object graph* that translation reads. Two calls
/// with equal `EntrySpec` and equal [`TransConfig`] (plus an identical
/// host-FFI registry) translate to identical programs, which is what
/// makes it the key of the `wootinj` JIT code cache.
///
/// It is derived from the same exact-type analysis that drives
/// devirtualization, so two structurally identical object graphs —
/// differing only in field *values* — map to the same spec.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EntrySpec {
    /// Devirt/Full modes specialize on the deep shape (exact dynamic
    /// type tuple) of the receiver and argument object graphs.
    Shaped(SpecKey),
    /// Virtual mode compiles the whole class closure from static types
    /// and reads no shapes (so it also tolerates nulls and object arrays
    /// in the live graph); only the resolved entry and arity matter.
    Opaque {
        class: ClassId,
        method: u32,
        arity: usize,
    },
}

/// Extract the [`EntrySpec`] for `recv.method(args)` without translating
/// anything — the pure key-derivation half of [`translate`].
pub fn entry_spec(
    table: &ClassTable,
    jvm: &Jvm<'_>,
    recv: &Value,
    method: &str,
    args: &[Value],
    mode: Mode,
) -> TResult<EntrySpec> {
    let recv_class = jvm
        .runtime_class(recv)
        .map_err(|e| TransError::new(format!("entry receiver: {}", e.message)))?;
    let (ic, im) = table.resolve_impl(recv_class, method).ok_or_else(|| {
        TransError::new(format!(
            "no implementation of `{method}` on `{}`",
            table.name(recv_class)
        ))
    })?;
    Ok(match mode {
        Mode::Virtual => EntrySpec::Opaque {
            class: ic,
            method: im,
            arity: args.len(),
        },
        Mode::Devirt | Mode::Full => {
            let recv_shape = shape_of_value(jvm, recv)?;
            let arg_shapes: Vec<Shape> = args
                .iter()
                .map(|a| shape_of_value(jvm, a))
                .collect::<TResult<_>>()?;
            EntrySpec::Shaped(SpecKey {
                class: ic,
                method: im,
                recv: Some(recv_shape),
                args: arg_shapes,
            })
        }
    })
}

/// Translate `recv.method(args)` — the reproduction of `WootinJ.jit`.
///
/// A shaped (Devirt/Full) entry is optimized function by function as
/// the lowerer adds it, the schedule the incremental query layer uses
/// too; Virtual mode lowers the whole class closure, then runs
/// [`nir::optimize`] over it.
pub fn translate(
    table: &ClassTable,
    jvm: &Jvm<'_>,
    recv: &Value,
    method: &str,
    args: &[Value],
    config: TransConfig,
) -> TResult<Translated> {
    if config.check_rules {
        check_entry_class(table, jvm, recv)?;
        let report = jrules::check_program(table);
        if !report.is_ok() {
            return Err(TransError::new(format!(
                "coding-rule violations:\n{}",
                report.render()
            )));
        }
    }

    match entry_spec(table, jvm, recv, method, args, config.mode)? {
        EntrySpec::Opaque {
            class: ic,
            method: im,
            ..
        } => {
            let mut vl = virt::VirtLowerer::new(table);
            let entry = vl.compile_entry(ic, im)?;
            let mut bindings = Vec::new();
            if !table.method(ic, im).is_static {
                bindings.push(Binding::RecvObj);
            }
            for i in 0..args.len() {
                bindings.push(Binding::ArgWhole(i));
            }
            let warnings = vl
                .skipped
                .iter()
                .map(|(what, why)| format!("skipped `{what}`: {why}"))
                .collect();
            vl.stats.passes = nir::optimize(&mut vl.program, config.opt);
            finish(
                vl.program,
                entry,
                bindings,
                vl.stats,
                config.mode,
                warnings,
                &[],
            )
        }
        EntrySpec::Shaped(key) => {
            let mut lw = Lowerer::new(table, config.mode == Mode::Full, config.opt);
            let entry = lower_entry(&mut lw, &key)?;
            finish_shaped(lw, entry, &key, args.len(), &[])
        }
    }
}

/// The `@WootinJ` entry contract: the receiver's runtime class must
/// carry the annotation. Checked whenever
/// [`TransConfig::check_rules`] is set.
pub fn check_entry_class(table: &ClassTable, jvm: &Jvm<'_>, recv: &Value) -> TResult<()> {
    let recv_class = jvm
        .runtime_class(recv)
        .map_err(|e| TransError::new(format!("entry receiver: {}", e.message)))?;
    let info = table.class(recv_class);
    if !info.has_annotation("WootinJ") {
        return Err(TransError::new(format!(
            "entry class `{}` is not annotated @WootinJ",
            info.name
        )));
    }
    Ok(())
}

/// Lower a shaped entry through `lw`, which optimizes each function as
/// it adds it. The entry must return void or a scalar: a composite
/// return has no function to call.
pub fn lower_entry(lw: &mut Lowerer<'_>, key: &SpecKey) -> TResult<FuncId> {
    match lw.lower_fn(key, nir::FuncKind::Host)? {
        lower::SpecResult::Func { id, .. } => Ok(id),
        lower::SpecResult::InlineOnly { .. } => Err(TransError::new(
            "the entry method returns a composite object; return void or a scalar",
        )),
    }
}

/// Finish a shaped translation from its lowerer: merge the pass
/// profiles, verify the program, and bind the entry's parameters.
/// [`translate`] and the incremental query layer both end here, so both
/// derive identical [`Translated`] artifacts. `replayed` names the
/// functions served from memos, which were verified when they were first
/// produced: only their calls, host calls and launches are checked again
/// ([`Program::verify_with_replayed`]).
pub fn finish_shaped(
    lw: Lowerer<'_>,
    entry: FuncId,
    key: &SpecKey,
    nargs: usize,
    replayed: &[FuncId],
) -> TResult<Translated> {
    let flatten = lw.flatten_objects;
    let mut stats = lw.stats;
    stats.passes = nir::merge_profiles(std::mem::take(&mut stats.passes));
    let bindings = shaped_bindings(key, flatten, nargs);
    let mode = if flatten { Mode::Full } else { Mode::Devirt };
    finish(
        lw.program,
        entry,
        bindings,
        stats,
        mode,
        Vec::new(),
        replayed,
    )
}

/// Verify an optimized program (of `replayed`, only the call edges), and
/// note the platforms it uses.
fn finish(
    mut program: Program,
    entry: FuncId,
    bindings: Vec<Binding>,
    stats: TransStats,
    mode: Mode,
    warnings: Vec<String>,
    replayed: &[FuncId],
) -> TResult<Translated> {
    program.entry = Some(entry);
    program.verify_with_replayed(replayed).map_err(|e| {
        // Either a translator bug, or a source local read before it is
        // assigned on some path (javac's definite-assignment error).
        TransError::new(format!("generated program does not verify: {e}"))
    })?;
    let (uses_mpi, uses_gpu) = program.uses();
    Ok(Translated {
        program,
        entry,
        bindings,
        mode,
        stats,
        uses_mpi,
        uses_gpu,
        warnings,
    })
}

/// Entry-argument bindings for a shape-specialized entry: per-leaf in
/// flattened (Full) mode, whole-value in heap (Devirt) mode.
fn shaped_bindings(key: &SpecKey, flatten: bool, nargs: usize) -> Vec<Binding> {
    let mut bindings = Vec::new();
    if flatten {
        if let Some(recv_shape) = &key.recv {
            for leaf in leaf_paths(recv_shape) {
                bindings.push(Binding::RecvLeaf { path: leaf.path });
            }
        }
        for (i, s) in key.args.iter().enumerate() {
            for leaf in leaf_paths(s) {
                bindings.push(Binding::ArgLeaf {
                    arg: i,
                    path: leaf.path,
                });
            }
        }
    } else {
        bindings.push(Binding::RecvObj);
        for i in 0..nargs {
            bindings.push(Binding::ArgWhole(i));
        }
    }
    bindings
}

/// Build the entry argument vector for the translated program from live
/// jvm values, deep-copying arrays (and, in heap modes, object graphs)
/// into the target machine — the paper's "arguments are deeply copied
/// from the Java memory space" semantics.
pub fn bind_entry_args(
    jvm: &Jvm<'_>,
    recv: &Value,
    args: &[Value],
    bindings: &[Binding],
    machine: &mut exec::Machine,
) -> TResult<Vec<exec::Val>> {
    let mut out = Vec::with_capacity(bindings.len());
    for b in bindings {
        match b {
            Binding::RecvLeaf { path } => out.push(leaf_val(jvm, recv, path, machine)?),
            Binding::ArgLeaf { arg, path } => {
                let v = args
                    .get(*arg)
                    .ok_or_else(|| TransError::new("missing entry argument"))?;
                out.push(leaf_val(jvm, v, path, machine)?);
            }
            Binding::RecvObj => out.push(materialize(jvm, recv, machine)?),
            Binding::ArgWhole(i) => {
                let v = args
                    .get(*i)
                    .ok_or_else(|| TransError::new("missing entry argument"))?;
                out.push(materialize(jvm, v, machine)?);
            }
        }
    }
    Ok(out)
}

fn leaf_val(
    jvm: &Jvm<'_>,
    root: &Value,
    path: &[u32],
    machine: &mut exec::Machine,
) -> TResult<exec::Val> {
    let mut cur = root.clone();
    for slot in path {
        let r = cur
            .as_obj()
            .map_err(|m| TransError::new(format!("leaf path through non-object: {m}")))?;
        cur = jvm.heap.obj(r).fields[*slot as usize].clone();
    }
    materialize(jvm, &cur, machine)
}

/// Deep-copy a jvm value into the machine (arrays copied; objects
/// recursively materialized into the machine's object heap).
pub fn materialize(jvm: &Jvm<'_>, v: &Value, machine: &mut exec::Machine) -> TResult<exec::Val> {
    Ok(match v {
        Value::Int(x) => exec::Val::I32(*x),
        Value::Long(x) => exec::Val::I64(*x),
        Value::Float(x) => exec::Val::F32(*x),
        Value::Double(x) => exec::Val::F64(*x),
        Value::Bool(x) => exec::Val::Bool(*x),
        Value::Arr(r) => {
            let store = match jvm.heap.arr(*r) {
                ArrayData::I32(d) => exec::ArrStore::I32(d.clone()),
                ArrayData::I64(d) => exec::ArrStore::I64(d.clone()),
                ArrayData::F32(d) => exec::ArrStore::F32(d.clone()),
                ArrayData::F64(d) => exec::ArrStore::F64(d.clone()),
                ArrayData::Bool(d) => exec::ArrStore::Bool(d.clone()),
                ArrayData::Ref(_) => {
                    return Err(TransError::new("object arrays cannot be materialized"))
                }
            };
            exec::Val::Arr(machine.mem.alloc(store))
        }
        Value::Obj(r) => {
            let obj = jvm.heap.obj(*r);
            let h = machine.objs.alloc(obj.class.0, obj.fields.len());
            for (slot, fv) in obj.fields.clone().iter().enumerate() {
                let mv = materialize(jvm, fv, machine)?;
                machine
                    .objs
                    .set(h, slot as u32, mv)
                    .map_err(|e| TransError::new(e.to_string()))?;
            }
            exec::Val::Obj(h)
        }
        other => return Err(TransError::new(format!("cannot materialize {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec::{run_to_completion, Machine, Val};
    use jlang::compile_str;
    use nir::Instr;

    const APP: &str = "
        @WootinJ interface Solver { float solve(float self, int index); }
        @WootinJ final class PhysSolver implements Solver {
          float a; float b;
          PhysSolver(float a0, float b0) { a = a0; b = b0; }
          float solve(float self, int index) { return a * self + b * index; }
        }
        @WootinJ final class App {
          Solver solver;
          App(Solver s) { solver = s; }
          float run(float[] data, int steps) {
            for (int t = 0; t < steps; t++) {
              for (int i = 0; i < data.length; i++) {
                data[i] = solver.solve(data[i], i);
              }
            }
            float sum = 0f;
            for (int i = 0; i < data.length; i++) { sum += data[i]; }
            return sum;
          }
        }";

    fn run_translated(mode: Mode, opt: OptConfig) -> (f32, Translated, Machine) {
        let table = compile_str(APP).unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let solver = jvm
            .new_instance("PhysSolver", &[Value::Float(0.5), Value::Float(0.25)])
            .unwrap();
        let app = jvm.new_instance("App", &[solver]).unwrap();
        let data = jvm.new_f32_array(&[1.0, 2.0, 3.0, 4.0]);
        let args = [data, Value::Int(3)];
        let t = translate(
            &table,
            &jvm,
            &app,
            "run",
            &args,
            TransConfig {
                mode,
                opt,
                check_rules: true,
            },
        )
        .unwrap();
        let mut machine = Machine::with_globals(&t.program);
        let vals = bind_entry_args(&jvm, &app, &args, &t.bindings, &mut machine).unwrap();
        let out = run_to_completion(&t.program, t.entry, vals, &mut machine).unwrap();
        match out {
            Some(Val::F32(v)) => (v, t, machine),
            other => panic!("unexpected result {other:?}"),
        }
    }

    fn jvm_reference() -> f32 {
        let table = compile_str(APP).unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let solver = jvm
            .new_instance("PhysSolver", &[Value::Float(0.5), Value::Float(0.25)])
            .unwrap();
        let app = jvm.new_instance("App", &[solver]).unwrap();
        let data = jvm.new_f32_array(&[1.0, 2.0, 3.0, 4.0]);
        match jvm.call(&app, "run", &[data, Value::Int(3)]).unwrap() {
            Value::Float(v) => v,
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn full_mode_matches_interpreter() {
        let expected = jvm_reference();
        let (got, t, _) = run_translated(Mode::Full, OptConfig::standard());
        assert_eq!(got, expected);
        assert!(t.stats.devirtualized_calls > 0);
    }

    #[test]
    fn devirt_mode_matches_interpreter() {
        let expected = jvm_reference();
        let (got, _, _) = run_translated(Mode::Devirt, OptConfig::standard());
        assert_eq!(got, expected);
    }

    #[test]
    fn virtual_mode_matches_interpreter() {
        let expected = jvm_reference();
        let (got, t, _) = run_translated(Mode::Virtual, OptConfig::standard());
        assert_eq!(got, expected);
        assert!(t.stats.virtual_calls > 0);
    }

    #[test]
    fn template_no_virt_matches_interpreter() {
        let expected = jvm_reference();
        let (got, _, _) = run_translated(Mode::Full, OptConfig::aggressive());
        assert_eq!(got, expected);
    }

    #[test]
    fn full_mode_erases_objects() {
        let (_, t, _) = run_translated(Mode::Full, OptConfig::standard());
        for f in &t.program.funcs {
            for ins in &f.code {
                assert!(
                    !matches!(
                        ins,
                        Instr::GetField { .. }
                            | Instr::PutField { .. }
                            | Instr::NewObj { .. }
                            | Instr::CallVirt { .. }
                    ),
                    "object operation survived object inlining: {ins:?} in {}",
                    f.name
                );
            }
        }
    }

    #[test]
    fn devirt_keeps_heap_but_no_virtual_calls() {
        let (_, t, _) = run_translated(Mode::Devirt, OptConfig::standard());
        let mut has_field = false;
        for f in &t.program.funcs {
            for ins in &f.code {
                assert!(
                    !matches!(ins, Instr::CallVirt { .. }),
                    "virtual call survived devirt"
                );
                if matches!(ins, Instr::GetField { .. }) {
                    has_field = true;
                }
            }
        }
        assert!(has_field, "Template mode should keep field indirection");
    }

    #[test]
    fn virtual_mode_keeps_vtable_dispatch() {
        let (_, t, _) = run_translated(Mode::Virtual, OptConfig::standard());
        let mut has_virt = false;
        for f in &t.program.funcs {
            for ins in &f.code {
                if matches!(ins, Instr::CallVirt { .. }) {
                    has_virt = true;
                }
            }
        }
        assert!(has_virt);
    }

    #[test]
    fn cycle_costs_rank_correctly_across_modes() {
        // The deterministic cycle counters must order Full < Devirt < Virtual
        // for identical workloads — that ordering *is* Figure 3.
        let (_, _, m_full) = run_translated(Mode::Full, OptConfig::standard());
        let (_, _, m_dev) = run_translated(Mode::Devirt, OptConfig::standard());
        let (_, _, m_virt) = run_translated(Mode::Virtual, OptConfig::standard());
        assert!(
            m_full.counters.cycles < m_dev.counters.cycles,
            "full {} !< devirt {}",
            m_full.counters.cycles,
            m_dev.counters.cycles
        );
        assert!(
            m_dev.counters.cycles < m_virt.counters.cycles,
            "devirt {} !< virtual {}",
            m_dev.counters.cycles,
            m_virt.counters.cycles
        );
    }

    #[test]
    fn multi_leaf_object_returns_are_inlined() {
        let src = "
            @WootinJ final class Pair { float x; float y; Pair(float a, float b) { x = a; y = b; } }
            @WootinJ final class M {
              M() { }
              Pair mk(float a) { return new Pair(a, a * 2f); }
              float run(float a) { Pair p = mk(a); return p.x + p.y; }
            }";
        let table = compile_str(src).unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let m = jvm.new_instance("M", &[]).unwrap();
        let t = translate(
            &table,
            &jvm,
            &m,
            "run",
            &[Value::Float(3.0)],
            TransConfig::full(),
        )
        .unwrap();
        assert!(t.stats.inlined_calls > 0);
        let mut machine = Machine::with_globals(&t.program);
        let vals =
            bind_entry_args(&jvm, &m, &[Value::Float(3.0)], &t.bindings, &mut machine).unwrap();
        let out = run_to_completion(&t.program, t.entry, vals, &mut machine).unwrap();
        assert_eq!(out, Some(Val::F32(9.0)));
    }

    #[test]
    fn rules_violations_block_translation() {
        let src = "
            @WootinJ final class Bad {
              int counter;
              Bad() { counter = 0; }
              void run(int n) { counter = counter + n; }
            }";
        let table = compile_str(src).unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let bad = jvm.new_instance("Bad", &[]).unwrap();
        let err = translate(
            &table,
            &jvm,
            &bad,
            "run",
            &[Value::Int(1)],
            TransConfig::full(),
        )
        .unwrap_err();
        assert!(err.message.contains("coding-rule"), "{err}");
    }

    #[test]
    fn missing_wootinj_annotation_blocks_translation() {
        let src = "final class Plain { Plain() { } void run() { } }";
        let table = compile_str(src).unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let p = jvm.new_instance("Plain", &[]).unwrap();
        let err = translate(&table, &jvm, &p, "run", &[], TransConfig::full()).unwrap_err();
        assert!(err.message.contains("@WootinJ"), "{err}");
    }

    #[test]
    fn generated_c_source_shows_devirtualized_calls() {
        let (_, t, _) = run_translated(Mode::Full, OptConfig::standard());
        let src = t.c_source();
        // A specialized, devirtualized solve function exists and is
        // called directly.
        assert!(src.contains("PhysSolver_solve"), "{src}");
        assert!(!src.contains("VCALL"), "{src}");
    }

    #[test]
    fn generic_library_translates() {
        let src = "
            @WootinJ interface Ctx { }
            @WootinJ final class MyCtx implements Ctx { float k; MyCtx(float k0) { k = k0; } float k() { return k; } }
            @WootinJ final class Holder<T extends Ctx> { T ctx; Holder(T c) { ctx = c; } T get() { return ctx; } }
            @WootinJ final class G {
              Holder<MyCtx> h;
              G(Holder<MyCtx> h0) { h = h0; }
              float run(float x) { return h.get().k() * x; }
            }";
        let table = compile_str(src).unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let ctx = jvm.new_instance("MyCtx", &[Value::Float(4.0)]).unwrap();
        let holder = jvm.new_instance("Holder", &[ctx]).unwrap();
        let g = jvm.new_instance("G", &[holder]).unwrap();
        let t = translate(
            &table,
            &jvm,
            &g,
            "run",
            &[Value::Float(2.5)],
            TransConfig::full(),
        )
        .unwrap();
        let mut machine = Machine::with_globals(&t.program);
        let vals =
            bind_entry_args(&jvm, &g, &[Value::Float(2.5)], &t.bindings, &mut machine).unwrap();
        let out = run_to_completion(&t.program, t.entry, vals, &mut machine).unwrap();
        assert_eq!(out, Some(Val::F32(10.0)));
    }

    #[test]
    fn different_shapes_produce_different_specializations() {
        let src = "
            @WootinJ interface Op { float f(float x); }
            @WootinJ final class Dbl implements Op { Dbl() { } float f(float x) { return x * 2f; } }
            @WootinJ final class Sqr implements Op { Sqr() { } float f(float x) { return x * x; } }
            @WootinJ final class TwoOps {
              Op a; Op b;
              TwoOps(Op a0, Op b0) { a = a0; b = b0; }
              float run(float x) { return a.f(x) + b.f(x); }
            }";
        let table = compile_str(src).unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let d = jvm.new_instance("Dbl", &[]).unwrap();
        let s = jvm.new_instance("Sqr", &[]).unwrap();
        let two = jvm.new_instance("TwoOps", &[d, s]).unwrap();
        let t = translate(
            &table,
            &jvm,
            &two,
            "run",
            &[Value::Float(3.0)],
            TransConfig::full(),
        )
        .unwrap();
        // run + Dbl::f + Sqr::f
        assert!(t.stats.specializations >= 3, "{:?}", t.stats);
        let mut machine = Machine::with_globals(&t.program);
        let vals =
            bind_entry_args(&jvm, &two, &[Value::Float(3.0)], &t.bindings, &mut machine).unwrap();
        let out = run_to_completion(&t.program, t.entry, vals, &mut machine).unwrap();
        assert_eq!(out, Some(Val::F32(15.0)));
    }

    #[test]
    fn constructor_inlining_inside_translated_code() {
        let src = "
            @WootinJ final class Acc { float v; Acc(float v0) { v = v0; } float val() { return v; } }
            @WootinJ final class K {
              K() { }
              float run(int n) {
                float s = 0f;
                for (int i = 0; i < n; i++) {
                  Acc a = new Acc(s + i);
                  s = a.val();
                }
                return s;
              }
            }";
        let table = compile_str(src).unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let k = jvm.new_instance("K", &[]).unwrap();
        let t = translate(
            &table,
            &jvm,
            &k,
            "run",
            &[Value::Int(5)],
            TransConfig::full(),
        )
        .unwrap();
        assert!(t.stats.inlined_ctors > 0);
        let mut machine = Machine::with_globals(&t.program);
        let vals = bind_entry_args(&jvm, &k, &[Value::Int(5)], &t.bindings, &mut machine).unwrap();
        let out = run_to_completion(&t.program, t.entry, vals, &mut machine).unwrap();
        // Differential check against the interpreter.
        let expected = match jvm.call(&k, "run", &[Value::Int(5)]).unwrap() {
            Value::Float(v) => v,
            other => panic!("unexpected {other}"),
        };
        assert_eq!(out, Some(Val::F32(expected)));
        assert_eq!(expected, 10.0);
    }
}
