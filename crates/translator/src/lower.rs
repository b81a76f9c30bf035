//! Code generation for the shape-specialized modes.
//!
//! * **Full** (the WootinJ pipeline): every dynamic dispatch is resolved
//!   from shapes (devirtualization), one function is generated per
//!   (method, receiver shape, argument shapes) tuple (specialization), and
//!   every object is erased into its primitive/array leaves (object
//!   inlining). Constructors are inlined at `new` sites.
//! * **Devirt** (the paper's *Template* baseline): identical shape
//!   analysis and direct calls, but objects stay on the heap and field
//!   accesses remain indirections — devirtualization *without* object
//!   inlining.
//!
//! Kernels (`@Global`) are always lowered flattened, whatever the host
//! mode: CUDA kernel arguments are by-value scalars and device-array
//! handles, mirroring both the paper's generated code (Listing 5) and the
//! real CUDA ABI.

use std::collections::HashMap;
use std::sync::Arc;

use jlang::table::ClassTable;
use jlang::tast::{FieldSel, MethodSel, TArgs, TBody, TExpr, TExprId};
use jlang::types::{ClassId, Type};
use nir::{
    ConstVal, ElemTy, FuncBuilder, FuncId, FuncKind, Instr, Intrinsic, Label, Program, Reg, Ty,
};

use crate::incr;
use crate::shape::{Shape, TransError};
use crate::sheval::{
    call_target, check_cast, field_shape, frame_field, native_return_shape, same_shape,
    unassigned_field, uninit_local, ShapeEval, SpecKey,
};
use crate::walk::{self, Frame, Lower};
use crate::TResult;

/// Translation statistics (reported by Table 3 and the ablation benches).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TransStats {
    pub specializations: u32,
    pub devirtualized_calls: u32,
    pub virtual_calls: u32,
    pub inlined_ctors: u32,
    pub inlined_calls: u32,
    pub kernels: u32,
    /// Per-pass wall time + instruction counts of the NIR optimizer as it
    /// ran in *this* process's translation — the pass-level decomposition
    /// of Table 3's compile-time column. In memory only: an artifact does
    /// not carry it, so a decoded one (a disk hit, a broadcast) has none.
    pub passes: Vec<nir::PassProfile>,
}

/// How a specialization is made available to call sites.
#[derive(Debug, Clone)]
pub enum SpecResult {
    Func {
        id: FuncId,
        ret: Option<Shape>,
    },
    /// Flattened mode only: the return value has ≠1 leaves, so the callee
    /// is spliced into each call site instead of being a function.
    InlineOnly {
        ret: Option<Shape>,
    },
}

/// A lowering-time value: its exact shape plus its register
/// representation. In flattened contexts `regs` holds one register per
/// leaf; in heap contexts objects occupy a single `Ty::Obj` register.
#[derive(Debug, Clone)]
pub struct Opnd {
    pub shape: Shape,
    pub regs: Vec<Reg>,
}

impl Opnd {
    fn single(&self) -> TResult<Reg> {
        if self.regs.len() == 1 {
            Ok(self.regs[0])
        } else {
            Err(TransError::new(format!(
                "expected single-register value, found {} registers",
                self.regs.len()
            )))
        }
    }
}

/// Per-function lowering context: the body walk's frame and what the
/// shaped modes add to it.
pub struct FnCtx {
    frame: Frame<Opnd>,
    /// The field frame of the constructor chain being run inline
    /// (absolute slot -> value once assigned), installed by `lower_new`
    /// for the whole chain.
    ctor_fields: Option<Vec<Option<Opnd>>>,
    pub flatten: bool,
    device: bool,
    ret: RetMode,
}

impl FnCtx {
    fn new(frame: Frame<Opnd>, flatten: bool, device: bool) -> Self {
        FnCtx {
            frame,
            ctor_fields: None,
            flatten,
            device,
            ret: RetMode::Function,
        }
    }
}

enum RetMode {
    Function,
    Inline { dest: Vec<Reg>, end: Label },
}

pub struct Lowerer<'t> {
    pub table: &'t ClassTable,
    pub program: Program,
    pub sheval: ShapeEval<'t>,
    pub flatten_objects: bool,
    specs: HashMap<(SpecKey, bool), SpecResult>,
    kernel_specs: HashMap<SpecKey, FuncId>,
    spec_stack: Vec<(SpecKey, bool)>,
    inline_stack: Vec<SpecKey>,
    pub stats: TransStats,
    /// Dependency-trace collector for the incremental query layer
    /// (`None` in the classic whole-program path — zero overhead).
    pub trace: Option<incr::TraceState>,
    /// Validated memos to replay instead of re-lowering.
    pub replay: Option<incr::ReplayState>,
    replay_stack: Vec<(SpecKey, bool, bool)>,
    /// The optimizer each fresh function runs as it is added. Its
    /// callees come first and are final by then, so a replay can check
    /// every splice decision its memo made; `stats.passes` collects what
    /// the optimizer cost.
    opt: nir::OptConfig,
}

impl<'t> Lowerer<'t> {
    pub fn new(table: &'t ClassTable, flatten_objects: bool, opt: nir::OptConfig) -> Self {
        let mut program = Program::default();
        // Class metadata mirrors the jlang table 1:1 so that `NewObj` in
        // heap mode can index by ClassId.
        for info in table.iter() {
            program.classes.push(nir::ClassMeta {
                name: info.name.clone(),
                field_count: info.instance_size(),
                vtable: Vec::new(),
            });
        }
        collect_globals(table, &mut program);
        Lowerer {
            table,
            program,
            sheval: ShapeEval::new(table),
            flatten_objects,
            specs: HashMap::new(),
            kernel_specs: HashMap::new(),
            spec_stack: Vec::new(),
            inline_stack: Vec::new(),
            stats: TransStats::default(),
            trace: None,
            replay: None,
            replay_stack: Vec::new(),
            opt,
        }
    }

    /// Add a freshly lowered function and optimize it against the final
    /// functions before it.
    fn add_fresh(&mut self, f: nir::Function) -> FuncId {
        let id = self.program.add_func(f);
        let (done, rest) = self.program.funcs.split_at_mut(id.0 as usize);
        let profile = nir::optimize_fn(Arc::make_mut(&mut rest[0]), done, self.opt);
        self.stats.passes.extend(profile);
        id
    }

    // ------------------------------------------------------------------
    // Incremental trace & replay (see `crate::incr`)
    // ------------------------------------------------------------------

    fn stats6(&self) -> incr::StatsDelta {
        [
            self.stats.specializations,
            self.stats.devirtualized_calls,
            self.stats.virtual_calls,
            self.stats.inlined_ctors,
            self.stats.inlined_calls,
            self.stats.kernels,
        ]
    }

    fn add_stats6(&mut self, d: incr::StatsDelta) {
        self.stats.specializations += d[0];
        self.stats.devirtualized_calls += d[1];
        self.stats.virtual_calls += d[2];
        self.stats.inlined_ctors += d[3];
        self.stats.inlined_calls += d[4];
        self.stats.kernels += d[5];
    }

    fn trace_push(&mut self, key: &SpecKey, device: bool, kernel: bool) {
        let base = self.stats6();
        if let Some(tr) = &mut self.trace {
            tr.frames.push(incr::Frame {
                key: key.clone(),
                device,
                kernel,
                callees: Vec::new(),
                bodies: Vec::new(),
                base,
                child: [0; 6],
            });
        }
    }

    /// Complete the innermost frame into a harvestable record.
    fn trace_pop_fresh(&mut self, id: FuncId, ret: &Option<Shape>) {
        let now = self.stats6();
        if let Some(tr) = &mut self.trace {
            // Every pop closes the frame its specialization pushed.
            let fr = tr.frames.pop().expect("trace frame underflow");
            let incl = incr::sub6(now, fr.base);
            if let Some(p) = tr.frames.last_mut() {
                p.child = incr::add6(p.child, incl);
            }
            let excl = incr::sub6(incl, fr.child);
            tr.recs.push(incr::FnRec {
                key: fr.key,
                device: fr.device,
                kernel: fr.kernel,
                id,
                ret: ret.clone(),
                callees: fr.callees,
                bodies: fr.bodies,
                excl,
            });
        }
    }

    /// Drop the innermost frame (replayed or failed specialization),
    /// still propagating its inclusive delta to the parent so exclusive
    /// attribution stays exact.
    fn trace_pop_discard(&mut self) {
        let now = self.stats6();
        if let Some(tr) = &mut self.trace {
            // Every pop closes the frame its specialization pushed.
            let fr = tr.frames.pop().expect("trace frame underflow");
            let incl = incr::sub6(now, fr.base);
            if let Some(p) = tr.frames.last_mut() {
                p.child = incr::add6(p.child, incl);
            }
        }
    }

    /// Record a call edge into the innermost open frame.
    fn trace_edge(&mut self, key: &SpecKey, device: bool, kernel: bool, expect: FuncId) {
        if let Some(tr) = &mut self.trace {
            if let Some(fr) = tr.frames.last_mut() {
                fr.callees.push(incr::CalleeEdge {
                    key: key.clone(),
                    device,
                    kernel,
                    expect,
                });
            }
        }
    }

    /// Record a typed-body read into the innermost open frame.
    fn trace_body(&mut self, class: ClassId, member: incr::MemberRef) {
        if let Some(tr) = &mut self.trace {
            if let Some(fr) = tr.frames.last_mut() {
                let r = incr::BodyRef { class, member };
                if !fr.bodies.contains(&r) {
                    fr.bodies.push(r);
                }
            }
        }
    }

    /// Attempt to serve `key` from a validated memo. On success the
    /// memoized function is injected at its recorded id; on any drift
    /// the attempt unwinds and the caller lowers freshly. Children
    /// ensured during a failed attempt stay — they are canonical either
    /// way (replayed at verified ids or freshly lowered in DFS order).
    fn try_replay(
        &mut self,
        key: &SpecKey,
        device: bool,
        kernel: bool,
    ) -> TResult<Option<(FuncId, Option<Shape>)>> {
        let memo = match &self.replay {
            Some(rp) => match rp.memos.get(&(key.clone(), device, kernel)) {
                Some(m) => m.clone(),
                None => return Ok(None),
            },
            None => return Ok(None),
        };
        let frame_key = (key.clone(), device, kernel);
        if self.replay_stack.contains(&frame_key) {
            return Ok(None); // corrupt memo cycle; lower freshly
        }
        self.replay_stack.push(frame_key);
        self.trace_push(key, device, kernel);
        let ready = self.replay_children(&memo);
        self.replay_stack.pop();
        match ready {
            Err(e) => {
                self.trace_pop_discard();
                Err(e)
            }
            Ok(false) => {
                self.trace_pop_discard();
                Ok(None)
            }
            Ok(true) => {
                let id = self.program.add_func(Arc::clone(&memo.func));
                debug_assert_eq!(id, memo.id, "replay id drift");
                self.add_stats6(memo.excl);
                if let Some(rp) = &mut self.replay {
                    rp.replayed.push(id);
                    rp.reused += 1;
                }
                self.trace_pop_discard();
                Ok(Some((id, memo.ret.clone())))
            }
        }
    }

    /// Ensure every recorded callee of `memo` exists at its recorded id,
    /// and every callee it could have inlined splices as it did then: the
    /// same body where it was spliced, still over the limit where not.
    fn replay_children(&mut self, memo: &incr::FnMemo) -> TResult<bool> {
        for e in &memo.callees {
            let actual = if e.kernel {
                self.lower_kernel(&e.key)?
            } else {
                match self.lower_spec(&e.key, e.device)? {
                    SpecResult::Func { id, .. } => id,
                    SpecResult::InlineOnly { .. } => return Ok(false),
                }
            };
            if actual != e.expect {
                return Ok(false);
            }
        }
        let funcs = &self.program.funcs;
        let limit = self.opt.inline_limit;
        Ok(funcs.len() == memo.id.0 as usize
            && (memo.inlined.iter()).all(|(id, seen)| match (funcs.get(id.0 as usize), seen) {
                (Some(g), Some(f)) => Arc::ptr_eq(g, f),
                (Some(g), None) => g.code.len() > limit,
                (None, _) => false,
            }))
    }

    /// Lower (or fetch) the specialization of `key` for host or device.
    pub fn lower_spec(&mut self, key: &SpecKey, device: bool) -> TResult<SpecResult> {
        if let Some(r) = self.specs.get(&(key.clone(), device)) {
            let r = r.clone();
            if let SpecResult::Func { id, .. } = &r {
                self.trace_edge(key, device, false, *id);
            }
            return Ok(r);
        }
        if self.spec_stack.contains(&(key.clone(), device)) {
            return Err(TransError::new(format!(
                "recursive call chain reaches `{}::{}` (coding rule 6)",
                self.table.name(key.class),
                self.table.method(key.class, key.method).name
            )));
        }
        // Replay a still-valid memo from a previous revision, if any.
        // Memos exist only for `Func` results, so this happens before
        // the InlineOnly shortcut (whose recompute is cheap anyway).
        if let Some((id, ret)) = self.try_replay(key, device, false)? {
            let r = SpecResult::Func { id, ret };
            self.specs.insert((key.clone(), device), r.clone());
            self.trace_edge(key, device, false, id);
            return Ok(r);
        }
        let flatten = self.flatten_objects || device;
        let ret_shape = self.sheval.method_return(key)?;
        if flatten {
            if let Some(s) = &ret_shape {
                if s.leaf_count() != 1 {
                    let r = SpecResult::InlineOnly {
                        ret: ret_shape.clone(),
                    };
                    self.specs.insert((key.clone(), device), r.clone());
                    return Ok(r);
                }
            }
        }
        self.spec_stack.push((key.clone(), device));
        self.trace_push(key, device, false);
        let result = self.lower_spec_inner(key, device, flatten, ret_shape);
        self.spec_stack.pop();
        match &result {
            Ok(SpecResult::Func { id, ret }) => {
                let (id, ret) = (*id, ret.clone());
                self.trace_pop_fresh(id, &ret);
            }
            _ => self.trace_pop_discard(),
        }
        let r = result?;
        self.specs.insert((key.clone(), device), r.clone());
        if let SpecResult::Func { id, .. } = &r {
            self.trace_edge(key, device, false, *id);
        }
        Ok(r)
    }

    fn mangle(&self, key: &SpecKey, device: bool, kernel: bool) -> String {
        let m = self.table.method(key.class, key.method);
        let mut name = format!("{}_{}", self.table.name(key.class), m.name);
        if let Some(r) = &key.recv {
            name.push_str("__");
            name.push_str(&r.mangle(self.table));
        }
        for a in &key.args {
            name.push('_');
            name.push_str(&a.mangle(self.table));
        }
        if kernel {
            name.push_str("_krn");
        } else if device {
            name.push_str("_dev");
        }
        // Disambiguate collisions deterministically.
        let mut final_name = name.clone();
        let mut i = 2;
        while self.program.funcs.iter().any(|f| f.name == final_name) {
            final_name = format!("{name}_{i}");
            i += 1;
        }
        final_name
    }

    fn lower_spec_inner(
        &mut self,
        key: &SpecKey,
        device: bool,
        flatten: bool,
        ret_shape: Option<Shape>,
    ) -> TResult<SpecResult> {
        let m = self.table.method(key.class, key.method);
        let Some((body, block)) = m.typed_body() else {
            return Err(TransError::new(format!(
                "cannot lower body-less method `{}::{}`",
                self.table.name(key.class),
                m.name
            )));
        };
        self.trace_body(key.class, incr::MemberRef::Method(key.method));
        let name = self.mangle(key, device, false);
        let (params, recv, env) = bind_params(key, flatten);
        let ret_ty = match &ret_shape {
            None => None,
            Some(s) if flatten => {
                debug_assert_eq!(s.leaf_count(), 1);
                Some(s.leaf_tys()[0])
            }
            Some(s) => Some(heap_ty(s)),
        };
        let kind = if device {
            FuncKind::Device
        } else {
            FuncKind::Host
        };
        let fb = FuncBuilder::new(name, params, ret_ty, kind);
        let mut fx = FnCtx::new(Frame::new(fb, recv, env), flatten, device);
        walk::block(self, &mut fx, body, block)?;
        let f = fx.frame.fb.finish().map_err(TransError::new)?;
        let id = self.add_fresh(f);
        self.stats.specializations += 1;
        Ok(SpecResult::Func { id, ret: ret_shape })
    }

    /// Lower a `@Global` kernel specialization (always flattened).
    pub fn lower_kernel(&mut self, key: &SpecKey) -> TResult<FuncId> {
        if let Some(id) = self.kernel_specs.get(key) {
            let id = *id;
            self.trace_edge(key, true, true, id);
            return Ok(id);
        }
        if let Some((id, _)) = self.try_replay(key, true, true)? {
            self.kernel_specs.insert(key.clone(), id);
            self.trace_edge(key, true, true, id);
            return Ok(id);
        }
        let m = self.table.method(key.class, key.method);
        if m.ret != Type::Void {
            return Err(TransError::new(format!(
                "@Global method `{}` must return void",
                m.name
            )));
        }
        let Some((body, block)) = m.typed_body() else {
            return Err(TransError::new("kernel has no body"));
        };
        let name = self.mangle(key, true, true);
        let (params, recv, env) = bind_params(key, true);
        let fb = FuncBuilder::new(name, params, None, FuncKind::Kernel);
        let mut fx = FnCtx::new(Frame::new(fb, recv, env), true, true);
        self.trace_push(key, true, true);
        self.trace_body(key.class, incr::MemberRef::Method(key.method));
        let finished = walk::block(self, &mut fx, body, block)
            .and_then(|()| fx.frame.fb.finish().map_err(TransError::new));
        let f = match finished {
            Ok(f) => f,
            Err(e) => {
                self.trace_pop_discard();
                return Err(e);
            }
        };
        let id = self.add_fresh(f);
        self.kernel_specs.insert(key.clone(), id);
        self.stats.kernels += 1;
        self.stats.specializations += 1;
        self.trace_pop_fresh(id, &None);
        self.trace_edge(key, true, true, id);
        Ok(id)
    }

    /// Copy an operand into fresh registers (value semantics: objects are
    /// bundles of locals after inlining, exactly as §3.3 describes).
    fn copy_opnd(&mut self, fx: &mut FnCtx, v: &Opnd) -> Opnd {
        let tys: Vec<Ty> = if fx.flatten {
            v.shape.leaf_tys()
        } else {
            vec![heap_ty(&v.shape)]
        };
        let mut regs = Vec::with_capacity(v.regs.len());
        for (s, ty) in v.regs.iter().zip(tys) {
            let d = fx.frame.fb.reg(ty);
            fx.frame.fb.emit(Instr::Mov(d, *s));
            regs.push(d);
        }
        Opnd {
            shape: v.shape.clone(),
            regs,
        }
    }

    /// Default operand for a local declared without an initializer: a
    /// primitive's zero, or an unwritten array register. A read of it
    /// that some path reaches before an assignment is rejected at
    /// translate time by the verifier's definite assignment
    /// (`nir::Program::verify`), as javac rejects it.
    fn default_opnd(&mut self, fx: &mut FnCtx, shape: Shape) -> Opnd {
        let reg = match shape {
            Shape::Prim(k) => fx.frame.fb.constant(ConstVal::zero(k)),
            _ => fx.frame.fb.reg(heap_ty(&shape)),
        };
        Opnd {
            shape,
            regs: vec![reg],
        }
    }

    /// Splice a callee into the current function (used when a flattened
    /// return value has more than one leaf).
    fn lower_inline_call(
        &mut self,
        fx: &mut FnCtx,
        key: &SpecKey,
        recv: Option<Opnd>,
        args: Vec<Opnd>,
        ret: Option<Shape>,
    ) -> TResult<Option<Opnd>> {
        if self.inline_stack.contains(key) {
            return Err(TransError::new(
                "recursive call chain reached inlining (coding rule 6)",
            ));
        }
        let m = self.table.method(key.class, key.method);
        let Some((body, block)) = m.typed_body() else {
            return Err(TransError::new("cannot inline a body-less method"));
        };
        self.trace_body(key.class, incr::MemberRef::Method(key.method));
        self.inline_stack.push(key.clone());
        self.stats.inlined_calls += 1;

        let dest: Vec<Reg> = match &ret {
            Some(s) => s.leaf_tys().iter().map(|t| fx.frame.fb.reg(*t)).collect(),
            None => Vec::new(),
        };
        let end = fx.frame.fb.label();

        // Save the frame, install the callee's.
        let saved_env = std::mem::take(&mut fx.frame.env);
        let saved_recv = fx.frame.recv.take();
        let saved_ret = std::mem::replace(
            &mut fx.ret,
            RetMode::Inline {
                dest: dest.clone(),
                end,
            },
        );
        let saved_loops = std::mem::take(&mut fx.frame.loops);
        fx.frame.recv = recv.map(|r| self.copy_opnd(fx, &r));
        for (i, a) in args.iter().enumerate() {
            let copy = self.copy_opnd(fx, a);
            fx.frame.env.insert(i as u32, copy);
        }
        let result = walk::block(self, fx, body, block);
        fx.frame.fb.jmp(end); // void fall-through
        fx.frame.fb.bind(end);
        fx.frame.env = saved_env;
        fx.frame.recv = saved_recv;
        fx.ret = saved_ret;
        fx.frame.loops = saved_loops;
        self.inline_stack.pop();
        result?;
        Ok(ret.map(|shape| Opnd { shape, regs: dest }))
    }

    /// Map an `@Native` call onto a NIR intrinsic.
    fn lower_native(
        &mut self,
        fx: &mut FnCtx,
        key: &str,
        m: &jlang::MethodInfo,
        args: Vec<Opnd>,
    ) -> TResult<Option<Opnd>> {
        // Special forms first.
        if key == "cuda.sync" {
            fx.frame.fb.emit(Instr::Sync);
            return Ok(None);
        }
        if key == "cuda.sharedF32" {
            // The reproduction's spelling of the paper's `@Shared` fields:
            // a per-block shared-memory allocation intrinsic.
            let len = args
                .first()
                .ok_or_else(|| TransError::new("cuda.sharedF32 needs a length"))?
                .single()?;
            let dst = fx.frame.fb.reg(Ty::Arr(ElemTy::F32));
            fx.frame.fb.emit(Instr::SharedAlloc {
                elem: ElemTy::F32,
                len,
                dst,
            });
            return Ok(Some(Opnd {
                shape: Shape::Arr(ElemTy::F32),
                regs: vec![dst],
            }));
        }
        let mut regs = Vec::with_capacity(args.len());
        for a in &args {
            regs.push(a.single()?);
        }
        let ret_shape = native_return_shape(&m.ret, key)?;
        // Built-in intrinsic, or a user-registered foreign function (the
        // paper's FFI mechanism): unknown keys become direct host calls.
        let dst = ret_shape.as_ref().map(|s| fx.frame.fb.reg(s.leaf_tys()[0]));
        let ins = match Intrinsic::by_key(key) {
            Some(row) => Instr::Intrin {
                op: row.op,
                args: regs,
                dst,
            },
            None => {
                if fx.device {
                    return Err(TransError::new(format!(
                        "foreign function `{key}` cannot be called from GPU code"
                    )));
                }
                let params = (args.iter())
                    .map(|a| match &a.shape {
                        Shape::Obj { .. } => Err(TransError::new(format!(
                            "foreign function `{key}` cannot take object arguments"
                        ))),
                        s => Ok(heap_ty(s)),
                    })
                    .collect::<TResult<_>>()?;
                let sig = nir::HostFnSig {
                    name: key.to_string(),
                    params,
                    ret: ret_shape.as_ref().map(|s| s.leaf_tys()[0]),
                };
                Instr::CallHost {
                    host: self.program.host_fn(sig),
                    args: regs,
                    dst,
                }
            }
        };
        fx.frame.fb.emit(ins);
        Ok(ret_shape.map(|shape| Opnd {
            shape,
            regs: dst.into_iter().collect(),
        }))
    }

    /// Lower a `@Global` call into a kernel launch. The first argument
    /// must be a `CudaConfig { dim3 grid; dim3 block; }` whose six int
    /// leaves become the launch dimensions.
    fn lower_launch(
        &mut self,
        fx: &mut FnCtx,
        recv: Option<Opnd>,
        class: ClassId,
        index: u32,
        args: Vec<Opnd>,
    ) -> TResult<()> {
        let conf = args.first().ok_or_else(|| {
            TransError::new("@Global method must take a CudaConfig as its first argument")
        })?;
        let conf_class = conf.shape.class().and_then(|c| {
            if self.table.name(c) == "CudaConfig" {
                Some(c)
            } else {
                None
            }
        });
        if conf_class.is_none() {
            return Err(TransError::new(
                "@Global method's first argument must be a CudaConfig",
            ));
        }
        let conf_leaves = self.flatten_opnd(fx, conf)?;
        if conf_leaves.len() != 6 {
            return Err(TransError::new(
                "CudaConfig must flatten to six int leaves (grid.xyz, block.xyz)",
            ));
        }
        let key = SpecKey {
            class,
            method: index,
            recv: recv.as_ref().map(|r| r.shape.clone()),
            args: args.iter().map(|a| a.shape.clone()).collect(),
        };
        let kernel = self.lower_kernel(&key)?;
        let mut launch_args = Vec::new();
        if let Some(r) = &recv {
            launch_args.extend(self.flatten_opnd(fx, r)?);
        }
        for a in &args {
            launch_args.extend(self.flatten_opnd(fx, a)?);
        }
        fx.frame.fb.emit(Instr::Launch {
            kernel,
            grid: [conf_leaves[0], conf_leaves[1], conf_leaves[2]],
            block: [conf_leaves[3], conf_leaves[4], conf_leaves[5]],
            args: launch_args,
        });
        Ok(())
    }

    /// Produce the flattened leaf registers of an operand, emitting
    /// `GetField` chains when the operand lives on the heap.
    fn flatten_opnd(&mut self, fx: &mut FnCtx, v: &Opnd) -> TResult<Vec<Reg>> {
        if fx.flatten {
            return Ok(v.regs.clone());
        }
        match &v.shape {
            Shape::Prim(_) | Shape::Arr(_) => Ok(v.regs.clone()),
            Shape::Obj { fields, .. } => {
                let obj = v.single()?;
                let mut out = Vec::new();
                for (slot, fshape) in fields.iter().enumerate() {
                    let dst = fx.frame.fb.reg(heap_ty(fshape));
                    fx.frame.fb.emit(Instr::GetField {
                        obj,
                        slot: slot as u32,
                        dst,
                    });
                    let sub = Opnd {
                        shape: fshape.clone(),
                        regs: vec![dst],
                    };
                    out.extend(self.flatten_opnd(fx, &sub)?);
                }
                Ok(out)
            }
        }
    }

    // ------------------------------------------------------------------
    // Object construction (constructor inlining)
    // ------------------------------------------------------------------

    /// Lower `new class(args)` by running the constructor chain inline,
    /// once the chain has passed the constructor rule.
    fn lower_new(&mut self, fx: &mut FnCtx, class: ClassId, args: Vec<Opnd>) -> TResult<Opnd> {
        self.sheval.ctor_rule(class)?;
        self.trace_body(class, incr::MemberRef::Ctor);
        let size = self.table.class(class).instance_size() as usize;
        // One frame for the whole chain; a `new` inside the chain installs
        // its own and puts this one back. The chain has no receiver.
        let outer = fx.ctor_fields.replace(vec![None; size]);
        let recv = fx.frame.recv.take();
        let table = self.table;
        let run = walk::ctor(self, fx, table, class, args);
        fx.frame.recv = recv;
        let fields = std::mem::replace(&mut fx.ctor_fields, outer);
        run?;
        self.stats.inlined_ctors += 1;
        // Assemble the object value.
        let mut field_shapes = Vec::with_capacity(size);
        let mut all_regs = Vec::new();
        for (slot, f) in fields.into_iter().flatten().enumerate() {
            match f {
                Some(op) => {
                    field_shapes.push(op.shape);
                    all_regs.extend(op.regs);
                }
                None => {
                    let k = unassigned_field(self.table, class, slot as u32)?;
                    field_shapes.push(Shape::Prim(k));
                    all_regs.push(fx.frame.fb.constant(ConstVal::zero(k)));
                }
            }
        }
        let shape = Shape::Obj {
            class,
            fields: field_shapes,
        };
        if fx.flatten {
            Ok(Opnd {
                shape,
                regs: all_regs,
            })
        } else {
            // Heap mode: materialize with NewObj + PutField.
            let obj = fx.frame.fb.reg(Ty::Obj);
            fx.frame.fb.emit(Instr::NewObj {
                class: class.0,
                dst: obj,
            });
            // Heap mode: every field value is one register, a scalar or
            // an object reference.
            debug_assert_eq!(all_regs.len(), size);
            for (slot, src) in all_regs.into_iter().enumerate() {
                fx.frame.fb.emit(Instr::PutField {
                    obj,
                    slot: slot as u32,
                    src,
                });
            }
            Ok(Opnd {
                shape,
                regs: vec![obj],
            })
        }
    }
}

impl Lower for Lowerer<'_> {
    type V = Opnd;
    type Cx = FnCtx;

    fn table(&self) -> &ClassTable {
        self.table
    }

    fn frame(fx: &mut FnCtx) -> &mut Frame<Opnd> {
        &mut fx.frame
    }

    fn reg(v: &Opnd) -> TResult<Reg> {
        v.single()
    }

    fn scalar(r: Reg, ty: Ty) -> Opnd {
        let shape = match ty {
            Ty::Arr(e) => Shape::Arr(e),
            t => Shape::Prim(t.prim().expect("the walk wraps no object register")),
        };
        Opnd {
            shape,
            regs: vec![r],
        }
    }

    fn local(
        &mut self,
        fx: &mut FnCtx,
        b: &TBody,
        ty: &Type,
        init: Option<TExprId>,
    ) -> TResult<Opnd> {
        match init {
            Some(e) => {
                let v = walk::expr(self, fx, b, e)?;
                // Copy into fresh registers so reassignment works.
                Ok(self.copy_opnd(fx, &v))
            }
            None => {
                let shape = uninit_local(self.table, ty)?;
                Ok(self.default_opnd(fx, shape))
            }
        }
    }

    fn assign_local(&mut self, fx: &mut FnCtx, dst: &Opnd, v: Opnd) -> TResult<()> {
        same_shape(self.table, &dst.shape, &v.shape)?;
        for (d, s) in dst.regs.iter().zip(&v.regs) {
            fx.frame.fb.emit(Instr::Mov(*d, *s));
        }
        Ok(())
    }

    fn get_field(
        &mut self,
        fx: &mut FnCtx,
        b: &TBody,
        obj: TExprId,
        field: FieldSel,
    ) -> TResult<Opnd> {
        if let (TExpr::This, Some(frame)) = (b.expr(obj), &fx.ctor_fields) {
            return Ok(
                match frame_field(self.table, &frame[field.slot as usize], field)? {
                    Ok(v) => v,
                    Err(k) => Opnd {
                        shape: Shape::Prim(k),
                        regs: vec![fx.frame.fb.constant(ConstVal::zero(k))],
                    },
                },
            );
        }
        let o = walk::expr(self, fx, b, obj)?;
        if fx.flatten {
            let (off, fshape) = o
                .shape
                .field_leaf_range(field.slot)
                .ok_or_else(|| TransError::new("field read out of shape range"))?;
            let n = fshape.leaf_count();
            Ok(Opnd {
                shape: fshape.clone(),
                regs: o.regs[off..off + n].to_vec(),
            })
        } else {
            let fshape = field_shape(self.table, &o.shape, field.slot)?;
            let dst = fx.frame.fb.reg(heap_ty(&fshape));
            fx.frame.fb.emit(Instr::GetField {
                obj: o.single()?,
                slot: field.slot,
                dst,
            });
            Ok(Opnd {
                shape: fshape,
                regs: vec![dst],
            })
        }
    }

    fn put_field(
        &mut self,
        fx: &mut FnCtx,
        b: &TBody,
        obj: TExprId,
        field: FieldSel,
        value: TExprId,
    ) -> TResult<()> {
        let v = walk::expr(self, fx, b, value)?;
        if b.expr(obj) == TExpr::This && fx.ctor_fields.is_some() {
            return self.init_field(fx, field.slot, v);
        }
        let o = walk::expr(self, fx, b, obj)?;
        if fx.flatten {
            let (off, fshape) = o
                .shape
                .field_leaf_range(field.slot)
                .ok_or_else(|| TransError::new("field assignment out of shape range"))?;
            if fshape != &v.shape {
                return Err(TransError::new(format!(
                    "field changes shape from {} to {}",
                    fshape.show(self.table),
                    v.shape.show(self.table)
                )));
            }
            let n = v.regs.len();
            for i in 0..n {
                fx.frame.fb.emit(Instr::Mov(o.regs[off + i], v.regs[i]));
            }
        } else {
            let oreg = o.single()?;
            let vreg = v.single()?;
            fx.frame.fb.emit(Instr::PutField {
                obj: oreg,
                slot: field.slot,
                src: vreg,
            });
        }
        Ok(())
    }

    fn this(&mut self, fx: &mut FnCtx) -> TResult<Opnd> {
        fx.frame.this()
    }

    fn ret(&mut self, fx: &mut FnCtx, v: Option<Opnd>) -> TResult<()> {
        match (&fx.ret, v) {
            (RetMode::Function, Some(v)) => {
                fx.frame.fb.emit(Instr::Ret(Some(v.single()?)));
            }
            (RetMode::Function, None) => {
                fx.frame.fb.emit(Instr::Ret(None));
            }
            (RetMode::Inline { dest, end }, v) => {
                let dest = dest.clone();
                let end = *end;
                if let Some(v) = v {
                    for (d, s) in dest.iter().zip(&v.regs) {
                        fx.frame.fb.emit(Instr::Mov(*d, *s));
                    }
                }
                fx.frame.fb.jmp(end);
            }
        }
        Ok(())
    }

    /// Devirtualize (if `is_virtual`), specialize, and emit a call — or
    /// inline the callee when its flattened return has ≠1 leaves.
    fn call(
        &mut self,
        fx: &mut FnCtx,
        recv: Option<Opnd>,
        method: MethodSel,
        (b, args): (&TBody, TArgs),
        is_virtual: bool,
        _: &Type,
    ) -> TResult<Option<Opnd>> {
        // Resolve the implementation from the receiver's exact shape.
        let (ic, im) = match (&recv, is_virtual) {
            (Some(r), true) => {
                let target = call_target(self.table, &r.shape, method)?;
                self.stats.devirtualized_calls += 1;
                target
            }
            _ => (method.decl_class, method.index),
        };
        let target = self.table.method(ic, im);

        // Native intrinsic?
        let arg_opnds = walk::args(self, fx, b, args)?;
        if let Some(key) = &target.native {
            return self.lower_native(fx, key, target, arg_opnds);
        }

        // Kernel launch?
        if target.is_global {
            if fx.device {
                return Err(TransError::new(
                    "a kernel cannot launch another kernel (@Global from device context)",
                ));
            }
            self.lower_launch(fx, recv, ic, im, arg_opnds)?;
            return Ok(None);
        }

        let key = SpecKey {
            class: ic,
            method: im,
            recv: recv.as_ref().map(|r| r.shape.clone()),
            args: arg_opnds.iter().map(|a| a.shape.clone()).collect(),
        };
        match self.lower_spec(&key, fx.device)? {
            SpecResult::Func { id, ret } => {
                let mut regs = Vec::new();
                if let Some(r) = &recv {
                    regs.extend(&r.regs);
                }
                for a in &arg_opnds {
                    regs.extend(&a.regs);
                }
                match ret {
                    None => {
                        fx.frame.fb.emit(Instr::Call {
                            func: id,
                            args: regs,
                            dst: None,
                        });
                        Ok(None)
                    }
                    Some(shape) => {
                        if fx.flatten && shape.leaf_count() == 0 {
                            // Empty (zero-leaf) objects only lose their
                            // register in flattened mode; on the heap they
                            // are still a handle. (Flattened zero-leaf
                            // returns are normally routed to inlining, so
                            // this arm is a safety net.)
                            fx.frame.fb.emit(Instr::Call {
                                func: id,
                                args: regs,
                                dst: None,
                            });
                            Ok(Some(Opnd {
                                shape,
                                regs: vec![],
                            }))
                        } else {
                            let ty = if fx.flatten {
                                shape.leaf_tys()[0]
                            } else {
                                heap_ty(&shape)
                            };
                            let dst = fx.frame.fb.reg(ty);
                            fx.frame.fb.emit(Instr::Call {
                                func: id,
                                args: regs,
                                dst: Some(dst),
                            });
                            Ok(Some(Opnd {
                                shape,
                                regs: vec![dst],
                            }))
                        }
                    }
                }
            }
            SpecResult::InlineOnly { ret } => {
                self.lower_inline_call(fx, &key, recv, arg_opnds, ret)
            }
        }
    }

    fn new_obj(&mut self, fx: &mut FnCtx, b: &TBody, class: ClassId, args: TArgs) -> TResult<Opnd> {
        let arg_opnds = walk::args(self, fx, b, args)?;
        self.lower_new(fx, class, arg_opnds)
    }

    fn ref_cast(&mut self, v: Opnd, to: &Type) -> TResult<Opnd> {
        check_cast(self.table, &v.shape, to)?;
        Ok(v)
    }

    fn super_ctor(&mut self, fx: &mut FnCtx, class: ClassId, args: Vec<Opnd>) -> TResult<()> {
        self.trace_body(class, incr::MemberRef::Ctor);
        let table = self.table;
        walk::ctor(self, fx, table, class, args)
    }

    /// The value goes into the chain's field frame, copied so that a
    /// later write to its source does not reach the field.
    fn init_field(&mut self, fx: &mut FnCtx, slot: u32, v: Opnd) -> TResult<()> {
        let v = self.copy_opnd(fx, &v);
        if let Some(frame) = &mut fx.ctor_fields {
            frame[slot as usize] = Some(v);
        }
        Ok(())
    }
}

/// Register type of a shape in heap (non-flattened) representation.
pub fn heap_ty(s: &Shape) -> Ty {
    match s {
        Shape::Prim(k) => Ty::of_prim(*k),
        Shape::Arr(e) => Ty::Arr(*e),
        Shape::Obj { .. } => Ty::Obj,
    }
}

/// Bind `key`'s receiver and arguments to the registers of the
/// parameters, in order: one per leaf if `flatten`, else one per value.
/// Returns the parameter types and the bindings.
fn bind_params(key: &SpecKey, flatten: bool) -> (Vec<Ty>, Option<Opnd>, HashMap<u32, Opnd>) {
    let mut params = Vec::new();
    let mut bind = |shape: &Shape| {
        let first = params.len() as Reg;
        if flatten {
            params.extend(shape.leaf_tys());
        } else {
            params.push(heap_ty(shape));
        }
        Opnd {
            shape: shape.clone(),
            regs: (first..params.len() as Reg).collect(),
        }
    };
    let recv = key.recv.as_ref().map(&mut bind);
    let env = (key.args.iter().enumerate())
        .map(|(i, a)| (i as u32, bind(a)))
        .collect();
    (params, recv, env)
}

/// The compile-time value of static field `index` of `class` (coding rule
/// 5 guarantees a constant initializer).
fn static_const(table: &ClassTable, class: ClassId, index: u32) -> TResult<ConstVal> {
    let f = &table.class(class).statics[index as usize];
    let (init, value) = f.typed_init().ok_or_else(|| {
        TransError::new(format!("static `{}` has no constant initializer", f.name))
    })?;
    const_eval(table, init, value)
}

/// Evaluate a typed expression as a compile-time constant (static final
/// initializers; coding rule 5 guarantees these are constants).
pub fn const_eval(table: &ClassTable, b: &TBody, e: TExprId) -> TResult<ConstVal> {
    match b.expr(e) {
        TExpr::Int(v) => Ok(ConstVal::I32(v)),
        TExpr::Long(v) => Ok(ConstVal::I64(v)),
        TExpr::Float(v) => Ok(ConstVal::F32(v)),
        TExpr::Double(v) => Ok(ConstVal::F64(v)),
        TExpr::Bool(v) => Ok(ConstVal::Bool(v)),
        TExpr::GetStatic { class, index } => static_const(table, class, index),
        TExpr::Unary { op, expr } => const_eval(table, b, expr)?.un(op).ok_or_else(unsupported),
        TExpr::Binary { op, lhs, rhs, .. } => {
            let l = const_eval(table, b, lhs)?;
            let r = const_eval(table, b, rhs)?;
            ConstVal::bin(op, l, r).ok_or_else(unsupported)
        }
        TExpr::NumCast { to, expr } | TExpr::Convert { to, expr } => {
            const_eval(table, b, expr)?.cast(to).ok_or_else(unsupported)
        }
        _ => Err(TransError::new(
            "static final initializer is not a compile-time constant",
        )),
    }
}

fn unsupported() -> TransError {
    TransError::new("unsupported constant expression")
}

/// Collect `static final` constants into the program's globals (for the C
/// emitter; code references are constant-folded at lowering time).
fn collect_globals(table: &ClassTable, program: &mut Program) {
    for info in table.iter() {
        for (i, f) in info.statics.iter().enumerate() {
            if f.init.is_some() {
                if let Ok(cv) = static_const(table, info.id, i as u32) {
                    program.globals.push(nir::Global {
                        name: format!("{}_{}", info.name, f.name),
                        ty: cv.ty(),
                        value: cv,
                    });
                }
            }
        }
    }
}
