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

use jlang::ast::{BinOp, UnOp};
use jlang::table::ClassTable;
use jlang::tast::{TArgs, TBlock, TBody, TExpr, TExprId, TStmt, TStmtId};
use jlang::types::{ClassId, PrimKind, Type};
use nir::{
    ConstVal, ElemTy, FuncBuilder, FuncId, FuncKind, Instr, Intrinsic, Label, Program, Reg, Ty,
};

use crate::incr;
use crate::shape::{elem_ty_of, Shape, TransError};
use crate::sheval::{field_shape, native_return_shape, shape_from_decl, ShapeEval, SpecKey};
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

/// Per-function lowering context.
pub struct FnCtx {
    pub fb: FuncBuilder,
    env: HashMap<u32, Opnd>,
    recv: Option<Opnd>,
    /// Innermost constructor field frame (absolute slot -> value), set
    /// while inlining a constructor body.
    ctor_fields: Option<Vec<Option<Opnd>>>,
    pub flatten: bool,
    device: bool,
    ret: RetMode,
    loops: Vec<(Label, Label)>,
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
        // Parameter layout.
        let mut params = Vec::new();
        if let Some(r) = &key.recv {
            if flatten {
                params.extend(r.leaf_tys());
            } else {
                params.push(Ty::Obj);
            }
        }
        for a in &key.args {
            if flatten {
                params.extend(a.leaf_tys());
            } else {
                params.push(heap_ty(a));
            }
        }
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
        // Bind receiver and parameters to their registers.
        let mut next = 0u32;
        let recv = key.recv.as_ref().map(|r| {
            let n = if flatten { r.leaf_count() } else { 1 };
            let regs: Vec<Reg> = (next..next + n as u32).collect();
            next += n as u32;
            Opnd {
                shape: r.clone(),
                regs,
            }
        });
        let mut env = HashMap::new();
        for (i, a) in key.args.iter().enumerate() {
            let n = if flatten { a.leaf_count() } else { 1 };
            let regs: Vec<Reg> = (next..next + n as u32).collect();
            next += n as u32;
            env.insert(
                i as u32,
                Opnd {
                    shape: a.clone(),
                    regs,
                },
            );
        }
        // Guard: frame slots used by locals start after parameter count in
        // the typed AST; our env is keyed by slot so no adjustment needed.
        let _ = next;
        let mut fx = FnCtx {
            fb,
            env,
            recv,
            ctor_fields: None,
            flatten,
            device,
            ret: RetMode::Function,
            loops: Vec::new(),
        };
        self.block(&mut fx, body, block)?;
        let f = fx.fb.finish().map_err(TransError::new)?;
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
        let mut params = Vec::new();
        if let Some(r) = &key.recv {
            params.extend(r.leaf_tys());
        }
        for a in &key.args {
            params.extend(a.leaf_tys());
        }
        let fb = FuncBuilder::new(name, params, None, FuncKind::Kernel);
        let mut next = 0u32;
        let recv = key.recv.as_ref().map(|r| {
            let n = r.leaf_count();
            let regs: Vec<Reg> = (next..next + n as u32).collect();
            next += n as u32;
            Opnd {
                shape: r.clone(),
                regs,
            }
        });
        let mut env = HashMap::new();
        for (i, a) in key.args.iter().enumerate() {
            let n = a.leaf_count();
            let regs: Vec<Reg> = (next..next + n as u32).collect();
            next += n as u32;
            env.insert(
                i as u32,
                Opnd {
                    shape: a.clone(),
                    regs,
                },
            );
        }
        let mut fx = FnCtx {
            fb,
            env,
            recv,
            ctor_fields: None,
            flatten: true,
            device: true,
            ret: RetMode::Function,
            loops: Vec::new(),
        };
        self.trace_push(key, true, true);
        self.trace_body(key.class, incr::MemberRef::Method(key.method));
        let finished = self
            .block(&mut fx, body, block)
            .and_then(|()| fx.fb.finish().map_err(TransError::new));
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

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    pub fn block(&mut self, fx: &mut FnCtx, b: &TBody, block: TBlock) -> TResult<()> {
        for s in b.list(block) {
            self.stmt(fx, b, s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, fx: &mut FnCtx, b: &TBody, s: TStmtId) -> TResult<()> {
        match b.stmt(s) {
            TStmt::Local { slot, ty, init } => {
                let ty = b.type_at(ty);
                let opnd = match init {
                    Some(e) => {
                        let v = self.expr(fx, b, e)?;
                        // Copy into fresh registers so reassignment works.
                        self.copy_opnd(fx, &v)
                    }
                    None => {
                        let shape = shape_from_decl(self.table, ty).ok_or_else(|| {
                            TransError::new(format!(
                                "object-typed local of type {} needs an initializer",
                                self.table.show_type(ty)
                            ))
                        })?;
                        self.default_opnd(fx, &shape)?
                    }
                };
                fx.env.insert(slot, opnd);
                Ok(())
            }
            TStmt::AssignLocal { slot, value } => {
                let v = self.expr(fx, b, value)?;
                let dst = fx.env.get(&slot).cloned().ok_or_else(|| {
                    TransError::new(format!("assignment to undeclared slot {slot}"))
                })?;
                if dst.shape != v.shape {
                    return Err(TransError::new(format!(
                        "local changes shape from {} to {}",
                        dst.shape.show(self.table),
                        v.shape.show(self.table)
                    )));
                }
                for (d, s) in dst.regs.iter().zip(&v.regs) {
                    fx.fb.emit(Instr::Mov(*d, *s));
                }
                Ok(())
            }
            TStmt::AssignField { obj, field, value } => {
                let v = self.expr(fx, b, value)?;
                // Constructor frame write?
                if b.expr(obj) == TExpr::This && fx.ctor_fields.is_some() {
                    let copy = self.copy_opnd(fx, &v);
                    // Checked `is_some` just above.
                    fx.ctor_fields.as_mut().unwrap()[field.slot as usize] = Some(copy);
                    return Ok(());
                }
                let o = self.expr(fx, b, obj)?;
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
                        fx.fb.emit(Instr::Mov(o.regs[off + i], v.regs[i]));
                    }
                } else {
                    let oreg = o.single()?;
                    let vreg = v.single()?;
                    fx.fb.emit(Instr::PutField {
                        obj: oreg,
                        slot: field.slot,
                        src: vreg,
                    });
                }
                Ok(())
            }
            TStmt::AssignStatic { .. } => Err(TransError::new(
                "assignment to a static field cannot be translated (coding rule 5)",
            )),
            TStmt::AssignIndex { arr, idx, value } => {
                let a = self.expr(fx, b, arr)?;
                let i = self.expr(fx, b, idx)?;
                let v = self.expr(fx, b, value)?;
                fx.fb.emit(Instr::StArr {
                    arr: a.single()?,
                    idx: i.single()?,
                    src: v.single()?,
                });
                Ok(())
            }
            TStmt::Expr(e) => {
                self.expr_maybe_void(fx, b, e)?;
                Ok(())
            }
            TStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.expr(fx, b, cond)?;
                let tl = fx.fb.label();
                let el = fx.fb.label();
                let end = fx.fb.label();
                fx.fb.br(c.single()?, tl, el);
                fx.fb.bind(tl);
                self.block(fx, b, then_branch)?;
                fx.fb.jmp(end);
                fx.fb.bind(el);
                if let Some(e) = else_branch {
                    self.block(fx, b, e)?;
                }
                fx.fb.jmp(end);
                fx.fb.bind(end);
                Ok(())
            }
            TStmt::While { cond, body } => {
                let head = fx.fb.label();
                let bodyl = fx.fb.label();
                let end = fx.fb.label();
                fx.fb.jmp(head);
                fx.fb.bind(head);
                let c = self.expr(fx, b, cond)?;
                fx.fb.br(c.single()?, bodyl, end);
                fx.fb.bind(bodyl);
                fx.loops.push((head, end));
                self.block(fx, b, body)?;
                fx.loops.pop();
                fx.fb.jmp(head);
                fx.fb.bind(end);
                Ok(())
            }
            TStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(fx, b, i)?;
                }
                let head = fx.fb.label();
                let bodyl = fx.fb.label();
                let cont = fx.fb.label();
                let end = fx.fb.label();
                fx.fb.jmp(head);
                fx.fb.bind(head);
                match cond {
                    Some(c) => {
                        let cv = self.expr(fx, b, c)?;
                        fx.fb.br(cv.single()?, bodyl, end);
                    }
                    None => fx.fb.jmp(bodyl),
                }
                fx.fb.bind(bodyl);
                fx.loops.push((cont, end));
                self.block(fx, b, body)?;
                fx.loops.pop();
                fx.fb.jmp(cont);
                fx.fb.bind(cont);
                if let Some(u) = update {
                    self.stmt(fx, b, u)?;
                }
                fx.fb.jmp(head);
                fx.fb.bind(end);
                Ok(())
            }
            TStmt::Return { value } => {
                let v = match value {
                    Some(e) => Some(self.expr(fx, b, e)?),
                    None => None,
                };
                match (&fx.ret, v) {
                    (RetMode::Function, Some(v)) => {
                        fx.fb.emit(Instr::Ret(Some(v.single()?)));
                    }
                    (RetMode::Function, None) => {
                        fx.fb.emit(Instr::Ret(None));
                    }
                    (RetMode::Inline { dest, end }, v) => {
                        let dest = dest.clone();
                        let end = *end;
                        if let Some(v) = v {
                            for (d, s) in dest.iter().zip(&v.regs) {
                                fx.fb.emit(Instr::Mov(*d, *s));
                            }
                        }
                        fx.fb.jmp(end);
                    }
                }
                Ok(())
            }
            TStmt::Break => {
                let (_, brk) = *fx.loops.last().ok_or_else(|| {
                    TransError::new("break outside a loop reached the translator")
                })?;
                fx.fb.jmp(brk);
                Ok(())
            }
            TStmt::Continue => {
                let (cont, _) = *fx.loops.last().ok_or_else(|| {
                    TransError::new("continue outside a loop reached the translator")
                })?;
                fx.fb.jmp(cont);
                Ok(())
            }
            TStmt::Block(block) => self.block(fx, b, block),
        }
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
            let d = fx.fb.reg(ty);
            fx.fb.emit(Instr::Mov(d, *s));
            regs.push(d);
        }
        Opnd {
            shape: v.shape.clone(),
            regs,
        }
    }

    /// Default (zero) operand for primitives and arrays; arrays get an
    /// unwritten register. A read of it that some path reaches before an
    /// assignment is rejected at translate time by the verifier's
    /// definite assignment (`nir::Program::verify`), as javac rejects it.
    fn default_opnd(&mut self, fx: &mut FnCtx, shape: &Shape) -> TResult<Opnd> {
        match shape {
            Shape::Prim(k) => Ok(Opnd {
                shape: shape.clone(),
                regs: vec![fx.fb.constant(ConstVal::zero(*k))],
            }),
            Shape::Arr(e) => {
                let r = fx.fb.reg(Ty::Arr(*e));
                Ok(Opnd {
                    shape: shape.clone(),
                    regs: vec![r],
                })
            }
            Shape::Obj { .. } => Err(TransError::new("object local without initializer")),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr_maybe_void(&mut self, fx: &mut FnCtx, b: &TBody, e: TExprId) -> TResult<Option<Opnd>> {
        match b.expr(e) {
            TExpr::Call { recv, method, args } => {
                let r = self.expr(fx, b, recv)?;
                self.call_resolved(
                    fx,
                    Some(r),
                    method.decl_class,
                    method.index,
                    (b, args),
                    true,
                )
            }
            TExpr::DirectCall { recv, method, args } => {
                let r = self.expr(fx, b, recv)?;
                self.call_resolved(
                    fx,
                    Some(r),
                    method.decl_class,
                    method.index,
                    (b, args),
                    false,
                )
            }
            TExpr::StaticCall { class, index, args } => {
                self.call_resolved(fx, None, class, index, (b, args), false)
            }
            _ => Ok(Some(self.expr(fx, b, e)?)),
        }
    }

    pub fn expr(&mut self, fx: &mut FnCtx, b: &TBody, e: TExprId) -> TResult<Opnd> {
        match b.expr(e) {
            TExpr::Int(_)
            | TExpr::Long(_)
            | TExpr::Float(_)
            | TExpr::Double(_)
            | TExpr::Bool(_)
            | TExpr::GetStatic { .. } => {
                let v = const_eval(self.table, b, e)?;
                Ok(Opnd {
                    shape: Shape::Prim(v.kind()),
                    regs: vec![fx.fb.constant(v)],
                })
            }
            TExpr::Local(slot) => fx
                .env
                .get(&slot)
                .cloned()
                .ok_or_else(|| TransError::new(format!("read of unassigned local slot {slot}"))),
            TExpr::This => {
                if fx.ctor_fields.is_some() {
                    return Err(TransError::new(
                        "`this` used as a value inside a constructor (not semi-immutable)",
                    ));
                }
                fx.recv
                    .clone()
                    .ok_or_else(|| TransError::new("`this` in a static translation context"))
            }
            TExpr::GetField { obj, field } => {
                if b.expr(obj) == TExpr::This {
                    if let Some(frame) = &fx.ctor_fields {
                        return frame[field.slot as usize].clone().ok_or_else(|| {
                            TransError::new(format!(
                                "constructor reads field slot {} before assigning it",
                                field.slot
                            ))
                        });
                    }
                }
                let o = self.expr(fx, b, obj)?;
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
                    let dst = fx.fb.reg(heap_ty(&fshape));
                    fx.fb.emit(Instr::GetField {
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
            TExpr::Call { recv, method, args } => {
                let r = self.expr(fx, b, recv)?;
                self.call_resolved(
                    fx,
                    Some(r),
                    method.decl_class,
                    method.index,
                    (b, args),
                    true,
                )?
                .ok_or_else(|| TransError::new("void call used as a value"))
            }
            TExpr::DirectCall { recv, method, args } => {
                let r = self.expr(fx, b, recv)?;
                self.call_resolved(
                    fx,
                    Some(r),
                    method.decl_class,
                    method.index,
                    (b, args),
                    false,
                )?
                .ok_or_else(|| TransError::new("void super-call used as a value"))
            }
            TExpr::StaticCall { class, index, args } => self
                .call_resolved(fx, None, class, index, (b, args), false)?
                .ok_or_else(|| TransError::new("void static call used as a value")),
            TExpr::New { class, args } => {
                let arg_opnds = self.arg_opnds(fx, b, args)?;
                self.lower_new(fx, class, arg_opnds)
            }
            TExpr::NewArray { elem, len } => {
                let e_ty = elem_ty_of(b.type_at(elem))
                    .ok_or_else(|| TransError::new("only primitive arrays can be translated"))?;
                let l = self.expr(fx, b, len)?;
                let dst = fx.fb.reg(Ty::Arr(e_ty));
                fx.fb.emit(Instr::NewArr {
                    elem: e_ty,
                    len: l.single()?,
                    dst,
                });
                Ok(Opnd {
                    shape: Shape::Arr(e_ty),
                    regs: vec![dst],
                })
            }
            TExpr::Index { arr, idx } => {
                let a = self.expr(fx, b, arr)?;
                let i = self.expr(fx, b, idx)?;
                let Shape::Arr(e_ty) = a.shape else {
                    return Err(TransError::new("indexing a non-array shape"));
                };
                let dst = fx.fb.reg(e_ty.ty());
                fx.fb.emit(Instr::LdArr {
                    arr: a.single()?,
                    idx: i.single()?,
                    dst,
                });
                Ok(Opnd {
                    shape: Shape::Prim(elem_prim(e_ty)),
                    regs: vec![dst],
                })
            }
            TExpr::ArrayLen(a) => {
                let arr = self.expr(fx, b, a)?;
                let dst = fx.fb.reg(Ty::I32);
                fx.fb.emit(Instr::ArrLen {
                    arr: arr.single()?,
                    dst,
                });
                Ok(Opnd {
                    shape: Shape::Prim(PrimKind::Int),
                    regs: vec![dst],
                })
            }
            TExpr::Unary { op, expr } => {
                let v = self.expr(fx, b, expr)?;
                let Shape::Prim(kind) = v.shape else {
                    return Err(TransError::new("unary operator on non-primitive"));
                };
                let dst = fx.fb.reg(Ty::of_prim(kind));
                match op {
                    UnOp::Neg => {
                        fx.fb.emit(Instr::Neg {
                            kind,
                            dst,
                            src: v.single()?,
                        });
                    }
                    UnOp::Not => {
                        fx.fb.emit(Instr::Not {
                            dst,
                            src: v.single()?,
                        });
                    }
                }
                Ok(Opnd {
                    shape: Shape::Prim(kind),
                    regs: vec![dst],
                })
            }
            TExpr::Binary {
                op,
                operand_kind,
                lhs,
                rhs,
            } => {
                // Short-circuit logical operators become control flow.
                if matches!(op, BinOp::And | BinOp::Or) {
                    return self.short_circuit(fx, op, b, lhs, rhs);
                }
                let l = self.expr(fx, b, lhs)?;
                let r = self.expr(fx, b, rhs)?;
                let out_kind = if op.is_comparison() {
                    PrimKind::Boolean
                } else {
                    operand_kind
                };
                let dst = fx.fb.reg(Ty::of_prim(out_kind));
                fx.fb.emit(Instr::Bin {
                    op,
                    kind: operand_kind,
                    dst,
                    lhs: l.single()?,
                    rhs: r.single()?,
                });
                Ok(Opnd {
                    shape: Shape::Prim(out_kind),
                    regs: vec![dst],
                })
            }
            TExpr::NumCast { to, expr } | TExpr::Convert { to, expr } => {
                let v = self.expr(fx, b, expr)?;
                let Shape::Prim(from) = v.shape else {
                    return Err(TransError::new("numeric cast on non-primitive"));
                };
                if from == to {
                    return Ok(v);
                }
                let dst = fx.fb.reg(Ty::of_prim(to));
                fx.fb.emit(Instr::Cast {
                    to,
                    from,
                    dst,
                    src: v.single()?,
                });
                Ok(Opnd {
                    shape: Shape::Prim(to),
                    regs: vec![dst],
                })
            }
            TExpr::RefCast { to, expr } => {
                let v = self.expr(fx, b, expr)?;
                if let (Some(c), Type::Object(want, _)) = (v.shape.class(), b.type_at(to)) {
                    if !self.table.is_subclass_of(c, *want) {
                        return Err(TransError::new(format!(
                            "cast of `{}` to `{}` can never succeed",
                            self.table.name(c),
                            self.table.name(*want)
                        )));
                    }
                }
                Ok(v)
            }
            TExpr::RefEq { .. } => Err(TransError::new(
                "reference equality cannot be translated (coding rule 7)",
            )),
            TExpr::InstanceOf { .. } => Err(TransError::new(
                "`instanceof` cannot be translated (coding rule 8)",
            )),
            TExpr::Null => Err(TransError::new(
                "`null` cannot be translated (coding rule 8)",
            )),
            TExpr::Str(_) => Err(TransError::new("strings cannot be translated")),
            TExpr::Ternary { .. } => Err(TransError::new(
                "the conditional operator cannot be translated (coding rule 7)",
            )),
        }
    }

    fn short_circuit(
        &mut self,
        fx: &mut FnCtx,
        op: BinOp,
        b: &TBody,
        lhs: TExprId,
        rhs: TExprId,
    ) -> TResult<Opnd> {
        let dst = fx.fb.reg(Ty::Bool);
        let l = self.expr(fx, b, lhs)?;
        fx.fb.emit(Instr::Mov(dst, l.single()?));
        let eval_rhs = fx.fb.label();
        let end = fx.fb.label();
        match op {
            BinOp::And => fx.fb.br(dst, eval_rhs, end),
            BinOp::Or => fx.fb.br(dst, end, eval_rhs),
            _ => unreachable!(),
        }
        fx.fb.bind(eval_rhs);
        let r = self.expr(fx, b, rhs)?;
        fx.fb.emit(Instr::Mov(dst, r.single()?));
        fx.fb.jmp(end);
        fx.fb.bind(end);
        Ok(Opnd {
            shape: Shape::Prim(PrimKind::Boolean),
            regs: vec![dst],
        })
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    /// Lower call or constructor arguments, left to right.
    fn arg_opnds(&mut self, fx: &mut FnCtx, b: &TBody, args: TArgs) -> TResult<Vec<Opnd>> {
        let mut out = Vec::with_capacity(args.len());
        for a in b.list(args) {
            out.push(self.expr(fx, b, a)?);
        }
        Ok(out)
    }

    /// Devirtualize (if `is_virtual`), specialize, and emit a call — or
    /// inline the callee when its flattened return has ≠1 leaves.
    fn call_resolved(
        &mut self,
        fx: &mut FnCtx,
        recv: Option<Opnd>,
        decl_class: ClassId,
        index: u32,
        (b, args): (&TBody, TArgs),
        is_virtual: bool,
    ) -> TResult<Option<Opnd>> {
        let decl = self.table.method(decl_class, index);
        // Resolve the implementation from the receiver's exact shape.
        let (ic, im) = match (&recv, is_virtual) {
            (Some(r), true) => {
                let class = r
                    .shape
                    .class()
                    .ok_or_else(|| TransError::new("virtual call on non-object shape"))?;
                let target = self.table.resolve_impl(class, &decl.name).ok_or_else(|| {
                    TransError::new(format!(
                        "no implementation of `{}` on `{}`",
                        decl.name,
                        self.table.name(class)
                    ))
                })?;
                self.stats.devirtualized_calls += 1;
                target
            }
            _ => (decl_class, index),
        };
        let target = self.table.method(ic, im);

        // Native intrinsic?
        let arg_opnds = self.arg_opnds(fx, b, args)?;
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
                        fx.fb.emit(Instr::Call {
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
                            fx.fb.emit(Instr::Call {
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
                            let dst = fx.fb.reg(ty);
                            fx.fb.emit(Instr::Call {
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
            Some(s) => s.leaf_tys().iter().map(|t| fx.fb.reg(*t)).collect(),
            None => Vec::new(),
        };
        let end = fx.fb.label();

        // Save the frame, install the callee's.
        let saved_env = std::mem::take(&mut fx.env);
        let saved_recv = fx.recv.take();
        let saved_ret = std::mem::replace(
            &mut fx.ret,
            RetMode::Inline {
                dest: dest.clone(),
                end,
            },
        );
        let saved_loops = std::mem::take(&mut fx.loops);
        fx.recv = recv.map(|r| self.copy_opnd(fx, &r));
        for (i, a) in args.iter().enumerate() {
            let copy = self.copy_opnd(fx, a);
            fx.env.insert(i as u32, copy);
        }
        let result = self.block(fx, body, block);
        fx.fb.jmp(end); // void fall-through
        fx.fb.bind(end);
        fx.env = saved_env;
        fx.recv = saved_recv;
        fx.ret = saved_ret;
        fx.loops = saved_loops;
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
            fx.fb.emit(Instr::Sync);
            return Ok(None);
        }
        if key == "cuda.sharedF32" {
            // The reproduction's spelling of the paper's `@Shared` fields:
            // a per-block shared-memory allocation intrinsic.
            let len = args
                .first()
                .ok_or_else(|| TransError::new("cuda.sharedF32 needs a length"))?
                .single()?;
            let dst = fx.fb.reg(Ty::Arr(ElemTy::F32));
            fx.fb.emit(Instr::SharedAlloc {
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
        let ret_shape = native_return_shape(self.table, &m.ret, key)?;
        // Built-in intrinsic, or a user-registered foreign function (the
        // paper's FFI mechanism): unknown keys become direct host calls.
        let dst = ret_shape.as_ref().map(|s| fx.fb.reg(s.leaf_tys()[0]));
        let ins = match Intrinsic::by_key(key) {
            Some(row) => Instr::Intrin {
                op: row.op,
                args: regs,
                dst,
            },
            None => Instr::CallHost {
                host: self.host_fn_id(key, &args, &ret_shape, fx)?,
                args: regs,
                dst,
            },
        };
        fx.fb.emit(ins);
        Ok(ret_shape.map(|shape| Opnd {
            shape,
            regs: dst.into_iter().collect(),
        }))
    }

    /// Find or register the host-function signature for `key`.
    fn host_fn_id(
        &mut self,
        key: &str,
        args: &[Opnd],
        ret: &Option<Shape>,
        fx: &FnCtx,
    ) -> TResult<u32> {
        if fx.device {
            return Err(TransError::new(format!(
                "foreign function `{key}` cannot be called from GPU code"
            )));
        }
        if let Some(i) = self.program.host_fns.iter().position(|h| h.name == key) {
            return Ok(i as u32);
        }
        let params: Vec<Ty> = args
            .iter()
            .map(|a| match &a.shape {
                Shape::Prim(k) => Ok(Ty::of_prim(*k)),
                Shape::Arr(e) => Ok(Ty::Arr(*e)),
                Shape::Obj { .. } => Err(TransError::new(format!(
                    "foreign function `{key}` cannot take object arguments"
                ))),
            })
            .collect::<TResult<_>>()?;
        let ret_ty = ret.as_ref().map(|s| s.leaf_tys()[0]);
        self.program.host_fns.push(nir::HostFnSig {
            name: key.to_string(),
            params,
            ret: ret_ty,
        });
        Ok(self.program.host_fns.len() as u32 - 1)
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
        fx.fb.emit(Instr::Launch {
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
                    let dst = fx.fb.reg(heap_ty(fshape));
                    fx.fb.emit(Instr::GetField {
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

    /// Lower `new class(args)` by inlining the entire constructor chain.
    fn lower_new(&mut self, fx: &mut FnCtx, class: ClassId, args: Vec<Opnd>) -> TResult<Opnd> {
        let size = self.table.class(class).instance_size() as usize;
        let mut fields: Vec<Option<Opnd>> = vec![None; size];
        self.run_ctor(fx, class, args, &mut fields)?;
        self.stats.inlined_ctors += 1;
        // Assemble the object value.
        let mut field_shapes = Vec::with_capacity(size);
        let mut all_regs = Vec::new();
        for (slot, f) in fields.iter().enumerate() {
            match f {
                Some(op) => {
                    field_shapes.push(op.shape.clone());
                    all_regs.extend(&op.regs);
                }
                None => {
                    // Default-initialize primitives like Java.
                    let decl = self.field_decl_shape(class, slot as u32)?;
                    match decl {
                        Shape::Prim(k) => {
                            field_shapes.push(Shape::Prim(k));
                            all_regs.push(fx.fb.constant(ConstVal::zero(k)));
                        }
                        other => {
                            return Err(TransError::new(format!(
                                "field slot {slot} of `{}` ({}) is never assigned by a constructor",
                                self.table.name(class),
                                other.show(self.table)
                            )))
                        }
                    }
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
            let obj = fx.fb.reg(Ty::Obj);
            fx.fb.emit(Instr::NewObj {
                class: class.0,
                dst: obj,
            });
            // Heap mode: every field value is one register, a scalar or
            // an object reference.
            debug_assert_eq!(all_regs.len(), size);
            for (slot, src) in all_regs.into_iter().enumerate() {
                fx.fb.emit(Instr::PutField {
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

    fn field_decl_shape(&self, class: ClassId, slot: u32) -> TResult<Shape> {
        for (cid, cargs) in self.table.super_chain(class) {
            let info = self.table.class(cid);
            let base = info.field_base;
            if slot >= base && slot < base + info.fields.len() as u32 {
                let ty = info.fields[(slot - base) as usize].ty.subst(&cargs);
                return shape_from_decl(self.table, &ty)
                    .ok_or_else(|| TransError::new("unassigned object field in constructor"));
            }
        }
        Err(TransError::new("field slot out of range"))
    }

    /// Execute a constructor chain at translation time, emitting code for
    /// field-value computations into the current function.
    fn run_ctor(
        &mut self,
        fx: &mut FnCtx,
        class: ClassId,
        args: Vec<Opnd>,
        fields: &mut Vec<Option<Opnd>>,
    ) -> TResult<()> {
        let info = self.table.class(class);
        let Some(ctor) = &info.ctor else {
            return Err(TransError::new(format!(
                "`{}` has no constructor",
                info.name
            )));
        };
        self.trace_body(class, incr::MemberRef::Ctor);
        if ctor.params.len() != args.len() {
            return Err(TransError::new(format!(
                "constructor of `{}` arity mismatch",
                info.name
            )));
        }
        // Install the constructor frame.
        let saved_env = std::mem::take(&mut fx.env);
        let saved_recv = fx.recv.take();
        let saved_ctor = fx.ctor_fields.take();
        for (i, a) in args.into_iter().enumerate() {
            fx.env.insert(i as u32, a);
        }
        let typed = ctor.typed_body();
        // `fields` is threaded explicitly: super constructors share it.
        let result = (|| -> TResult<()> {
            // 1. super constructor.
            if let Some((sid, _)) = &info.superclass {
                if *sid != jlang::OBJECT {
                    // Temporarily expose the shared field frame for
                    // GetField(this) inside super argument expressions.
                    fx.ctor_fields = Some(std::mem::take(fields));
                    let sargs = match typed {
                        Some((b, args, _)) => self.arg_opnds(fx, b, args)?,
                        None => Vec::new(),
                    };
                    // Installed above; a nested `run_ctor` restores it.
                    *fields = fx.ctor_fields.take().unwrap();
                    // Recursive constructor run uses its own env.
                    let saved = std::mem::take(&mut fx.env);
                    self.run_ctor(fx, *sid, sargs, fields)?;
                    fx.env = saved;
                }
            }
            // 2. field initializers, 3. body — both with the frame visible.
            fx.ctor_fields = Some(std::mem::take(fields));
            for (i, f) in info.fields.iter().enumerate() {
                if let Some((init, value)) = f.typed_init() {
                    let v = self.expr(fx, init, value)?;
                    let v = self.copy_opnd(fx, &v);
                    // Installed above; a nested `run_ctor` restores it.
                    fx.ctor_fields.as_mut().unwrap()[(info.field_base + i as u32) as usize] =
                        Some(v);
                }
            }
            if let Some((b, _, body)) = typed {
                self.ctor_block(fx, b, body)?;
            }
            // Installed above; a nested `run_ctor` restores it.
            *fields = fx.ctor_fields.take().unwrap();
            Ok(())
        })();
        fx.env = saved_env;
        fx.recv = saved_recv;
        // Restore the outer ctor frame unconditionally: on success the
        // inner frame was already moved back into `fields`; on error any
        // leftover inner frame must be dropped.
        fx.ctor_fields = saved_ctor;
        result
    }

    /// Constructor bodies: assignments and locals only.
    fn ctor_block(&mut self, fx: &mut FnCtx, b: &TBody, body: TBlock) -> TResult<()> {
        for s in b.list(body) {
            match b.stmt(s) {
                TStmt::Local { .. } | TStmt::AssignLocal { .. } => self.stmt(fx, b, s)?,
                TStmt::AssignField { obj, field, value } => {
                    if b.expr(obj) != TExpr::This {
                        return Err(TransError::new(
                            "constructor assigns a field of another object",
                        ));
                    }
                    let v = self.expr(fx, b, value)?;
                    let v = self.copy_opnd(fx, &v);
                    // Only `run_ctor` calls this, with the frame installed.
                    fx.ctor_fields.as_mut().unwrap()[field.slot as usize] = Some(v);
                }
                TStmt::Block(block) => self.ctor_block(fx, b, block)?,
                _ => {
                    return Err(TransError::new(format!(
                        "constructor statement at line {} breaks semi-immutability",
                        b.stmt_span(s).line
                    )))
                }
            }
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

fn elem_prim(e: ElemTy) -> PrimKind {
    match e {
        ElemTy::I32 => PrimKind::Int,
        ElemTy::I64 => PrimKind::Long,
        ElemTy::F32 => PrimKind::Float,
        ElemTy::F64 => PrimKind::Double,
        ElemTy::Bool => PrimKind::Boolean,
    }
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
