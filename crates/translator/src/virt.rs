//! Virtual-dispatch lowering — the paper's *C++* baseline.
//!
//! One function per `(class, method)` with heap objects and vtable
//! dispatch at every virtual call site. No shape analysis, no
//! specialization, no object inlining: this is the configuration whose
//! overheads Figure 3 demonstrates and that WootinJ exists to eliminate.
//!
//! `@Global` kernels are not supported in this mode: the paper itself
//! could not use virtual calls in CUDA kernels ("virtual function calls by
//! -> operator in CUDA on GPUs were unstable") — GPU figures compare the
//! devirtualized configurations.

use std::collections::HashMap;

use jlang::ast::{BinOp, UnOp};
use jlang::table::ClassTable;
use jlang::tast::{TArgs, TBlock, TBody, TExpr, TExprId, TStmt, TStmtId};
use jlang::types::{ClassId, PrimKind, Type};
use nir::{FuncBuilder, FuncId, FuncKind, Instr, Intrinsic, Label, Program, Reg, Ty};

use crate::lower::{static_const, TransStats};
use crate::shape::{elem_ty_of, TransError};
use crate::TResult;

pub struct VirtLowerer<'t> {
    pub table: &'t ClassTable,
    pub program: Program,
    methods: HashMap<(ClassId, u32), FuncId>,
    ctors: HashMap<ClassId, FuncId>,
    selectors: HashMap<String, u32>,
    /// Impls that failed to compile (e.g. GPU-only code on this path);
    /// only fatal if actually required.
    pub skipped: Vec<(String, String)>,
    pub stats: TransStats,
}

struct VCtx {
    fb: FuncBuilder,
    env: HashMap<u32, Reg>,
    recv: Option<Reg>,
    ret_ty: Option<Ty>,
    loops: Vec<(Label, Label)>,
}

impl<'t> VirtLowerer<'t> {
    pub fn new(table: &'t ClassTable) -> Self {
        let mut program = Program::default();
        for info in table.iter() {
            program.classes.push(nir::ClassMeta {
                name: info.name.clone(),
                field_count: info.instance_size(),
                vtable: Vec::new(),
            });
        }
        VirtLowerer {
            table,
            program,
            methods: HashMap::new(),
            ctors: HashMap::new(),
            selectors: HashMap::new(),
            skipped: Vec::new(),
            stats: TransStats::default(),
        }
    }

    fn selector(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.selectors.get(name) {
            return s;
        }
        let id = self.program.selectors.len() as u32;
        self.program.selectors.push(name.to_string());
        self.selectors.insert(name.to_string(), id);
        id
    }

    /// Compile the entry method, close over the needed vtables, and
    /// return the entry function.
    pub fn compile_entry(&mut self, class: ClassId, method: u32) -> TResult<FuncId> {
        let entry = self.method_func(class, method)?;
        // Fixed point: every selector must have vtable entries on every
        // class that could serve as a receiver.
        loop {
            let selector_names: Vec<(u32, String)> = self
                .program
                .selectors
                .iter()
                .enumerate()
                .map(|(i, s)| (i as u32, s.clone()))
                .collect();
            let mut changed = false;
            for info in self.table.iter() {
                if info.is_interface || info.is_abstract {
                    continue;
                }
                for (sel, name) in &selector_names {
                    if self.program.classes[info.id.0 as usize]
                        .vtable
                        .iter()
                        .any(|(s, _)| s == sel)
                    {
                        continue;
                    }
                    let Some((ic, im)) = self.table.resolve_impl(info.id, name) else {
                        continue;
                    };
                    if self.table.method(ic, im).is_global {
                        continue; // kernels unsupported here
                    }
                    match self.method_func(ic, im) {
                        Ok(f) => {
                            self.program.classes[info.id.0 as usize]
                                .vtable
                                .push((*sel, f));
                            changed = true;
                        }
                        Err(e) => {
                            self.skipped
                                .push((format!("{}::{}", self.table.name(ic), name), e.message));
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Ok(entry)
    }

    /// Compile (or fetch) the generic function for `(class, method)`.
    fn method_func(&mut self, class: ClassId, method: u32) -> TResult<FuncId> {
        if let Some(&f) = self.methods.get(&(class, method)) {
            return Ok(f);
        }
        let m = self.table.method(class, method);
        if m.is_global {
            return Err(TransError::new(format!(
                "@Global `{}` cannot be translated with virtual dispatch; \
                 the paper's C++ baseline likewise avoids virtual calls in kernels",
                m.name
            )));
        }
        if m.native.is_some() {
            return Err(TransError::new("native methods are inlined at call sites"));
        }
        let Some((body, block)) = m.typed_body() else {
            return Err(TransError::new(format!(
                "abstract method `{}::{}` has no body",
                self.table.name(class),
                m.name
            )));
        };
        // Reserve the slot to break cycles (recursion is legal here! The
        // C++ baseline has no coding-rule restrictions).
        let placeholder =
            self.reserve_placeholder(&format!("{}_{}_v", self.table.name(class), m.name));
        self.methods.insert((class, method), placeholder);

        let mut params = Vec::new();
        if !m.is_static {
            params.push(Ty::Obj);
        }
        for p in &m.params {
            params.push(decl_ty(&p.ty)?);
        }
        let ret_ty = match &m.ret {
            Type::Void => None,
            t => Some(decl_ty(t)?),
        };
        let fb = FuncBuilder::new(
            self.program.funcs[placeholder.0 as usize].name.clone(),
            params,
            ret_ty,
            FuncKind::Host,
        );
        let mut next = 0u32;
        let recv = if m.is_static {
            None
        } else {
            next += 1;
            Some(0)
        };
        let mut env = HashMap::new();
        for (i, _) in m.params.iter().enumerate() {
            env.insert(i as u32, next);
            next += 1;
        }
        let mut cx = VCtx {
            fb,
            env,
            recv,
            ret_ty,
            loops: Vec::new(),
        };
        self.block(&mut cx, body, block)?;
        let f = cx.fb.finish().map_err(TransError::new)?;
        *self.program.func_mut(placeholder) = f;
        self.stats.specializations += 1;
        Ok(placeholder)
    }

    fn reserve_placeholder(&mut self, name: &str) -> FuncId {
        let mut final_name = name.to_string();
        let mut i = 2;
        while self.program.funcs.iter().any(|f| f.name == final_name) {
            final_name = format!("{name}_{i}");
            i += 1;
        }
        let mut fb = FuncBuilder::new(final_name, vec![], None, FuncKind::Host);
        fb.emit(Instr::Ret(None));
        // A parameterless `return;` always validates.
        self.program.add_func(fb.finish().unwrap())
    }

    /// Compile (or fetch) the constructor function of `class`:
    /// `C_init(obj, params...)` running super ctor, field inits, body.
    fn ctor_func(&mut self, class: ClassId) -> TResult<FuncId> {
        if let Some(&f) = self.ctors.get(&class) {
            return Ok(f);
        }
        let info = self.table.class(class);
        let Some(ctor) = &info.ctor else {
            return Err(TransError::new(format!(
                "`{}` has no constructor",
                info.name
            )));
        };
        let placeholder = self.reserve_placeholder(&format!("{}_init", info.name));
        self.ctors.insert(class, placeholder);

        let mut params = vec![Ty::Obj];
        for p in &ctor.params {
            params.push(decl_ty(&p.ty)?);
        }
        let fb = FuncBuilder::new(
            self.program.funcs[placeholder.0 as usize].name.clone(),
            params,
            None,
            FuncKind::Host,
        );
        let mut env = HashMap::new();
        for (i, _) in ctor.params.iter().enumerate() {
            env.insert(i as u32, i as u32 + 1);
        }
        let mut cx = VCtx {
            fb,
            env,
            recv: Some(0),
            ret_ty: None,
            loops: Vec::new(),
        };
        let typed = ctor.typed_body();
        // 1. super constructor.
        if let Some((sid, _)) = &info.superclass {
            if *sid != jlang::OBJECT {
                let mut sargs = vec![0];
                if let Some((b, args, _)) = typed {
                    sargs.extend(self.args(&mut cx, b, args)?);
                }
                let sf = self.ctor_func(*sid)?;
                cx.fb.emit(Instr::Call {
                    func: sf,
                    args: sargs,
                    dst: None,
                });
            }
        }
        // 2. field initializers.
        for (i, f) in info.fields.iter().enumerate() {
            if let Some((init, value)) = f.typed_init() {
                let v = self.expr(&mut cx, init, value)?;
                cx.fb.emit(Instr::PutField {
                    obj: 0,
                    slot: info.field_base + i as u32,
                    src: v,
                });
            }
        }
        // 3. body.
        if let Some((b, _, body)) = typed {
            self.block(&mut cx, b, body)?;
        }
        let f = cx.fb.finish().map_err(TransError::new)?;
        *self.program.func_mut(placeholder) = f;
        Ok(placeholder)
    }

    fn block(&mut self, cx: &mut VCtx, b: &TBody, block: TBlock) -> TResult<()> {
        for s in b.list(block) {
            self.stmt(cx, b, s)?;
        }
        Ok(())
    }

    /// Lower call or constructor arguments, left to right.
    fn args(&mut self, cx: &mut VCtx, b: &TBody, args: TArgs) -> TResult<Vec<Reg>> {
        let mut out = Vec::with_capacity(args.len());
        for a in b.list(args) {
            out.push(self.expr(cx, b, a)?);
        }
        Ok(out)
    }

    fn stmt(&mut self, cx: &mut VCtx, b: &TBody, s: TStmtId) -> TResult<()> {
        match b.stmt(s) {
            TStmt::Local { slot, ty, init } => {
                let ty = b.type_at(ty);
                let ty_n = decl_ty(ty)?;
                let r = cx.fb.reg(ty_n);
                match init {
                    Some(e) => {
                        let v = self.expr(cx, b, e)?;
                        cx.fb.emit(Instr::Mov(r, v));
                    }
                    None => {
                        if let Some(k) = ty.prim_kind() {
                            cx.fb.emit(zero(k, r));
                        }
                    }
                }
                cx.env.insert(slot, r);
                Ok(())
            }
            TStmt::AssignLocal { slot, value } => {
                let v = self.expr(cx, b, value)?;
                let r = *cx.env.get(&slot).ok_or_else(|| {
                    TransError::new(format!("assignment to undeclared slot {slot}"))
                })?;
                cx.fb.emit(Instr::Mov(r, v));
                Ok(())
            }
            TStmt::AssignField { obj, field, value } => {
                let o = self.expr(cx, b, obj)?;
                let v = self.expr(cx, b, value)?;
                cx.fb.emit(Instr::PutField {
                    obj: o,
                    slot: field.slot,
                    src: v,
                });
                Ok(())
            }
            TStmt::AssignStatic { .. } => Err(TransError::new(
                "assignment to a static field cannot be translated",
            )),
            TStmt::AssignIndex { arr, idx, value } => {
                let a = self.expr(cx, b, arr)?;
                let i = self.expr(cx, b, idx)?;
                let v = self.expr(cx, b, value)?;
                cx.fb.emit(Instr::StArr {
                    arr: a,
                    idx: i,
                    src: v,
                });
                Ok(())
            }
            TStmt::Expr(e) => {
                self.expr_maybe_void(cx, b, e)?;
                Ok(())
            }
            TStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.expr(cx, b, cond)?;
                let tl = cx.fb.label();
                let el = cx.fb.label();
                let end = cx.fb.label();
                cx.fb.br(c, tl, el);
                cx.fb.bind(tl);
                self.block(cx, b, then_branch)?;
                cx.fb.jmp(end);
                cx.fb.bind(el);
                if let Some(e) = else_branch {
                    self.block(cx, b, e)?;
                }
                cx.fb.jmp(end);
                cx.fb.bind(end);
                Ok(())
            }
            TStmt::While { cond, body } => {
                let head = cx.fb.label();
                let bodyl = cx.fb.label();
                let end = cx.fb.label();
                cx.fb.jmp(head);
                cx.fb.bind(head);
                let c = self.expr(cx, b, cond)?;
                cx.fb.br(c, bodyl, end);
                cx.fb.bind(bodyl);
                cx.loops.push((head, end));
                self.block(cx, b, body)?;
                cx.loops.pop();
                cx.fb.jmp(head);
                cx.fb.bind(end);
                Ok(())
            }
            TStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(cx, b, i)?;
                }
                let head = cx.fb.label();
                let bodyl = cx.fb.label();
                let cont = cx.fb.label();
                let end = cx.fb.label();
                cx.fb.jmp(head);
                cx.fb.bind(head);
                match cond {
                    Some(c) => {
                        let cv = self.expr(cx, b, c)?;
                        cx.fb.br(cv, bodyl, end);
                    }
                    None => cx.fb.jmp(bodyl),
                }
                cx.fb.bind(bodyl);
                cx.loops.push((cont, end));
                self.block(cx, b, body)?;
                cx.loops.pop();
                cx.fb.jmp(cont);
                cx.fb.bind(cont);
                if let Some(u) = update {
                    self.stmt(cx, b, u)?;
                }
                cx.fb.jmp(head);
                cx.fb.bind(end);
                Ok(())
            }
            TStmt::Return { value } => {
                match value {
                    Some(e) => {
                        let v = self.expr(cx, b, e)?;
                        cx.fb.emit(Instr::Ret(Some(v)));
                    }
                    None => {
                        cx.fb.emit(Instr::Ret(None));
                    }
                }
                Ok(())
            }
            TStmt::Break => {
                let (_, brk) = *cx
                    .loops
                    .last()
                    .ok_or_else(|| TransError::new("break outside loop"))?;
                cx.fb.jmp(brk);
                Ok(())
            }
            TStmt::Continue => {
                let (cont, _) = *cx
                    .loops
                    .last()
                    .ok_or_else(|| TransError::new("continue outside loop"))?;
                cx.fb.jmp(cont);
                Ok(())
            }
            TStmt::Block(block) => self.block(cx, b, block),
        }
    }

    fn expr_maybe_void(&mut self, cx: &mut VCtx, b: &TBody, e: TExprId) -> TResult<Option<Reg>> {
        match b.expr(e) {
            TExpr::Call { recv, method, args } => {
                let r = self.expr(cx, b, recv)?;
                self.call(
                    cx,
                    Some(r),
                    method.decl_class,
                    method.index,
                    (b, args),
                    true,
                    b.ty(e),
                )
            }
            TExpr::DirectCall { recv, method, args } => {
                let r = self.expr(cx, b, recv)?;
                self.call(
                    cx,
                    Some(r),
                    method.decl_class,
                    method.index,
                    (b, args),
                    false,
                    b.ty(e),
                )
            }
            TExpr::StaticCall { class, index, args } => {
                self.call(cx, None, class, index, (b, args), false, b.ty(e))
            }
            _ => Ok(Some(self.expr(cx, b, e)?)),
        }
    }

    fn expr(&mut self, cx: &mut VCtx, b: &TBody, e: TExprId) -> TResult<Reg> {
        match b.expr(e) {
            TExpr::Int(v) => {
                let r = cx.fb.reg(Ty::I32);
                cx.fb.emit(Instr::ConstI32(r, v));
                Ok(r)
            }
            TExpr::Long(v) => {
                let r = cx.fb.reg(Ty::I64);
                cx.fb.emit(Instr::ConstI64(r, v));
                Ok(r)
            }
            TExpr::Float(v) => {
                let r = cx.fb.reg(Ty::F32);
                cx.fb.emit(Instr::ConstF32(r, v));
                Ok(r)
            }
            TExpr::Double(v) => {
                let r = cx.fb.reg(Ty::F64);
                cx.fb.emit(Instr::ConstF64(r, v));
                Ok(r)
            }
            TExpr::Bool(v) => {
                let r = cx.fb.reg(Ty::Bool);
                cx.fb.emit(Instr::ConstBool(r, v));
                Ok(r)
            }
            TExpr::Local(slot) => cx
                .env
                .get(&slot)
                .copied()
                .ok_or_else(|| TransError::new(format!("unassigned slot {slot}"))),
            TExpr::This => cx
                .recv
                .ok_or_else(|| TransError::new("`this` in static context")),
            TExpr::GetField { obj, field } => {
                let o = self.expr(cx, b, obj)?;
                let dst = cx.fb.reg(decl_ty(b.type_at(field.ty))?);
                cx.fb.emit(Instr::GetField {
                    obj: o,
                    slot: field.slot,
                    dst,
                });
                Ok(dst)
            }
            TExpr::GetStatic { class, index } => {
                let cv = static_const(self.table, class, index)?;
                Ok(emit_const(cx, cv))
            }
            TExpr::Call { recv, method, args } => {
                let r = self.expr(cx, b, recv)?;
                self.call(
                    cx,
                    Some(r),
                    method.decl_class,
                    method.index,
                    (b, args),
                    true,
                    b.ty(e),
                )?
                .ok_or_else(|| TransError::new("void call used as a value"))
            }
            TExpr::DirectCall { recv, method, args } => {
                let r = self.expr(cx, b, recv)?;
                self.call(
                    cx,
                    Some(r),
                    method.decl_class,
                    method.index,
                    (b, args),
                    false,
                    b.ty(e),
                )?
                .ok_or_else(|| TransError::new("void call used as a value"))
            }
            TExpr::StaticCall { class, index, args } => self
                .call(cx, None, class, index, (b, args), false, b.ty(e))?
                .ok_or_else(|| TransError::new("void call used as a value")),
            TExpr::New { class, args } => {
                let obj = cx.fb.reg(Ty::Obj);
                cx.fb.emit(Instr::NewObj {
                    class: class.0,
                    dst: obj,
                });
                let cf = self.ctor_func(class)?;
                let mut argv = vec![obj];
                argv.extend(self.args(cx, b, args)?);
                cx.fb.emit(Instr::Call {
                    func: cf,
                    args: argv,
                    dst: None,
                });
                Ok(obj)
            }
            TExpr::NewArray { elem, len } => {
                let et = elem_ty_of(b.type_at(elem))
                    .ok_or_else(|| TransError::new("only primitive arrays can be translated"))?;
                let l = self.expr(cx, b, len)?;
                let dst = cx.fb.reg(Ty::Arr(et));
                cx.fb.emit(Instr::NewArr {
                    elem: et,
                    len: l,
                    dst,
                });
                Ok(dst)
            }
            TExpr::Index { arr, idx } => {
                let a = self.expr(cx, b, arr)?;
                let i = self.expr(cx, b, idx)?;
                let dst = cx.fb.reg(decl_ty(b.ty(e))?);
                cx.fb.emit(Instr::LdArr {
                    arr: a,
                    idx: i,
                    dst,
                });
                Ok(dst)
            }
            TExpr::ArrayLen(a) => {
                let arr = self.expr(cx, b, a)?;
                let dst = cx.fb.reg(Ty::I32);
                cx.fb.emit(Instr::ArrLen { arr, dst });
                Ok(dst)
            }
            TExpr::Unary { op, expr } => {
                let v = self.expr(cx, b, expr)?;
                let k = expr_kind(b, e)?;
                let dst = cx.fb.reg(Ty::of_prim(k));
                match op {
                    UnOp::Neg => {
                        cx.fb.emit(Instr::Neg {
                            kind: k,
                            dst,
                            src: v,
                        });
                    }
                    UnOp::Not => {
                        cx.fb.emit(Instr::Not { dst, src: v });
                    }
                }
                Ok(dst)
            }
            TExpr::Binary {
                op,
                operand_kind,
                lhs,
                rhs,
            } => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    let dst = cx.fb.reg(Ty::Bool);
                    let l = self.expr(cx, b, lhs)?;
                    cx.fb.emit(Instr::Mov(dst, l));
                    let eval_rhs = cx.fb.label();
                    let end = cx.fb.label();
                    match op {
                        BinOp::And => cx.fb.br(dst, eval_rhs, end),
                        BinOp::Or => cx.fb.br(dst, end, eval_rhs),
                        _ => unreachable!(),
                    }
                    cx.fb.bind(eval_rhs);
                    let r = self.expr(cx, b, rhs)?;
                    cx.fb.emit(Instr::Mov(dst, r));
                    cx.fb.jmp(end);
                    cx.fb.bind(end);
                    return Ok(dst);
                }
                let l = self.expr(cx, b, lhs)?;
                let r = self.expr(cx, b, rhs)?;
                let out = if op.is_comparison() {
                    PrimKind::Boolean
                } else {
                    operand_kind
                };
                let dst = cx.fb.reg(Ty::of_prim(out));
                cx.fb.emit(Instr::Bin {
                    op,
                    kind: operand_kind,
                    dst,
                    lhs: l,
                    rhs: r,
                });
                Ok(dst)
            }
            TExpr::NumCast { to, expr } | TExpr::Convert { to, expr } => {
                let v = self.expr(cx, b, expr)?;
                let from = expr_kind(b, expr)?;
                if from == to {
                    return Ok(v);
                }
                let dst = cx.fb.reg(Ty::of_prim(to));
                cx.fb.emit(Instr::Cast {
                    to,
                    from,
                    dst,
                    src: v,
                });
                Ok(dst)
            }
            TExpr::RefCast { expr, .. } => self.expr(cx, b, expr),
            TExpr::RefEq { .. }
            | TExpr::InstanceOf { .. }
            | TExpr::Null
            | TExpr::Str(_)
            | TExpr::Ternary { .. } => Err(TransError::new(
                "construct forbidden by the coding rules cannot be translated",
            )),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        cx: &mut VCtx,
        recv: Option<Reg>,
        decl_class: ClassId,
        index: u32,
        (b, args): (&TBody, TArgs),
        is_virtual: bool,
        ret_ty: &Type,
    ) -> TResult<Option<Reg>> {
        let decl = self.table.method(decl_class, index);
        // Natives are intrinsics in every mode.
        if let Some(key) = &decl.native {
            if key == "cuda.sync" {
                cx.fb.emit(Instr::Sync);
                return Ok(None);
            }
            if key == "cuda.sharedF32" {
                return Err(TransError::new(
                    "shared memory requires a kernel; the virtual-dispatch baseline has none",
                ));
            }
            let regs = self.args(cx, b, args)?;
            let ret = match ret_ty {
                Type::Void => None,
                t => Some(decl_ty(t)?),
            };
            let dst = ret.map(|t| cx.fb.reg(t));
            let ins = match Intrinsic::by_key(key) {
                Some(row) => Instr::Intrin {
                    op: row.op,
                    args: regs,
                    dst,
                },
                // User-registered foreign function (the paper's FFI).
                None => {
                    let known = self.program.host_fns.iter().position(|h| h.name == *key);
                    let host = match known {
                        Some(i) => i as u32,
                        None => {
                            let params: Vec<Ty> = decl
                                .params
                                .iter()
                                .map(|p| decl_ty(&p.ty))
                                .collect::<TResult<_>>()?;
                            self.program.host_fns.push(nir::HostFnSig {
                                name: key.clone(),
                                params,
                                ret,
                            });
                            self.program.host_fns.len() as u32 - 1
                        }
                    };
                    Instr::CallHost {
                        host,
                        args: regs,
                        dst,
                    }
                }
            };
            cx.fb.emit(ins);
            return Ok(dst);
        }
        if decl.is_global {
            return Err(TransError::new(
                "@Global kernels cannot be translated with virtual dispatch (paper §4: \
                 virtual calls in CUDA kernels were avoided); use the Devirt or Full mode",
            ));
        }
        let argv = self.args(cx, b, args)?;
        let dst = match ret_ty {
            Type::Void => None,
            t => Some(cx.fb.reg(decl_ty(t)?)),
        };
        match (recv, is_virtual) {
            (Some(r), true) => {
                let sel = self.selector(&decl.name);
                self.stats.virtual_calls += 1;
                cx.fb.emit(Instr::CallVirt {
                    selector: sel,
                    recv: r,
                    args: argv,
                    dst,
                });
            }
            (Some(r), false) => {
                // super call: direct, non-virtual.
                let f = self.method_func(decl_class, index)?;
                let mut all = vec![r];
                all.extend(argv);
                cx.fb.emit(Instr::Call {
                    func: f,
                    args: all,
                    dst,
                });
            }
            (None, _) => {
                let f = self.method_func(decl_class, index)?;
                cx.fb.emit(Instr::Call {
                    func: f,
                    args: argv,
                    dst,
                });
            }
        }
        let _ = &cx.ret_ty;
        Ok(dst)
    }
}

/// NIR register type for a declared jlang type.
fn decl_ty(t: &Type) -> TResult<Ty> {
    Ok(match t {
        Type::Int => Ty::I32,
        Type::Long => Ty::I64,
        Type::Float => Ty::F32,
        Type::Double => Ty::F64,
        Type::Boolean => Ty::Bool,
        Type::Array(e) => Ty::Arr(
            elem_ty_of(e)
                .ok_or_else(|| TransError::new("only primitive arrays can be translated"))?,
        ),
        Type::Object(..) | Type::Var(_) => Ty::Obj,
        other => return Err(TransError::new(format!("untranslatable type {other}"))),
    })
}

fn expr_kind(b: &TBody, e: TExprId) -> TResult<PrimKind> {
    b.ty(e)
        .prim_kind()
        .ok_or_else(|| TransError::new("expected a primitive expression"))
}

fn zero(kind: PrimKind, r: Reg) -> Instr {
    match kind {
        PrimKind::Int => Instr::ConstI32(r, 0),
        PrimKind::Long => Instr::ConstI64(r, 0),
        PrimKind::Float => Instr::ConstF32(r, 0.0),
        PrimKind::Double => Instr::ConstF64(r, 0.0),
        PrimKind::Boolean => Instr::ConstBool(r, false),
    }
}

fn emit_const(cx: &mut VCtx, cv: nir::ConstVal) -> Reg {
    match cv {
        nir::ConstVal::I32(v) => {
            let r = cx.fb.reg(Ty::I32);
            cx.fb.emit(Instr::ConstI32(r, v));
            r
        }
        nir::ConstVal::I64(v) => {
            let r = cx.fb.reg(Ty::I64);
            cx.fb.emit(Instr::ConstI64(r, v));
            r
        }
        nir::ConstVal::F32(v) => {
            let r = cx.fb.reg(Ty::F32);
            cx.fb.emit(Instr::ConstF32(r, v));
            r
        }
        nir::ConstVal::F64(v) => {
            let r = cx.fb.reg(Ty::F64);
            cx.fb.emit(Instr::ConstF64(r, v));
            r
        }
        nir::ConstVal::Bool(v) => {
            let r = cx.fb.reg(Ty::Bool);
            cx.fb.emit(Instr::ConstBool(r, v));
            r
        }
    }
}
