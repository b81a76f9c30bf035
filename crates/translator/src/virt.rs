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

use jlang::table::ClassTable;
use jlang::tast::{FieldSel, MethodSel, TArgs, TBody, TExprId};
use jlang::types::{ClassId, Type};
use nir::{ConstVal, FuncBuilder, FuncId, FuncKind, Instr, Intrinsic, Program, Reg, Ty};

use crate::lower::TransStats;
use crate::shape::{decl_ty, TransError};
use crate::walk::{self, Frame, Lower};
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
        let mut cx = Frame::new(fb, recv, env);
        walk::block(self, &mut cx, body, block)?;
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
    /// `C_init(obj, params...)`, which runs the chain as [`walk::ctor`]
    /// orders it and calls the superclass's `C_init` for `super(...)`.
    /// Unlike the shaped modes' inline run, it may branch, call and pass
    /// `this`: this mode has no coding-rule restrictions.
    fn ctor_func(&mut self, class: ClassId) -> TResult<FuncId> {
        if let Some(&f) = self.ctors.get(&class) {
            return Ok(f);
        }
        let ctor = walk::ctor_of(self.table, class)?;
        let placeholder = self.reserve_placeholder(&format!("{}_init", self.table.name(class)));
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
        let mut cx = Frame::new(fb, Some(0), HashMap::new());
        let table = self.table;
        walk::ctor(
            self,
            &mut cx,
            table,
            class,
            (1..=ctor.params.len() as Reg).collect(),
        )?;
        let f = cx.fb.finish().map_err(TransError::new)?;
        *self.program.func_mut(placeholder) = f;
        Ok(placeholder)
    }
}

impl Lower for VirtLowerer<'_> {
    type V = Reg;
    type Cx = Frame<Reg>;

    fn table(&self) -> &ClassTable {
        self.table
    }

    fn frame(cx: &mut Frame<Reg>) -> &mut Frame<Reg> {
        cx
    }

    fn reg(v: &Reg) -> TResult<Reg> {
        Ok(*v)
    }

    fn scalar(r: Reg, _: Ty) -> Reg {
        r
    }

    fn local(
        &mut self,
        cx: &mut Frame<Reg>,
        b: &TBody,
        ty: &Type,
        init: Option<TExprId>,
    ) -> TResult<Reg> {
        let r = cx.fb.reg(decl_ty(ty)?);
        match init {
            Some(e) => {
                let v = walk::expr(self, cx, b, e)?;
                cx.fb.emit(Instr::Mov(r, v));
            }
            None => {
                if let Some(k) = ty.prim_kind() {
                    cx.fb.emit(ConstVal::zero(k).instr(r));
                }
            }
        }
        Ok(r)
    }

    fn assign_local(&mut self, cx: &mut Frame<Reg>, dst: &Reg, v: Reg) -> TResult<()> {
        cx.fb.emit(Instr::Mov(*dst, v));
        Ok(())
    }

    fn get_field(
        &mut self,
        cx: &mut Frame<Reg>,
        b: &TBody,
        obj: TExprId,
        field: FieldSel,
    ) -> TResult<Reg> {
        let o = walk::expr(self, cx, b, obj)?;
        let dst = cx.fb.reg(decl_ty(b.type_at(field.ty))?);
        cx.fb.emit(Instr::GetField {
            obj: o,
            slot: field.slot,
            dst,
        });
        Ok(dst)
    }

    fn put_field(
        &mut self,
        cx: &mut Frame<Reg>,
        b: &TBody,
        obj: TExprId,
        field: FieldSel,
        value: TExprId,
    ) -> TResult<()> {
        let o = walk::expr(self, cx, b, obj)?;
        let v = walk::expr(self, cx, b, value)?;
        cx.fb.emit(Instr::PutField {
            obj: o,
            slot: field.slot,
            src: v,
        });
        Ok(())
    }

    fn this(&mut self, cx: &mut Frame<Reg>) -> TResult<Reg> {
        cx.this()
    }

    fn ret(&mut self, cx: &mut Frame<Reg>, v: Option<Reg>) -> TResult<()> {
        cx.fb.emit(Instr::Ret(v));
        Ok(())
    }

    fn call(
        &mut self,
        cx: &mut Frame<Reg>,
        recv: Option<Reg>,
        method: MethodSel,
        (b, args): (&TBody, TArgs),
        is_virtual: bool,
        ret_ty: &Type,
    ) -> TResult<Option<Reg>> {
        let decl = self.table.method(method.decl_class, method.index);
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
            let regs = walk::args(self, cx, b, args)?;
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
                    let params = (decl.params.iter())
                        .map(|p| decl_ty(&p.ty))
                        .collect::<TResult<_>>()?;
                    Instr::CallHost {
                        host: self.program.host_fn(nir::HostFnSig {
                            name: key.clone(),
                            params,
                            ret,
                        }),
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
        let argv = walk::args(self, cx, b, args)?;
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
                let f = self.method_func(method.decl_class, method.index)?;
                let mut all = vec![r];
                all.extend(argv);
                cx.fb.emit(Instr::Call {
                    func: f,
                    args: all,
                    dst,
                });
            }
            (None, _) => {
                let f = self.method_func(method.decl_class, method.index)?;
                cx.fb.emit(Instr::Call {
                    func: f,
                    args: argv,
                    dst,
                });
            }
        }
        Ok(dst)
    }

    fn new_obj(
        &mut self,
        cx: &mut Frame<Reg>,
        b: &TBody,
        class: ClassId,
        args: TArgs,
    ) -> TResult<Reg> {
        let obj = cx.fb.reg(Ty::Obj);
        cx.fb.emit(Instr::NewObj {
            class: class.0,
            dst: obj,
        });
        let cf = self.ctor_func(class)?;
        let mut argv = vec![obj];
        argv.extend(walk::args(self, cx, b, args)?);
        cx.fb.emit(Instr::Call {
            func: cf,
            args: argv,
            dst: None,
        });
        Ok(obj)
    }

    fn ref_cast(&mut self, v: Reg, _: &Type) -> TResult<Reg> {
        Ok(v)
    }

    fn super_ctor(&mut self, cx: &mut Frame<Reg>, class: ClassId, args: Vec<Reg>) -> TResult<()> {
        let func = self.ctor_func(class)?;
        let mut argv = vec![cx.this()?];
        argv.extend(args);
        cx.fb.emit(Instr::Call {
            func,
            args: argv,
            dst: None,
        });
        Ok(())
    }

    fn init_field(&mut self, cx: &mut Frame<Reg>, slot: u32, src: Reg) -> TResult<()> {
        let obj = cx.this()?;
        cx.fb.emit(Instr::PutField { obj, slot, src });
        Ok(())
    }
}
