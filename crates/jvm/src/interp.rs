//! The tree-walking interpreter.
//!
//! This is the reproduction's stand-in for "running on the JVM" (the
//! *Java* series in Figures 3, 17 and 18): objects live on a heap, every
//! field access is an indirection, and every call is dispatched from the
//! receiver's runtime class. No devirtualization, no object inlining —
//! deliberately, since that performance gap is the paper's motivation.

use std::collections::HashMap;
use std::rc::Rc;

use jlang::ast::{BinOp, UnOp};
use jlang::span::Span;
use jlang::table::ClassTable;
use jlang::tast::{TArgs, TBlock, TBody, TExpr, TExprId, TStmt, TStmtId};
use jlang::types::{ClassId, PrimKind, Type};

use crate::heap::{ArrayData, Heap, ObjRef, Value};

/// Interpreter error (the subset of Java errors we model: bad index,
/// division by zero, null dereference, failed cast, stack overflow, and
/// native-call problems).
#[derive(Debug, Clone)]
pub struct JvmError {
    pub message: String,
    pub span: Option<Span>,
}

impl JvmError {
    pub fn new(message: impl Into<String>) -> Self {
        JvmError {
            message: message.into(),
            span: None,
        }
    }

    pub fn at(message: impl Into<String>, span: Span) -> Self {
        JvmError {
            message: message.into(),
            span: Some(span),
        }
    }
}

impl std::fmt::Display for JvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.span {
            Some(s) => write!(f, "jvm error at line {}: {}", s.line, self.message),
            None => write!(f, "jvm error: {}", self.message),
        }
    }
}

impl std::error::Error for JvmError {}

type JResult<T> = Result<T, JvmError>;

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// A native (intrinsic) function callable from jlang via `@Native("key")`.
pub type NativeFn = Rc<dyn for<'a> Fn(&mut Jvm<'a>, &[Value]) -> JResult<Value>>;

struct Frame {
    locals: Vec<Value>,
    this: Option<Value>,
}

/// CUDA thread coordinates available while emulating a `@Global` kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct CudaCtx {
    pub grid_dim: [i32; 3],
    pub block_dim: [i32; 3],
    pub block_idx: [i32; 3],
    pub thread_idx: [i32; 3],
}

/// The interpreter. Holds the heap, static fields, native registry, and a
/// deterministic step counter used as the virtual-time metric for the
/// *Java* benchmark series.
pub struct Jvm<'t> {
    pub table: &'t ClassTable,
    pub heap: Heap,
    statics: Vec<Vec<Value>>,
    natives: HashMap<String, NativeFn>,
    /// Deterministic work metric: one step per evaluated node.
    pub steps: u64,
    depth: u32,
    max_depth: u32,
    /// Lines produced by the `wj.print*` natives.
    pub output: Vec<String>,
    /// Set while emulating a `@Global` kernel launch.
    pub cuda: Option<CudaCtx>,
}

impl<'t> Jvm<'t> {
    /// Create an interpreter and run all static field initializers.
    pub fn new(table: &'t ClassTable) -> JResult<Self> {
        let mut jvm = Jvm {
            table,
            heap: Heap::new(),
            statics: Vec::new(),
            natives: HashMap::new(),
            steps: 0,
            depth: 0,
            // Conservative: each jlang frame costs several large Rust
            // frames in this tree-walking interpreter (debug builds do not
            // reuse match-arm stack slots), and the coding rules forbid
            // recursion anyway. Hosts can raise it via `set_max_depth`.
            max_depth: 48,
            output: Vec::new(),
            cuda: None,
        };
        crate::natives::register_defaults(&mut jvm);
        jvm.init_statics()?;
        Ok(jvm)
    }

    pub fn register_native(&mut self, key: impl Into<String>, f: NativeFn) {
        self.natives.insert(key.into(), f);
    }

    /// Raise or lower the jlang call-depth limit. The default is small
    /// because each interpreted frame consumes several kilobytes of host
    /// stack; raise it only with a correspondingly large host stack.
    pub fn set_max_depth(&mut self, depth: u32) {
        self.max_depth = depth;
    }

    fn init_statics(&mut self) -> JResult<()> {
        for info in self.table.iter() {
            let defaults: Vec<Value> = info
                .statics
                .iter()
                .map(|f| Value::default_for(&f.ty))
                .collect();
            self.statics.push(defaults);
        }
        for info in self.table.iter() {
            for (i, f) in info.statics.iter().enumerate() {
                let Some((init, value)) = f.typed_init() else {
                    continue;
                };
                let mut frame = Frame {
                    locals: Vec::new(),
                    this: None,
                };
                let v = self.eval(init, &mut frame, value)?;
                self.statics[info.id.0 as usize][i] = v;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Host-facing API
    // ------------------------------------------------------------------

    /// Instantiate `class_name` with constructor `args` (the host-side
    /// object composition step of a WootinJ application).
    pub fn new_instance(&mut self, class_name: &str, args: &[Value]) -> JResult<Value> {
        let id = self
            .table
            .by_name(class_name)
            .ok_or_else(|| JvmError::new(format!("unknown class `{class_name}`")))?;
        self.construct(id, args)
    }

    /// Virtually call `method` on `recv` (dispatch from its runtime class).
    pub fn call(&mut self, recv: &Value, method: &str, args: &[Value]) -> JResult<Value> {
        let class = self.runtime_class(recv)?;
        let (ic, im) = self.table.resolve_impl(class, method).ok_or_else(|| {
            JvmError::new(format!(
                "no implementation of `{method}` on `{}`",
                self.table.name(class)
            ))
        })?;
        self.invoke(Some(recv.clone()), ic, im, args.to_vec())
    }

    /// Call a static method by class and method name.
    pub fn call_static(&mut self, class: &str, method: &str, args: &[Value]) -> JResult<Value> {
        let id = self
            .table
            .by_name(class)
            .ok_or_else(|| JvmError::new(format!("unknown class `{class}`")))?;
        let ml = self
            .table
            .lookup_method(id, method)
            .ok_or_else(|| JvmError::new(format!("no method `{class}.{method}`")))?;
        self.invoke(None, ml.decl_class, ml.index, args.to_vec())
    }

    /// Allocate a float array on the interpreter heap.
    pub fn new_f32_array(&mut self, data: &[f32]) -> Value {
        Value::Arr(self.heap.alloc_arr(ArrayData::F32(data.to_vec())))
    }

    pub fn new_f64_array(&mut self, data: &[f64]) -> Value {
        Value::Arr(self.heap.alloc_arr(ArrayData::F64(data.to_vec())))
    }

    pub fn new_i32_array(&mut self, data: &[i32]) -> Value {
        Value::Arr(self.heap.alloc_arr(ArrayData::I32(data.to_vec())))
    }

    /// Read back a float array.
    pub fn f32_array(&self, v: &Value) -> JResult<Vec<f32>> {
        let r = v.as_arr().map_err(JvmError::new)?;
        match self.heap.arr(r) {
            ArrayData::F32(d) => Ok(d.clone()),
            other => Err(JvmError::new(format!("not a float array: {other}"))),
        }
    }

    pub fn f64_array(&self, v: &Value) -> JResult<Vec<f64>> {
        let r = v.as_arr().map_err(JvmError::new)?;
        match self.heap.arr(r) {
            ArrayData::F64(d) => Ok(d.clone()),
            other => Err(JvmError::new(format!("not a double array: {other}"))),
        }
    }

    /// Read an instance field by name (for tests and the translator).
    pub fn get_field(&self, recv: &Value, name: &str) -> JResult<Value> {
        let r = recv.as_obj().map_err(JvmError::new)?;
        let class = self.heap.obj(r).class;
        let fl = self
            .table
            .lookup_field(class, name)
            .ok_or_else(|| JvmError::new(format!("no field `{name}`")))?;
        Ok(self.heap.obj(r).fields[fl.slot as usize].clone())
    }

    /// The runtime class of a reference value.
    pub fn runtime_class(&self, v: &Value) -> JResult<ClassId> {
        match v {
            Value::Obj(r) => Ok(self.heap.obj(*r).class),
            other => Err(JvmError::new(format!("not an object: {other}"))),
        }
    }

    // ------------------------------------------------------------------
    // Core execution
    // ------------------------------------------------------------------

    /// Allocate and construct an instance: super constructors run first,
    /// then field initializers, then the constructor body (Java order).
    pub fn construct(&mut self, class: ClassId, args: &[Value]) -> JResult<Value> {
        let info = self.table.class(class);
        if info.is_interface {
            return Err(JvmError::new(format!(
                "cannot instantiate interface `{}`",
                info.name
            )));
        }
        if info.is_abstract {
            return Err(JvmError::new(format!(
                "cannot instantiate abstract class `{}`",
                info.name
            )));
        }
        let size = info.instance_size() as usize;
        let obj = self.heap.alloc_obj(class, size);
        // Initialize primitive defaults per declared field type.
        for (cid, cargs) in self.table.super_chain(class) {
            let cinfo = self.table.class(cid);
            for (i, f) in cinfo.fields.iter().enumerate() {
                let slot = cinfo.field_base as usize + i;
                self.heap.obj_mut(obj).fields[slot] = Value::default_for(&f.ty.subst(&cargs));
            }
        }
        self.run_ctor(obj, class, args.to_vec())?;
        Ok(Value::Obj(obj))
    }

    fn run_ctor(&mut self, obj: ObjRef, class: ClassId, args: Vec<Value>) -> JResult<()> {
        self.enter()?;
        let info = self.table.class(class);
        let ctor = info
            .ctor
            .as_ref()
            .ok_or_else(|| JvmError::new(format!("`{}` has no constructor", info.name)))?;
        if ctor.params.len() != args.len() {
            return Err(JvmError::new(format!(
                "constructor of `{}` expects {} args, got {}",
                info.name,
                ctor.params.len(),
                args.len()
            )));
        }
        let typed = ctor.typed_body();
        let mut frame = Frame {
            locals: {
                let mut l = args;
                l.resize(typed.map_or(0, |(b, ..)| b.frame()) as usize, Value::Null);
                l
            },
            this: Some(Value::Obj(obj)),
        };
        // 1. super constructor.
        if let Some((sid, _)) = &info.superclass {
            if *sid != jlang::OBJECT {
                let sargs = match typed {
                    Some((b, args, _)) => self.eval_args(b, &mut frame, args)?,
                    None => Vec::new(),
                };
                self.run_ctor(obj, *sid, sargs)?;
            }
        }
        // 2. field initializers of this class.
        for (i, f) in info.fields.iter().enumerate() {
            if let Some((init, value)) = f.typed_init() {
                let v = self.eval(init, &mut frame, value)?;
                self.heap.obj_mut(obj).fields[info.field_base as usize + i] = v;
            }
        }
        // 3. constructor body.
        if let Some((b, _, block)) = typed {
            self.exec_block(b, &mut frame, block)?;
        }
        self.leave();
        Ok(())
    }

    fn enter(&mut self) -> JResult<()> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(JvmError::new("stack overflow (call depth limit exceeded)"));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Invoke a method body (or native) with an optional receiver.
    pub fn invoke(
        &mut self,
        this: Option<Value>,
        class: ClassId,
        index: u32,
        args: Vec<Value>,
    ) -> JResult<Value> {
        let m = self.table.method(class, index);
        if let Some(key) = &m.native {
            return self.call_native(key, &args, m.span);
        }
        if m.is_global {
            return self.launch_kernel_emulated(this, class, index, args);
        }
        self.invoke_plain(this, class, index, args)
    }

    fn invoke_plain(
        &mut self,
        this: Option<Value>,
        class: ClassId,
        index: u32,
        args: Vec<Value>,
    ) -> JResult<Value> {
        let m = self.table.method(class, index);
        let Some((body, block)) = m.typed_body() else {
            return Err(JvmError::new(format!(
                "method `{}::{}` has no body",
                self.table.name(class),
                m.name
            )));
        };
        if m.params.len() != args.len() {
            return Err(JvmError::new(format!(
                "`{}` expects {} args, got {}",
                m.name,
                m.params.len(),
                args.len()
            )));
        }
        self.enter()?;
        let mut frame = Frame {
            locals: {
                let mut l = args;
                l.resize(body.frame() as usize, Value::Null);
                l
            },
            this,
        };
        let flow = self.exec_block(body, &mut frame, block)?;
        self.leave();
        match flow {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Void),
        }
    }

    fn call_native(&mut self, key: &str, args: &[Value], span: Span) -> JResult<Value> {
        let f = self
            .natives
            .get(key)
            .cloned()
            .ok_or_else(|| JvmError::at(format!("unregistered native `{key}`"), span))?;
        f(self, args)
    }

    /// Emulate a `@Global` kernel launch: iterate the whole grid
    /// sequentially. The first argument must be a `CudaConfig`. Kernels
    /// that call `cuda.sync` cannot be emulated here (use the gpu-sim
    /// engine via translation); the sync native reports a clear error.
    fn launch_kernel_emulated(
        &mut self,
        this: Option<Value>,
        class: ClassId,
        index: u32,
        args: Vec<Value>,
    ) -> JResult<Value> {
        let conf = args
            .first()
            .ok_or_else(|| JvmError::new("@Global method needs a CudaConfig first argument"))?
            .clone();
        let (grid, block) = self.read_cuda_config(&conf)?;
        let saved = self.cuda;
        for bz in 0..grid[2] {
            for by in 0..grid[1] {
                for bx in 0..grid[0] {
                    for tz in 0..block[2] {
                        for ty in 0..block[1] {
                            for tx in 0..block[0] {
                                self.cuda = Some(CudaCtx {
                                    grid_dim: grid,
                                    block_dim: block,
                                    block_idx: [bx, by, bz],
                                    thread_idx: [tx, ty, tz],
                                });
                                self.invoke_plain(this.clone(), class, index, args.clone())?;
                            }
                        }
                    }
                }
            }
        }
        self.cuda = saved;
        Ok(Value::Void)
    }

    /// Extract `(gridDim, blockDim)` from a `CudaConfig` object (fields
    /// `grid` and `block` of class `dim3` with `x`, `y`, `z`).
    pub fn read_cuda_config(&self, conf: &Value) -> JResult<([i32; 3], [i32; 3])> {
        let read_dim3 = |jvm: &Jvm<'_>, v: &Value| -> JResult<[i32; 3]> {
            let r = v.as_obj().map_err(JvmError::new)?;
            let class = jvm.heap.obj(r).class;
            let mut out = [1i32; 3];
            for (i, n) in ["x", "y", "z"].iter().enumerate() {
                let fl = jvm
                    .table
                    .lookup_field(class, n)
                    .ok_or_else(|| JvmError::new(format!("dim3 missing field `{n}`")))?;
                out[i] = jvm.heap.obj(r).fields[fl.slot as usize]
                    .as_i32()
                    .map_err(JvmError::new)?;
            }
            Ok(out)
        };
        let grid = read_dim3(self, &self.get_field(conf, "grid")?)?;
        let block = read_dim3(self, &self.get_field(conf, "block")?)?;
        for d in grid.iter().chain(block.iter()) {
            if *d <= 0 {
                return Err(JvmError::new("CudaConfig dimensions must be positive"));
            }
        }
        Ok((grid, block))
    }

    fn exec_block(&mut self, b: &TBody, frame: &mut Frame, block: TBlock) -> JResult<Flow> {
        for s in b.list(block) {
            match self.exec(b, frame, s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Evaluate arguments left to right.
    fn eval_args(&mut self, b: &TBody, frame: &mut Frame, args: TArgs) -> JResult<Vec<Value>> {
        let mut a = Vec::with_capacity(args.len());
        for x in b.list(args) {
            a.push(self.eval(b, frame, x)?);
        }
        Ok(a)
    }

    fn exec(&mut self, b: &TBody, frame: &mut Frame, s: TStmtId) -> JResult<Flow> {
        self.steps += 1;
        let span = b.stmt_span(s);
        match b.stmt(s) {
            TStmt::Local { slot, init, ty } => {
                let v = match init {
                    Some(e) => self.eval(b, frame, e)?,
                    None => Value::default_for(b.type_at(ty)),
                };
                frame.locals[slot as usize] = v;
                Ok(Flow::Normal)
            }
            TStmt::AssignLocal { slot, value } => {
                let v = self.eval(b, frame, value)?;
                frame.locals[slot as usize] = v;
                Ok(Flow::Normal)
            }
            TStmt::AssignField { obj, field, value } => {
                let o = self.eval(b, frame, obj)?;
                let v = self.eval(b, frame, value)?;
                let r = o
                    .as_obj()
                    .map_err(|m| JvmError::at(format!("null dereference: {m}"), span))?;
                self.heap.obj_mut(r).fields[field.slot as usize] = v;
                Ok(Flow::Normal)
            }
            TStmt::AssignStatic {
                class,
                index,
                value,
            } => {
                let v = self.eval(b, frame, value)?;
                self.statics[class.0 as usize][index as usize] = v;
                Ok(Flow::Normal)
            }
            TStmt::AssignIndex { arr, idx, value } => {
                let a = self.eval(b, frame, arr)?;
                let i = self.eval(b, frame, idx)?;
                let v = self.eval(b, frame, value)?;
                let r = a
                    .as_arr()
                    .map_err(|m| JvmError::at(format!("null array: {m}"), span))?;
                let i = i.as_i32().map_err(JvmError::new)?;
                if i < 0 {
                    return Err(JvmError::at(format!("negative array index {i}"), span));
                }
                self.heap
                    .arr_mut(r)
                    .set(i as usize, v)
                    .map_err(|m| JvmError::at(m, span))?;
                Ok(Flow::Normal)
            }
            TStmt::Expr(e) => {
                self.eval(b, frame, e)?;
                Ok(Flow::Normal)
            }
            TStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = (self.eval(b, frame, cond)?)
                    .as_bool()
                    .map_err(JvmError::new)?;
                if c {
                    self.exec_block(b, frame, then_branch)
                } else if let Some(e) = else_branch {
                    self.exec_block(b, frame, e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            TStmt::While { cond, body } => {
                loop {
                    let c = (self.eval(b, frame, cond)?)
                        .as_bool()
                        .map_err(JvmError::new)?;
                    if !c {
                        break;
                    }
                    match self.exec_block(b, frame, body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            TStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(i) = init {
                    self.exec(b, frame, i)?;
                }
                loop {
                    if let Some(c) = cond {
                        if !(self.eval(b, frame, c)?).as_bool().map_err(JvmError::new)? {
                            break;
                        }
                    }
                    match self.exec_block(b, frame, body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    if let Some(u) = update {
                        self.exec(b, frame, u)?;
                    }
                }
                Ok(Flow::Normal)
            }
            TStmt::Return { value } => {
                let v = match value {
                    Some(e) => self.eval(b, frame, e)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            TStmt::Break => Ok(Flow::Break),
            TStmt::Continue => Ok(Flow::Continue),
            TStmt::Block(block) => self.exec_block(b, frame, block),
        }
    }

    fn eval(&mut self, b: &TBody, frame: &mut Frame, e: TExprId) -> JResult<Value> {
        self.steps += 1;
        let span = b.expr_span(e);
        match b.expr(e) {
            TExpr::Int(v) => Ok(Value::Int(v)),
            TExpr::Long(v) => Ok(Value::Long(v)),
            TExpr::Float(v) => Ok(Value::Float(v)),
            TExpr::Double(v) => Ok(Value::Double(v)),
            TExpr::Bool(v) => Ok(Value::Bool(v)),
            TExpr::Null => Ok(Value::Null),
            TExpr::Str(s) => Ok(Value::str(b.str(s))),
            TExpr::Local(slot) => Ok(frame.locals[slot as usize].clone()),
            TExpr::This => frame
                .this
                .clone()
                .ok_or_else(|| JvmError::at("`this` in static context", span)),
            TExpr::GetField { obj, field } => {
                let o = self.eval(b, frame, obj)?;
                let r = o
                    .as_obj()
                    .map_err(|m| JvmError::at(format!("null dereference: {m}"), span))?;
                Ok(self.heap.obj(r).fields[field.slot as usize].clone())
            }
            TExpr::GetStatic { class, index } => {
                Ok(self.statics[class.0 as usize][index as usize].clone())
            }
            TExpr::Call { recv, method, args } => {
                let r = self.eval(b, frame, recv)?;
                let a = self.eval_args(b, frame, args)?;
                // Virtual dispatch from the runtime class — the cost the
                // paper's framework eliminates.
                let rc = self
                    .runtime_class(&r)
                    .map_err(|err| JvmError::at(err.message, span))?;
                let name = &self.table.method(method.decl_class, method.index).name;
                let (ic, im) = self.table.resolve_impl(rc, name).ok_or_else(|| {
                    JvmError::at(
                        format!("no impl of `{name}` on `{}`", self.table.name(rc)),
                        span,
                    )
                })?;
                self.invoke(Some(r), ic, im, a)
            }
            TExpr::DirectCall { recv, method, args } => {
                let r = self.eval(b, frame, recv)?;
                let a = self.eval_args(b, frame, args)?;
                self.invoke(Some(r), method.decl_class, method.index, a)
            }
            TExpr::StaticCall { class, index, args } => {
                let a = self.eval_args(b, frame, args)?;
                self.invoke(None, class, index, a)
            }
            TExpr::New { class, args } => {
                let a = self.eval_args(b, frame, args)?;
                self.construct(class, &a)
            }
            TExpr::NewArray { elem, len } => {
                let n = (self.eval(b, frame, len)?)
                    .as_i32()
                    .map_err(JvmError::new)?;
                if n < 0 {
                    return Err(JvmError::at(format!("negative array size {n}"), span));
                }
                Ok(Value::Arr(
                    self.heap
                        .alloc_arr(ArrayData::new(b.type_at(elem), n as usize)),
                ))
            }
            TExpr::Index { arr, idx } => {
                let a = self.eval(b, frame, arr)?;
                let i = (self.eval(b, frame, idx)?)
                    .as_i32()
                    .map_err(JvmError::new)?;
                let r = a
                    .as_arr()
                    .map_err(|m| JvmError::at(format!("null array: {m}"), span))?;
                if i < 0 {
                    return Err(JvmError::at(format!("negative array index {i}"), span));
                }
                self.heap.arr(r).get(i as usize).ok_or_else(|| {
                    JvmError::at(
                        format!(
                            "array index {i} out of bounds (len {})",
                            self.heap.arr(r).len()
                        ),
                        span,
                    )
                })
            }
            TExpr::ArrayLen(arr) => {
                let a = self.eval(b, frame, arr)?;
                let r = a
                    .as_arr()
                    .map_err(|m| JvmError::at(format!("null array: {m}"), span))?;
                Ok(Value::Int(self.heap.arr(r).len() as i32))
            }
            TExpr::Unary { op, expr } => {
                let v = self.eval(b, frame, expr)?;
                match op {
                    UnOp::Neg => Ok(match v {
                        Value::Int(x) => Value::Int(x.wrapping_neg()),
                        Value::Long(x) => Value::Long(x.wrapping_neg()),
                        Value::Float(x) => Value::Float(-x),
                        Value::Double(x) => Value::Double(-x),
                        other => return Err(JvmError::at(format!("cannot negate {other}"), span)),
                    }),
                    UnOp::Not => Ok(Value::Bool(!v.as_bool().map_err(JvmError::new)?)),
                }
            }
            TExpr::Binary {
                op,
                operand_kind,
                lhs,
                rhs,
            } => {
                // Short-circuit logical operators.
                if op == BinOp::And || op == BinOp::Or {
                    let l = (self.eval(b, frame, lhs)?)
                        .as_bool()
                        .map_err(JvmError::new)?;
                    if l == (op == BinOp::Or) {
                        return Ok(Value::Bool(l));
                    }
                    return Ok(Value::Bool(
                        (self.eval(b, frame, rhs)?)
                            .as_bool()
                            .map_err(JvmError::new)?,
                    ));
                }
                let l = self.eval(b, frame, lhs)?;
                let r = self.eval(b, frame, rhs)?;
                binop(op, operand_kind, &l, &r).map_err(|m| JvmError::at(m, span))
            }
            TExpr::RefEq { negated, lhs, rhs } => {
                let l = self.eval(b, frame, lhs)?;
                let r = self.eval(b, frame, rhs)?;
                let eq = match (&l, &r) {
                    (Value::Obj(a), Value::Obj(b)) => a == b,
                    (Value::Arr(a), Value::Arr(b)) => a == b,
                    (Value::Null, Value::Null) => true,
                    _ => false,
                };
                Ok(Value::Bool(eq != negated))
            }
            TExpr::NumCast { to, expr } | TExpr::Convert { to, expr } => {
                let v = self.eval(b, frame, expr)?;
                numcast(to, &v).map_err(|m| JvmError::at(m, span))
            }
            TExpr::RefCast { to, expr } => {
                let v = self.eval(b, frame, expr)?;
                match (&v, b.type_at(to)) {
                    (Value::Null, _) => Ok(v),
                    (Value::Obj(r), Type::Object(want, wargs)) => {
                        let rc = self.heap.obj(*r).class;
                        if self
                            .table
                            .is_subtype(&Type::object(rc), &Type::Object(*want, wargs.clone()))
                            || self.table.is_subclass_of(rc, *want)
                        {
                            Ok(v)
                        } else {
                            Err(JvmError::at(
                                format!(
                                    "class cast exception: `{}` is not a `{}`",
                                    self.table.name(rc),
                                    self.table.name(*want)
                                ),
                                span,
                            ))
                        }
                    }
                    (Value::Arr(_), Type::Array(_)) => Ok(v),
                    _ => Err(JvmError::at("invalid reference cast", span)),
                }
            }
            TExpr::InstanceOf { expr, ty } => {
                let v = self.eval(b, frame, expr)?;
                let res = match (&v, b.type_at(ty)) {
                    (Value::Obj(r), Type::Object(want, _)) => {
                        self.table.is_subclass_of(self.heap.obj(*r).class, *want)
                    }
                    (Value::Arr(_), Type::Array(_)) => true,
                    _ => false,
                };
                Ok(Value::Bool(res))
            }
            TExpr::Ternary {
                cond,
                then_val,
                else_val,
            } => {
                let c = (self.eval(b, frame, cond)?)
                    .as_bool()
                    .map_err(JvmError::new)?;
                self.eval(b, frame, if c { then_val } else { else_val })
            }
        }
    }
}

/// Java semantics for a binary operator on two already-promoted operands.
fn binop(op: BinOp, kind: PrimKind, l: &Value, r: &Value) -> Result<Value, String> {
    use BinOp::*;
    macro_rules! arith {
        ($l:expr, $r:expr, $wrap_add:ident, $wrap_sub:ident, $wrap_mul:ident, $ctor:path) => {
            match op {
                Add => $ctor($l.$wrap_add($r)),
                Sub => $ctor($l.$wrap_sub($r)),
                Mul => $ctor($l.$wrap_mul($r)),
                Div => {
                    if $r == 0 {
                        return Err("division by zero".into());
                    }
                    $ctor($l.wrapping_div($r))
                }
                Rem => {
                    if $r == 0 {
                        return Err("remainder by zero".into());
                    }
                    $ctor($l.wrapping_rem($r))
                }
                Lt => Value::Bool($l < $r),
                Le => Value::Bool($l <= $r),
                Gt => Value::Bool($l > $r),
                Ge => Value::Bool($l >= $r),
                Eq => Value::Bool($l == $r),
                Ne => Value::Bool($l != $r),
                BitAnd => $ctor($l & $r),
                BitOr => $ctor($l | $r),
                BitXor => $ctor($l ^ $r),
                Shl | Shr => unreachable!("handled before the macro"),
                And | Or => return Err("logical op on numeric".into()),
            }
        };
    }
    macro_rules! fl {
        ($l:expr, $r:expr, $ctor:path) => {
            match op {
                Add => $ctor($l + $r),
                Sub => $ctor($l - $r),
                Mul => $ctor($l * $r),
                Div => $ctor($l / $r),
                Rem => $ctor($l % $r),
                Lt => Value::Bool($l < $r),
                Le => Value::Bool($l <= $r),
                Gt => Value::Bool($l > $r),
                Ge => Value::Bool($l >= $r),
                Eq => Value::Bool($l == $r),
                Ne => Value::Bool($l != $r),
                _ => return Err("bitwise op on float".into()),
            }
        };
    }
    Ok(match kind {
        PrimKind::Int => {
            let (a, b) = (l.as_i32()?, r.as_i32()?);
            match op {
                Shl => Value::Int(a.wrapping_shl(b as u32 & 31)),
                Shr => Value::Int(a.wrapping_shr(b as u32 & 31)),
                _ => arith!(a, b, wrapping_add, wrapping_sub, wrapping_mul, Value::Int),
            }
        }
        PrimKind::Long => {
            let (a, b) = (l.as_i64()?, r.as_i64()?);
            match op {
                Shl => Value::Long(a.wrapping_shl(b as u32 & 63)),
                Shr => Value::Long(a.wrapping_shr(b as u32 & 63)),
                _ => arith!(a, b, wrapping_add, wrapping_sub, wrapping_mul, Value::Long),
            }
        }
        PrimKind::Float => {
            let (a, b) = (l.as_f32()?, r.as_f32()?);
            fl!(a, b, Value::Float)
        }
        PrimKind::Double => {
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            fl!(a, b, Value::Double)
        }
        PrimKind::Boolean => {
            let (a, b) = (l.as_bool()?, r.as_bool()?);
            match op {
                Eq => Value::Bool(a == b),
                Ne => Value::Bool(a != b),
                _ => return Err("invalid boolean operator".into()),
            }
        }
    })
}

/// Java numeric conversion (widening or narrowing) to `to`.
/// Rust `as` saturates float->int exactly like the JLS requires.
fn numcast(to: PrimKind, v: &Value) -> Result<Value, String> {
    let out = match to {
        PrimKind::Int => Value::Int(match v {
            Value::Int(x) => *x,
            Value::Long(x) => *x as i32,
            Value::Float(x) => *x as i32,
            Value::Double(x) => *x as i32,
            other => return Err(format!("cannot convert {other} to int")),
        }),
        PrimKind::Long => Value::Long(match v {
            Value::Int(x) => *x as i64,
            Value::Long(x) => *x,
            Value::Float(x) => *x as i64,
            Value::Double(x) => *x as i64,
            other => return Err(format!("cannot convert {other} to long")),
        }),
        PrimKind::Float => Value::Float(match v {
            Value::Int(x) => *x as f32,
            Value::Long(x) => *x as f32,
            Value::Float(x) => *x,
            Value::Double(x) => *x as f32,
            other => return Err(format!("cannot convert {other} to float")),
        }),
        PrimKind::Double => Value::Double(match v {
            Value::Int(x) => *x as f64,
            Value::Long(x) => *x as f64,
            Value::Float(x) => *x as f64,
            Value::Double(x) => *x,
            other => return Err(format!("cannot convert {other} to double")),
        }),
        PrimKind::Boolean => match v {
            Value::Bool(_) => v.clone(),
            other => return Err(format!("cannot convert {other} to boolean")),
        },
    };
    Ok(out)
}
