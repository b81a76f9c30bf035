//! The typed bodies produced by the type checker.
//!
//! All names are resolved: locals/params to frame slots, fields to absolute
//! instance slots (single inheritance gives every field a fixed offset),
//! methods to `(declaring class, index)` pairs. Implicit widening
//! conversions are explicit [`TExpr::Convert`] nodes, and compound
//! assignment and `++`/`--` are desugared, so that engines and the
//! translator never re-derive promotion rules.
//!
//! A checked body is one flat [`TBody`], the typed twin of
//! [`crate::ast::Body`]: `Copy` nodes whose children are ids into the same
//! body, each expression's type an index into the body's own type table,
//! spans in parallel slices, and string literals interned once per body.

use std::sync::Arc;

use crate::ast::{BinOp, IdList, IdLists, UnOp};
use crate::span::Span;
use crate::types::{ClassId, PrimKind, Type};

/// An expression of a [`TBody`], by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TExprId(pub u32);

/// A statement of a [`TBody`], by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TStmtId(pub u32);

/// A type in a [`TBody`]'s type table, by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeId(pub u32);

/// A string literal interned in a [`TBody`], by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrId(pub u32);

impl From<u32> for TExprId {
    fn from(raw: u32) -> Self {
        TExprId(raw)
    }
}

impl From<u32> for TStmtId {
    fn from(raw: u32) -> Self {
        TStmtId(raw)
    }
}

/// A typed `{ ... }` block.
pub type TBlock = IdList<TStmtId>;

/// Typed call, constructor or `super(...)` arguments.
pub type TArgs = IdList<TExprId>;

/// A resolved instance-field selector. `slot` is the field's absolute
/// offset in the object layout (inherited fields first).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldSel {
    /// Class that *declares* the field.
    pub owner: ClassId,
    /// Absolute slot in the instance layout.
    pub slot: u32,
    /// Declared type after substitution at the use site.
    pub ty: TypeId,
}

/// A resolved method selector: the statically found declaration. Virtual
/// dispatch may pick an override in a subclass at run/translation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodSel {
    /// Class or interface whose declaration was found statically.
    pub decl_class: ClassId,
    /// Index into `decl_class`'s own `methods` vector.
    pub index: u32,
}

/// What a typed body is the body of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TRoot {
    /// A method body.
    Block(TBlock),
    /// A constructor: typed `super(...)` arguments (empty when the
    /// superclass is `Object`) and the body.
    Ctor { super_args: TArgs, body: TBlock },
    /// A field initializer.
    Init(TExprId),
}

/// Typed statements. Each one's span is [`TBody::stmt_span`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TStmt {
    /// Declare local in `slot`, optionally initialized.
    Local {
        slot: u32,
        ty: TypeId,
        init: Option<TExprId>,
    },
    AssignLocal {
        slot: u32,
        value: TExprId,
    },
    AssignField {
        obj: TExprId,
        field: FieldSel,
        value: TExprId,
    },
    AssignStatic {
        class: ClassId,
        index: u32,
        value: TExprId,
    },
    AssignIndex {
        arr: TExprId,
        idx: TExprId,
        value: TExprId,
    },
    Expr(TExprId),
    If {
        cond: TExprId,
        then_branch: TBlock,
        else_branch: Option<TBlock>,
    },
    While {
        cond: TExprId,
        body: TBlock,
    },
    For {
        init: Option<TStmtId>,
        cond: Option<TExprId>,
        update: Option<TStmtId>,
        body: TBlock,
    },
    Return {
        value: Option<TExprId>,
    },
    Break,
    Continue,
    Block(TBlock),
}

/// Typed expressions. Each one's type is [`TBody::ty`] and its span
/// [`TBody::expr_span`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TExpr {
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    Bool(bool),
    Null,
    Str(StrId),
    /// Local or parameter read (params occupy the lowest slots).
    Local(u32),
    This,
    GetField {
        obj: TExprId,
        field: FieldSel,
    },
    GetStatic {
        class: ClassId,
        index: u32,
    },
    /// Virtual (dynamically dispatched) call.
    Call {
        recv: TExprId,
        method: MethodSel,
        args: TArgs,
    },
    /// Non-virtual call to a statically known implementation (`super.m()`).
    DirectCall {
        recv: TExprId,
        method: MethodSel,
        args: TArgs,
    },
    /// Call to a static method.
    StaticCall {
        class: ClassId,
        index: u32,
        args: TArgs,
    },
    /// Object allocation + constructor run; the type arguments are the
    /// node's type's.
    New {
        class: ClassId,
        args: TArgs,
    },
    NewArray {
        elem: TypeId,
        len: TExprId,
    },
    Index {
        arr: TExprId,
        idx: TExprId,
    },
    ArrayLen(TExprId),
    Unary {
        op: UnOp,
        expr: TExprId,
    },
    /// Both operands already converted to `operand_kind`.
    Binary {
        op: BinOp,
        operand_kind: PrimKind,
        lhs: TExprId,
        rhs: TExprId,
    },
    /// Reference equality (`==`/`!=` on references) — kept distinct so the
    /// rules checker and engines can treat it specially.
    RefEq {
        negated: bool,
        lhs: TExprId,
        rhs: TExprId,
    },
    /// Explicit numeric cast (may narrow).
    NumCast {
        to: PrimKind,
        expr: TExprId,
    },
    /// Reference cast, checked at runtime by the interpreter.
    RefCast {
        to: TypeId,
        expr: TExprId,
    },
    /// Implicit widening conversion inserted by the checker.
    Convert {
        to: PrimKind,
        expr: TExprId,
    },
    InstanceOf {
        expr: TExprId,
        ty: TypeId,
    },
    Ternary {
        cond: TExprId,
        then_val: TExprId,
        else_val: TExprId,
    },
}

/// One checked method body, constructor or field initializer as flat
/// node slices. Children precede their parents; types and spans sit
/// beside the nodes. Immutable once checked and shared by [`Arc`]:
/// whoever keeps it (a query memo) and every class table it was installed
/// into point at the same allocation.
#[derive(Debug)]
pub struct TBody {
    root: TRoot,
    /// Frame slots (params + locals).
    frame: u32,
    exprs: Box<[TExpr]>,
    expr_types: Box<[TypeId]>,
    expr_spans: Box<[Span]>,
    stmts: Box<[TStmt]>,
    stmt_spans: Box<[Span]>,
    /// Every [`IdList`], back to back.
    ids: Box<[u32]>,
    /// Every type the body mentions, once each.
    types: Box<[Type]>,
    /// Every string literal, back to back; literal `i` ends at `str_ends[i]`.
    strs: Box<str>,
    str_ends: Box<[u32]>,
}

impl TBody {
    pub fn root(&self) -> TRoot {
        self.root
    }

    /// Frame slots (params + locals) a run of the body needs.
    pub fn frame(&self) -> u32 {
        self.frame
    }

    pub fn expr(&self, id: TExprId) -> TExpr {
        self.exprs[id.0 as usize]
    }

    /// The type of expression `id`.
    pub fn ty(&self, id: TExprId) -> &Type {
        self.type_at(self.expr_types[id.0 as usize])
    }

    pub fn expr_span(&self, id: TExprId) -> Span {
        self.expr_spans[id.0 as usize]
    }

    pub fn stmt(&self, id: TStmtId) -> TStmt {
        self.stmts[id.0 as usize]
    }

    pub fn stmt_span(&self, id: TStmtId) -> Span {
        self.stmt_spans[id.0 as usize]
    }

    pub fn type_at(&self, id: TypeId) -> &Type {
        &self.types[id.0 as usize]
    }

    pub fn str(&self, id: StrId) -> &str {
        str_at(&self.strs, &self.str_ends, id.0 as usize)
    }

    /// The ids of a block or an argument list.
    pub fn list<T: From<u32>>(&self, l: IdList<T>) -> impl ExactSizeIterator<Item = T> + '_ {
        let start = l.start() as usize;
        self.ids[start..start + l.len()].iter().map(|&i| T::from(i))
    }

    pub fn exprs(&self) -> &[TExpr] {
        &self.exprs
    }

    /// Each expression's type, by expression id.
    pub fn expr_types(&self) -> &[TypeId] {
        &self.expr_types
    }

    pub fn stmts(&self) -> &[TStmt] {
        &self.stmts
    }

    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    pub fn types(&self) -> &[Type] {
        &self.types
    }

    /// The interned string literals in id order.
    pub fn strs(&self) -> impl Iterator<Item = &str> {
        (0..self.str_ends.len()).map(|i| self.str(StrId(i as u32)))
    }
}

/// String literal `i` of back-to-back literals that end at `ends`.
fn str_at<'s>(strs: &'s str, ends: &[u32], i: usize) -> &'s str {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    &strs[start..ends[i] as usize]
}

/// Builds one [`TBody`] at a time; the type checker keeps one per thread
/// and reuses its buffers from body to body.
#[derive(Default)]
pub(crate) struct TBodyBuilder {
    exprs: Vec<TExpr>,
    expr_types: Vec<TypeId>,
    expr_spans: Vec<Span>,
    stmts: Vec<TStmt>,
    stmt_spans: Vec<Span>,
    pub(crate) lists: IdLists,
    types: Vec<Type>,
    strs: String,
    str_ends: Vec<u32>,
}

impl TBodyBuilder {
    pub(crate) fn clear(&mut self) {
        self.exprs.clear();
        self.expr_types.clear();
        self.expr_spans.clear();
        self.stmts.clear();
        self.stmt_spans.clear();
        self.lists.clear();
        self.types.clear();
        self.strs.clear();
        self.str_ends.clear();
    }

    /// Add expression `e` of type `ty`.
    pub(crate) fn expr(&mut self, e: TExpr, ty: &Type, span: Span) -> TExprId {
        let ty = self.intern(ty);
        self.exprs.push(e);
        self.expr_types.push(ty);
        self.expr_spans.push(span);
        TExprId(self.exprs.len() as u32 - 1)
    }

    pub(crate) fn stmt(&mut self, s: TStmt, span: Span) -> TStmtId {
        self.stmts.push(s);
        self.stmt_spans.push(span);
        TStmtId(self.stmts.len() as u32 - 1)
    }

    /// The type of expression `id` built here.
    pub(crate) fn ty(&self, id: TExprId) -> &Type {
        &self.types[self.expr_types[id.0 as usize].0 as usize]
    }

    pub(crate) fn expr_span(&self, id: TExprId) -> Span {
        self.expr_spans[id.0 as usize]
    }

    pub(crate) fn get(&self, id: TExprId) -> TExpr {
        self.exprs[id.0 as usize]
    }

    pub(crate) fn stmt_span(&self, id: TStmtId) -> Span {
        self.stmt_spans[id.0 as usize]
    }

    /// The id of `ty` in the type table, adding it on first use.
    pub(crate) fn intern(&mut self, ty: &Type) -> TypeId {
        let at = self.types.iter().position(|t| t == ty).unwrap_or_else(|| {
            self.types.push(ty.clone());
            self.types.len() - 1
        });
        TypeId(at as u32)
    }

    pub(crate) fn intern_str(&mut self, s: &str) -> StrId {
        let found = (0..self.str_ends.len()).find(|&i| str_at(&self.strs, &self.str_ends, i) == s);
        StrId(found.unwrap_or_else(|| {
            self.strs.push_str(s);
            self.str_ends.push(self.strs.len() as u32);
            self.str_ends.len() - 1
        }) as u32)
    }

    /// The first statement of a block built here.
    pub(crate) fn first(&self, b: TBlock) -> Option<TStmtId> {
        (!b.is_empty()).then(|| TStmtId(self.lists.ids[b.start() as usize]))
    }

    /// The body built so far; leaves the builder empty.
    pub(crate) fn finish(&mut self, root: TRoot, frame: u32) -> Arc<TBody> {
        let body = TBody {
            root,
            frame,
            exprs: self.exprs.as_slice().into(),
            expr_types: self.expr_types.as_slice().into(),
            expr_spans: self.expr_spans.as_slice().into(),
            stmts: self.stmts.as_slice().into(),
            stmt_spans: self.stmt_spans.as_slice().into(),
            ids: self.lists.ids.as_slice().into(),
            types: self.types.drain(..).collect(),
            strs: self.strs.as_str().into(),
            str_ends: self.str_ends.as_slice().into(),
        };
        self.clear();
        Arc::new(body)
    }
}
