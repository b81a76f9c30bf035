//! The untyped abstract syntax tree produced by the parser.
//!
//! Names are unresolved strings at this stage; the resolver/type checker in
//! [`crate::typeck`] turns this into the typed representation in
//! [`crate::tast`].
//!
//! Everything with a body — a method or constructor body, `super(...)`
//! arguments, a field initializer — is held by [`Arc`]: immutable once
//! parsed, and shared from then on by whoever holds the declaration (a
//! parse memo, every class table built from it). Cloning a [`Unit`]
//! copies the declaration skeleton and bumps those counts.

use std::sync::Arc;

use crate::span::Span;

/// A parsed annotation such as `@WootinJ`, `@Global` or `@Native("mpi_rank")`.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    pub name: String,
    /// Optional single string argument, e.g. `@Native("sqrtf")`.
    pub arg: Option<String>,
    pub span: Span,
}

/// Declaration modifiers. Visibility is parsed but carries no semantics in
/// jlang (the paper's listings use it freely, so we accept it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Modifiers {
    pub is_static: bool,
    pub is_final: bool,
    pub is_abstract: bool,
}

/// A syntactic type reference, e.g. `float`, `FloatGridDblB`, `T`,
/// `OneDSolver<ScalarFloat, EmptyContext>`, `float[]`.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeRef {
    Void,
    Int,
    Long,
    Float,
    Double,
    Boolean,
    /// Class, interface, or type-parameter name with optional type arguments.
    Named {
        name: String,
        args: Vec<TypeRef>,
        span: Span,
    },
    Array(Box<TypeRef>),
}

impl TypeRef {
    pub fn named(name: &str, span: Span) -> TypeRef {
        TypeRef::Named {
            name: name.to_string(),
            args: Vec::new(),
            span,
        }
    }
}

/// A class-level type parameter: `T extends Solver`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeParam {
    pub name: String,
    /// Upper bound; defaults to `Object` when omitted.
    pub bound: Option<TypeRef>,
    pub span: Span,
}

/// Top-level class or interface declaration.
#[derive(Debug, Clone)]
pub struct ClassDecl {
    pub name: String,
    pub is_interface: bool,
    pub annotations: Vec<Annotation>,
    pub modifiers: Modifiers,
    pub type_params: Vec<TypeParam>,
    pub superclass: Option<TypeRef>,
    pub interfaces: Vec<TypeRef>,
    pub fields: Vec<FieldDecl>,
    pub methods: Vec<MethodDecl>,
    pub ctor: Option<CtorDecl>,
    pub span: Span,
}

/// Instance or static field.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    pub name: String,
    pub ty: TypeRef,
    pub annotations: Vec<Annotation>,
    pub modifiers: Modifiers,
    pub init: Option<Arc<Expr>>,
    pub span: Span,
}

/// A formal method or constructor parameter.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: TypeRef,
    pub is_final: bool,
    pub span: Span,
}

/// Method declaration; `body` is `None` for abstract/interface methods and
/// for `@Native` methods.
#[derive(Debug, Clone)]
pub struct MethodDecl {
    pub name: String,
    pub annotations: Vec<Annotation>,
    pub modifiers: Modifiers,
    pub params: Vec<Param>,
    pub ret: TypeRef,
    pub body: Option<Arc<Block>>,
    pub span: Span,
}

/// Constructor declaration. jlang allows at most one constructor per class.
#[derive(Debug, Clone)]
pub struct CtorDecl {
    pub params: Vec<Param>,
    /// Explicit `super(...)` call arguments, if written as the first statement.
    pub super_args: Option<Arc<Vec<Expr>>>,
    pub body: Arc<Block>,
    pub span: Span,
}

/// A `{ ... }` statement block.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// Assignment targets.
#[derive(Debug, Clone)]
pub enum LValue {
    /// A bare name: a local, a parameter, or an implicit `this.field`.
    Name(String, Span),
    /// `expr.field`
    Field { obj: Expr, name: String, span: Span },
    /// `Class.field`  (resolved later; parser can't distinguish from `obj.field`)
    /// `arr[idx]`
    Index { arr: Expr, idx: Expr, span: Span },
}

/// Statements.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `T x = init;`
    Local {
        name: String,
        ty: TypeRef,
        init: Option<Expr>,
        is_final: bool,
        span: Span,
    },
    /// `lhs op= rhs;` — `op` is `None` for plain `=`.
    Assign {
        target: LValue,
        op: Option<BinOp>,
        value: Expr,
        span: Span,
    },
    /// `x++;` / `x--;` statements (sugar for `x = x + 1`).
    IncDec {
        target: LValue,
        inc: bool,
        span: Span,
    },
    Expr(Expr),
    If {
        cond: Expr,
        then_branch: Block,
        else_branch: Option<Block>,
        span: Span,
    },
    While {
        cond: Expr,
        body: Block,
        span: Span,
    },
    /// `for (init; cond; update) body` — each part optional.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        update: Option<Box<Stmt>>,
        body: Block,
        span: Span,
    },
    Return {
        value: Option<Expr>,
        span: Span,
    },
    Break(Span),
    Continue(Span),
    Block(Block),
}

impl Stmt {
    pub fn span(&self) -> Span {
        match self {
            Stmt::Local { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::IncDec { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::For { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Break(span)
            | Stmt::Continue(span) => *span,
            Stmt::Expr(e) => e.span(),
            Stmt::Block(b) => b.stmts.first().map(|s| s.span()).unwrap_or_default(),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    /// True for `<`, `<=`, `>`, `>=`, `==`, `!=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// True for `&&` / `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Debug, Clone)]
pub enum Expr {
    IntLit(i64, Span),
    LongLit(i64, Span),
    FloatLit(f32, Span),
    DoubleLit(f64, Span),
    BoolLit(bool, Span),
    NullLit(Span),
    StrLit(String, Span),
    /// Bare name: local, parameter, implicit `this.field`, or class name
    /// (as receiver of a static call / static field).
    Name(String, Span),
    This(Span),
    /// `expr.name`
    Field {
        obj: Box<Expr>,
        name: String,
        span: Span,
    },
    /// `expr.name(args)` — virtual or static call; resolution decides.
    Call {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// `super.name(args)`
    SuperCall {
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// `new T(args)` / `new T<A,B>(args)`
    New {
        ty: TypeRef,
        args: Vec<Expr>,
        span: Span,
    },
    /// `new T[len]`
    NewArray {
        elem: TypeRef,
        len: Box<Expr>,
        span: Span,
    },
    /// `arr[idx]`
    Index {
        arr: Box<Expr>,
        idx: Box<Expr>,
        span: Span,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
        span: Span,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        span: Span,
    },
    /// `(T) expr`
    Cast {
        ty: TypeRef,
        expr: Box<Expr>,
        span: Span,
    },
    /// `expr instanceof T` — parsed so the rules checker can reject it.
    InstanceOf {
        expr: Box<Expr>,
        ty: TypeRef,
        span: Span,
    },
    /// `c ? t : f` — parsed so the rules checker can reject it.
    Ternary {
        cond: Box<Expr>,
        then_val: Box<Expr>,
        else_val: Box<Expr>,
        span: Span,
    },
}

impl Expr {
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit(_, s)
            | Expr::LongLit(_, s)
            | Expr::FloatLit(_, s)
            | Expr::DoubleLit(_, s)
            | Expr::BoolLit(_, s)
            | Expr::NullLit(s)
            | Expr::StrLit(_, s)
            | Expr::Name(_, s)
            | Expr::This(s)
            | Expr::Field { span: s, .. }
            | Expr::Call { span: s, .. }
            | Expr::SuperCall { span: s, .. }
            | Expr::New { span: s, .. }
            | Expr::NewArray { span: s, .. }
            | Expr::Index { span: s, .. }
            | Expr::Unary { span: s, .. }
            | Expr::Binary { span: s, .. }
            | Expr::Cast { span: s, .. }
            | Expr::InstanceOf { span: s, .. }
            | Expr::Ternary { span: s, .. } => *s,
        }
    }
}

/// One parsed compilation unit (a source file's worth of declarations).
#[derive(Debug, Clone, Default)]
pub struct Unit {
    pub classes: Vec<ClassDecl>,
}
