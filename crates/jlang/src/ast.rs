//! The untyped syntax produced by the parser.
//!
//! Names are unresolved at this stage; the resolver/type checker in
//! [`crate::typeck`] turns this into the typed representation in
//! [`crate::tast`].
//!
//! A unit is a skeleton of declarations ([`ClassDecl`] and its members)
//! that owns its names and types, with one [`Body`] per method body,
//! constructor (`super(...)` arguments plus body) and field initializer.
//! A body is flat: node vectors whose children are ids into the same
//! body, spans beside them, and its names interned once. Bodies are held
//! by [`Arc`]: immutable once parsed, and shared from then on by whoever
//! holds the declaration (a parse memo, every class table built from
//! it). Cloning a [`Unit`] copies the skeleton and bumps those counts.

use std::marker::PhantomData;
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

/// A syntactic type reference in a declaration, e.g. `float`,
/// `FloatGridDblB`, `T`, `OneDSolver<ScalarFloat, EmptyContext>`,
/// `float[]`. Types inside a body are [`TypeNode`]s.
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
    /// A body whose root is [`Root::Init`].
    pub init: Option<Arc<Body>>,
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

/// Method declaration; `body` (rooted at [`Root::Block`]) is `None` for
/// abstract/interface methods and for `@Native` methods.
#[derive(Debug, Clone)]
pub struct MethodDecl {
    pub name: String,
    pub annotations: Vec<Annotation>,
    pub modifiers: Modifiers,
    pub params: Vec<Param>,
    pub ret: TypeRef,
    pub body: Option<Arc<Body>>,
    pub span: Span,
}

/// Constructor declaration. jlang allows at most one constructor per class.
#[derive(Debug, Clone)]
pub struct CtorDecl {
    pub params: Vec<Param>,
    /// `super(...)` arguments and body, rooted at [`Root::Ctor`].
    pub body: Arc<Body>,
    pub span: Span,
}

// ---- bodies ---------------------------------------------------------------

/// An expression of a [`Body`], by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExprId(pub u32);

/// A statement of a [`Body`], by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StmtId(pub u32);

/// A type of a [`Body`], by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TyId(pub u32);

/// A name (or string literal) interned in a [`Body`], by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(pub u32);

macro_rules! from_raw {
    ($($id:ident),*) => {$(
        impl From<u32> for $id {
            fn from(raw: u32) -> Self {
                $id(raw)
            }
        }
    )*};
}
from_raw!(ExprId, StmtId, TyId);

/// A run of ids in a body's shared id list ([`Body::list`]).
#[derive(Debug, PartialEq, Default)]
pub struct IdList<T> {
    start: u32,
    len: u32,
    of: PhantomData<T>,
}

impl<T> Clone for IdList<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for IdList<T> {}

impl<T> IdList<T> {
    pub(crate) fn new(start: u32, len: u32) -> Self {
        IdList {
            start,
            len,
            of: PhantomData,
        }
    }

    /// Where the run starts in [`Body::ids`].
    pub fn start(self) -> u32 {
        self.start
    }

    pub fn len(self) -> usize {
        self.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A `{ ... }` statement block.
pub type Block = IdList<StmtId>;

/// Call or constructor arguments.
pub type Args = IdList<ExprId>;

/// What a body is the body of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Root {
    /// A method body.
    Block(Block),
    /// A constructor: explicit `super(...)` arguments, if written as the
    /// first statement, and the rest of the body.
    Ctor {
        super_args: Option<Args>,
        body: Block,
    },
    /// A field initializer.
    Init(ExprId),
}

/// A type inside a body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TypeNode {
    Void,
    Int,
    Long,
    Float,
    Double,
    Boolean,
    /// Class, interface, or type-parameter name with type arguments.
    Named {
        name: NameId,
        args: IdList<TyId>,
        span: Span,
    },
    Array(TyId),
}

/// Statements. Each one's span is [`Body::stmt_span`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stmt {
    /// `T x = init;`
    Local {
        name: NameId,
        ty: TyId,
        init: Option<ExprId>,
        is_final: bool,
    },
    /// `lhs op= rhs;` — `op` is `None` for plain `=`. The target is a
    /// [`Expr::Name`], [`Expr::Field`] or [`Expr::Index`].
    Assign {
        target: ExprId,
        op: Option<BinOp>,
        value: ExprId,
    },
    /// `x++;` / `x--;` statements (sugar for `x = x + 1`); the target is
    /// as for [`Stmt::Assign`].
    IncDec {
        target: ExprId,
        inc: bool,
    },
    Expr(ExprId),
    If {
        cond: ExprId,
        then_branch: Block,
        else_branch: Option<Block>,
    },
    While {
        cond: ExprId,
        body: Block,
    },
    /// `for (init; cond; update) body` — each part optional.
    For {
        init: Option<StmtId>,
        cond: Option<ExprId>,
        update: Option<StmtId>,
        body: Block,
    },
    Return {
        value: Option<ExprId>,
    },
    Break,
    Continue,
    Block(Block),
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
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions. Each one's span is [`Body::expr_span`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expr {
    IntLit(i64),
    LongLit(i64),
    FloatLit(f32),
    DoubleLit(f64),
    BoolLit(bool),
    NullLit,
    StrLit(NameId),
    /// Bare name: local, parameter, implicit `this.field`, or class name
    /// (as receiver of a static call / static field).
    Name(NameId),
    This,
    /// `expr.name`, or `Class.field` (resolved later; the parser can't
    /// tell the two apart).
    Field {
        obj: ExprId,
        name: NameId,
    },
    /// `expr.name(args)` — virtual or static call; resolution decides.
    Call {
        recv: ExprId,
        name: NameId,
        args: Args,
    },
    /// `super.name(args)`
    SuperCall {
        name: NameId,
        args: Args,
    },
    /// `new T(args)` / `new T<A,B>(args)`
    New {
        ty: TyId,
        args: Args,
    },
    /// `new T[len]`
    NewArray {
        elem: TyId,
        len: ExprId,
    },
    /// `arr[idx]`
    Index {
        arr: ExprId,
        idx: ExprId,
    },
    Unary {
        op: UnOp,
        expr: ExprId,
    },
    Binary {
        op: BinOp,
        lhs: ExprId,
        rhs: ExprId,
    },
    /// `(T) expr`
    Cast {
        ty: TyId,
        expr: ExprId,
    },
    /// `expr instanceof T` — parsed so the rules checker can reject it.
    InstanceOf {
        expr: ExprId,
        ty: TyId,
    },
    /// `c ? t : f` — parsed so the rules checker can reject it.
    Ternary {
        cond: ExprId,
        then_val: ExprId,
        else_val: ExprId,
    },
}

/// One method body, constructor or field initializer as flat node
/// vectors. Children precede their parents; spans sit beside the nodes;
/// names are interned once per body in first-use order, so a body is
/// self-contained and reads (and hashes) the same wherever it sits.
#[derive(Debug)]
pub struct Body {
    root: Root,
    exprs: Box<[Expr]>,
    expr_spans: Box<[Span]>,
    stmts: Box<[Stmt]>,
    stmt_spans: Box<[Span]>,
    types: Box<[TypeNode]>,
    /// Every [`IdList`], back to back.
    ids: Box<[u32]>,
    /// Every name, back to back; name `i` ends at `name_ends[i]`.
    names: Box<str>,
    name_ends: Box<[u32]>,
}

impl Body {
    /// The body of a class that declares no constructor.
    pub fn implicit_ctor() -> Body {
        BodyBuilder::default().finish(Root::Ctor {
            super_args: None,
            body: Block::default(),
        })
    }

    pub fn root(&self) -> Root {
        self.root
    }

    pub fn expr(&self, id: ExprId) -> Expr {
        self.exprs[id.0 as usize]
    }

    pub fn expr_span(&self, id: ExprId) -> Span {
        self.expr_spans[id.0 as usize]
    }

    pub fn stmt(&self, id: StmtId) -> Stmt {
        self.stmts[id.0 as usize]
    }

    pub fn stmt_span(&self, id: StmtId) -> Span {
        self.stmt_spans[id.0 as usize]
    }

    /// Type `id` as a declaration would hold it, for the resolver.
    pub fn type_ref(&self, id: TyId) -> TypeRef {
        owned_type(&self.types, &self.ids, &self.names, &self.name_ends, id)
    }

    pub fn name(&self, id: NameId) -> &str {
        name_text(&self.names, &self.name_ends, id)
    }

    /// The id of `name`, if the body uses it.
    pub fn find_name(&self, name: &str) -> Option<NameId> {
        self.names()
            .position(|n| n == name)
            .map(|i| NameId(i as u32))
    }

    /// The ids of a block, an argument list or a type's arguments.
    pub fn list<T: From<u32>>(&self, l: IdList<T>) -> impl ExactSizeIterator<Item = T> + '_ {
        let start = l.start as usize;
        self.ids[start..start + l.len()].iter().map(|&i| T::from(i))
    }

    pub fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    pub fn types(&self) -> &[TypeNode] {
        &self.types
    }

    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The interned names in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        (0..self.name_ends.len()).map(|i| self.name(NameId(i as u32)))
    }
}

/// The owned [`TypeRef`] of type `id` of a body's (or a builder's) nodes.
fn owned_type(types: &[TypeNode], ids: &[u32], names: &str, ends: &[u32], id: TyId) -> TypeRef {
    let ty = |id| owned_type(types, ids, names, ends, id);
    match types[id.0 as usize] {
        TypeNode::Void => TypeRef::Void,
        TypeNode::Int => TypeRef::Int,
        TypeNode::Long => TypeRef::Long,
        TypeNode::Float => TypeRef::Float,
        TypeNode::Double => TypeRef::Double,
        TypeNode::Boolean => TypeRef::Boolean,
        TypeNode::Named { name, args, span } => TypeRef::Named {
            name: name_text(names, ends, name).to_string(),
            args: ids[args.start as usize..][..args.len()]
                .iter()
                .map(|&a| ty(TyId(a)))
                .collect(),
            span,
        },
        TypeNode::Array(elem) => TypeRef::Array(Box::new(ty(elem))),
    }
}

/// Name `id` of a body's back-to-back name text.
fn name_text<'n>(names: &'n str, ends: &[u32], id: NameId) -> &'n str {
    let i = id.0 as usize;
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    &names[start..ends[i] as usize]
}

/// The slot of `name` in an open-addressed name index: the one holding
/// it, or the empty one where it belongs.
fn probe(slots: &[u32], names: &str, ends: &[u32], name: &str) -> usize {
    let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mask = slots.len() - 1;
    let mut at = hash as usize & mask;
    while slots[at] != 0 && name_text(names, ends, NameId(slots[at] - 1)) != name {
        at = (at + 1) & mask;
    }
    at
}

/// The id list of a body being built, and the lists being collected for
/// it. A list is collected on a pending stack, because lists nest (a
/// block's statements hold blocks and arguments), and moved to the id
/// list when it closes.
#[derive(Default)]
pub(crate) struct IdLists {
    /// Every closed list, back to back.
    pub(crate) ids: Vec<u32>,
    /// Members of the lists under construction, innermost list last.
    pending: Vec<u32>,
}

impl IdLists {
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.pending.clear();
    }

    /// Where the list about to be built starts; pass it to [`Self::list`].
    pub(crate) fn mark(&self) -> usize {
        self.pending.len()
    }

    /// Append a member to the innermost list under construction.
    pub(crate) fn push(&mut self, raw: u32) {
        self.pending.push(raw);
    }

    /// Drop the members pushed since `mark`: a list a failure left open.
    pub(crate) fn truncate(&mut self, mark: usize) {
        self.pending.truncate(mark);
    }

    /// Close the list begun at `mark`.
    pub(crate) fn list<T>(&mut self, mark: usize) -> IdList<T> {
        let start = self.ids.len() as u32;
        self.ids.extend(self.pending.drain(mark..));
        IdList::new(start, self.ids.len() as u32 - start)
    }
}

/// Builds one [`Body`] at a time; the parser keeps one and reuses its
/// buffers from body to body, so a body costs its final allocations only.
#[derive(Default)]
pub(crate) struct BodyBuilder {
    exprs: Vec<Expr>,
    expr_spans: Vec<Span>,
    stmts: Vec<Stmt>,
    stmt_spans: Vec<Span>,
    types: Vec<TypeNode>,
    pub(crate) lists: IdLists,
    names: String,
    name_ends: Vec<u32>,
    /// Open-addressed index of the names, at most half full: a name's
    /// slot is found by probing from its hash and holds its id + 1.
    slots: Vec<u32>,
}

impl BodyBuilder {
    pub(crate) fn clear(&mut self) {
        self.exprs.clear();
        self.expr_spans.clear();
        self.stmts.clear();
        self.stmt_spans.clear();
        self.types.clear();
        self.lists.clear();
        if !self.name_ends.is_empty() {
            self.slots.fill(0);
        }
        self.names.clear();
        self.name_ends.clear();
    }

    pub(crate) fn expr(&mut self, e: Expr, span: Span) -> ExprId {
        self.exprs.push(e);
        self.expr_spans.push(span);
        ExprId(self.exprs.len() as u32 - 1)
    }

    pub(crate) fn stmt(&mut self, s: Stmt, span: Span) -> StmtId {
        self.stmts.push(s);
        self.stmt_spans.push(span);
        StmtId(self.stmts.len() as u32 - 1)
    }

    pub(crate) fn ty(&mut self, t: TypeNode) -> TyId {
        self.types.push(t);
        TyId(self.types.len() as u32 - 1)
    }

    pub(crate) fn get(&self, id: ExprId) -> (Expr, Span) {
        (self.exprs[id.0 as usize], self.expr_spans[id.0 as usize])
    }

    pub(crate) fn intern(&mut self, name: &str) -> NameId {
        let count = self.name_ends.len() as u32;
        if 2 * (count as usize + 1) > self.slots.len() {
            let mut slots = vec![0; (2 * self.slots.len()).max(64)];
            for id in 0..count {
                let text = name_text(&self.names, &self.name_ends, NameId(id));
                let at = probe(&slots, &self.names, &self.name_ends, text);
                slots[at] = id + 1;
            }
            self.slots = slots;
        }
        let at = probe(&self.slots, &self.names, &self.name_ends, name);
        if self.slots[at] == 0 {
            self.names.push_str(name);
            self.name_ends.push(self.names.len() as u32);
            self.slots[at] = count + 1;
        }
        NameId(self.slots[at] - 1)
    }

    /// The owned [`TypeRef`] of a type built here, for a declaration.
    pub(crate) fn type_ref(&self, id: TyId) -> TypeRef {
        owned_type(
            &self.types,
            &self.lists.ids,
            &self.names,
            &self.name_ends,
            id,
        )
    }

    /// The body built so far, rooted at `root`; leaves the builder empty.
    pub(crate) fn finish(&mut self, root: Root) -> Body {
        let body = Body {
            root,
            exprs: self.exprs.as_slice().into(),
            expr_spans: self.expr_spans.as_slice().into(),
            stmts: self.stmts.as_slice().into(),
            stmt_spans: self.stmt_spans.as_slice().into(),
            types: self.types.as_slice().into(),
            ids: self.lists.ids.as_slice().into(),
            names: self.names.as_str().into(),
            name_ends: self.name_ends.as_slice().into(),
        };
        self.clear();
        body
    }
}

/// One parsed compilation unit (a source file's worth of declarations).
#[derive(Debug, Clone, Default)]
pub struct Unit {
    pub classes: Vec<ClassDecl>,
}
