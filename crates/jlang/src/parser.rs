//! Recursive-descent parser for jlang.
//!
//! The grammar is the Java subset used by the paper's listings: class and
//! interface declarations (single inheritance + interfaces), generics with
//! upper bounds, one constructor per class, fields with initializers,
//! statements (`if`/`while`/`for`/`return`/blocks), and the usual
//! expression forms. Constructs that the WootinJ coding rules *forbid*
//! (ternary, `null`, `instanceof`, reference equality) are still parsed so
//! that the rules checker can reject them with a good message.

use std::sync::Arc;

use crate::ast::*;
use crate::span::{Diagnostic, Span};
use crate::token::{lex, Tok, Token};

pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Set when a `>>` token has had its first `>` consumed while closing a
    /// generic argument list; the remaining half acts as a single `>`.
    pending_gt: bool,
    /// Expression nesting depth (each level costs ~a dozen recursive
    /// descent frames; guard well before the host stack gives out).
    depth: u32,
    /// Statement nesting depth: blocks, loop and branch bodies, `else if`.
    stmt_depth: u32,
    /// Height of the expression tree the last expression method returned
    /// (a leaf is 1). Chains like `a + a + ...` and `a[0][0]...` are parsed
    /// by loops, not recursion, so `depth` never sees how deep a tree they
    /// build; this does.
    height: u32,
    diags: Vec<Diagnostic>,
}

/// Maximum expression nesting depth.
const MAX_EXPR_DEPTH: u32 = 40;

/// Maximum expression-tree height, and maximum statement nesting. Every
/// pass after the parser (typeck, rules, lowering, the interpreter, and
/// `Drop`) recurses over the tree it accepts, on whatever stack the caller
/// has — 2 MB on a `jitd` connection thread or a test thread. Measured in
/// an unoptimized build, where frames are largest: those passes take
/// ≈24 KB per expression level and at most ≈17 KB per statement level
/// (≈1.4 MB at both limits), and the parser's own descent ≈35 KB per
/// level of [`MAX_EXPR_DEPTH`] and ≈17 KB per statement level (≈1.7 MB).
/// Outside the tests of these limits, nothing in this repository nests
/// statements deeper than 6 or builds an expression taller than 12.
const MAX_EXPR_HEIGHT: u32 = 48;
const MAX_STMT_DEPTH: u32 = 16;

/// Parse one source file into a [`Unit`].
pub fn parse_unit(file: u32, src: &str) -> Result<Unit, Vec<Diagnostic>> {
    let toks = lex(file, src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        pending_gt: false,
        depth: 0,
        stmt_depth: 0,
        height: 0,
        diags: Vec::new(),
    };
    let unit = p.unit();
    if p.diags.is_empty() {
        Ok(unit)
    } else {
        Err(p.diags)
    }
}

type PResult<T> = Result<T, Diagnostic>;

impl Parser {
    fn peek(&self) -> &Tok {
        if self.pending_gt {
            &Tok::Gt
        } else {
            &self.toks[self.pos].tok
        }
    }

    fn peek_at(&self, n: usize) -> &Tok {
        let idx = (self.pos + n).min(self.toks.len() - 1);
        &self.toks[idx].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) {
        if self.pending_gt {
            self.pending_gt = false;
            // Consume the remaining `>` half of a `>>` token.
            self.pos += 1;
        } else if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    /// Consume a `>`; splits a `>>` token into two halves when needed.
    fn expect_gt(&mut self) -> PResult<()> {
        if self.pending_gt {
            self.bump();
            return Ok(());
        }
        match &self.toks[self.pos].tok {
            Tok::Gt => {
                self.bump();
                Ok(())
            }
            Tok::Shr => {
                // First half consumed now; the second half stays pending.
                self.pending_gt = true;
                Ok(())
            }
            other => Err(self.err(format!("expected `>`, found {}", other.describe()))),
        }
    }

    fn err(&self, msg: String) -> Diagnostic {
        Diagnostic::error("parser", self.span(), msg)
    }

    fn expect(&mut self, tok: Tok) -> PResult<Span> {
        if *self.peek() == tok {
            let s = self.span();
            self.bump();
            Ok(s)
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                tok.describe(),
                self.peek().describe()
            )))
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<(String, Span)> {
        let s = self.span();
        match self.peek() {
            Tok::Ident(name) => {
                let name = name.clone();
                self.bump();
                Ok((name, s))
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn unit(&mut self) -> Unit {
        let mut unit = Unit::default();
        while *self.peek() != Tok::Eof {
            match self.class_decl() {
                Ok(c) => unit.classes.push(c),
                Err(d) => {
                    self.diags.push(d);
                    self.recover_to_class();
                }
            }
        }
        unit
    }

    /// After an error, skip forward to the next plausible class declaration.
    fn recover_to_class(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::LBrace => {
                    depth += 1;
                    self.bump();
                }
                Tok::RBrace => {
                    depth = depth.saturating_sub(1);
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                }
                Tok::KwClass | Tok::KwInterface | Tok::At if depth == 0 => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn annotations(&mut self) -> PResult<Vec<Annotation>> {
        let mut anns = Vec::new();
        while *self.peek() == Tok::At {
            let start = self.span();
            self.bump();
            let (name, _) = self.ident()?;
            let mut arg = None;
            if self.eat(Tok::LParen) {
                if let Tok::StrLit(s) = self.peek() {
                    arg = Some(s.clone());
                    self.bump();
                }
                self.expect(Tok::RParen)?;
            }
            anns.push(Annotation {
                name,
                arg,
                span: start.to(self.prev_span()),
            });
        }
        Ok(anns)
    }

    fn modifiers(&mut self) -> Modifiers {
        let mut m = Modifiers::default();
        loop {
            match self.peek() {
                Tok::KwPublic | Tok::KwPrivate | Tok::KwProtected => {
                    self.bump();
                }
                Tok::KwStatic => {
                    self.bump();
                    m.is_static = true;
                }
                Tok::KwFinal => {
                    self.bump();
                    m.is_final = true;
                }
                Tok::KwAbstract => {
                    self.bump();
                    m.is_abstract = true;
                }
                _ => return m,
            }
        }
    }

    fn class_decl(&mut self) -> PResult<ClassDecl> {
        let start = self.span();
        let annotations = self.annotations()?;
        let modifiers = self.modifiers();
        let is_interface = match self.peek() {
            Tok::KwClass => {
                self.bump();
                false
            }
            Tok::KwInterface => {
                self.bump();
                true
            }
            other => {
                return Err(self.err(format!(
                    "expected `class` or `interface`, found {}",
                    other.describe()
                )))
            }
        };
        let (name, _) = self.ident()?;
        let type_params = if *self.peek() == Tok::Lt {
            self.type_params()?
        } else {
            Vec::new()
        };
        let mut superclass = None;
        let mut interfaces = Vec::new();
        if self.eat(Tok::KwExtends) {
            if is_interface {
                // Interfaces may extend several interfaces.
                interfaces.push(self.type_ref()?);
                while self.eat(Tok::Comma) {
                    interfaces.push(self.type_ref()?);
                }
            } else {
                superclass = Some(self.type_ref()?);
            }
        }
        if self.eat(Tok::KwImplements) {
            interfaces.push(self.type_ref()?);
            while self.eat(Tok::Comma) {
                interfaces.push(self.type_ref()?);
            }
        }
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        let mut ctor: Option<CtorDecl> = None;
        while !self.eat(Tok::RBrace) {
            if *self.peek() == Tok::Eof {
                return Err(self.err(format!("unterminated body of `{name}`")));
            }
            self.member(&name, is_interface, &mut fields, &mut methods, &mut ctor)?;
        }
        Ok(ClassDecl {
            name,
            is_interface,
            annotations,
            modifiers,
            type_params,
            superclass,
            interfaces,
            fields,
            methods,
            ctor,
            span: start.to(self.prev_span()),
        })
    }

    fn type_params(&mut self) -> PResult<Vec<TypeParam>> {
        self.expect(Tok::Lt)?;
        let mut out = Vec::new();
        loop {
            let (name, span) = self.ident()?;
            let bound = if self.eat(Tok::KwExtends) {
                Some(self.type_ref()?)
            } else {
                None
            };
            out.push(TypeParam { name, bound, span });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect_gt()?;
        Ok(out)
    }

    fn member(
        &mut self,
        class_name: &str,
        is_interface: bool,
        fields: &mut Vec<FieldDecl>,
        methods: &mut Vec<MethodDecl>,
        ctor: &mut Option<CtorDecl>,
    ) -> PResult<()> {
        let start = self.span();
        let annotations = self.annotations()?;
        let modifiers = self.modifiers();

        // Constructor: `Name (` where Name == enclosing class.
        if let Tok::Ident(id) = self.peek() {
            if id == class_name && *self.peek_at(1) == Tok::LParen {
                let c = self.ctor_decl()?;
                if ctor.is_some() {
                    return Err(Diagnostic::error(
                        "parser",
                        c.span,
                        format!(
                            "class `{class_name}` has more than one constructor (jlang allows one)"
                        ),
                    ));
                }
                *ctor = Some(c);
                return Ok(());
            }
        }

        let ty = self.type_ref()?;
        let (name, _) = self.ident()?;
        if *self.peek() == Tok::LParen {
            // Method.
            let params = self.params()?;
            let body = if self.eat(Tok::Semi) {
                None
            } else {
                Some(Arc::new(self.block()?))
            };
            if body.is_none() && !is_interface && !modifiers.is_abstract {
                let is_native = annotations.iter().any(|a| a.name == "Native");
                if !is_native {
                    return Err(Diagnostic::error(
                        "parser",
                        start,
                        format!("method `{name}` has no body but is not abstract, @Native, or an interface method"),
                    ));
                }
            }
            methods.push(MethodDecl {
                name,
                annotations,
                modifiers,
                params,
                ret: ty,
                body,
                span: start.to(self.prev_span()),
            });
        } else {
            // Field(s): `T a = e, b;` — comma-separated declarators share type.
            let mut declared = vec![(name, self.field_init()?)];
            while self.eat(Tok::Comma) {
                let (n, _) = self.ident()?;
                declared.push((n, self.field_init()?));
            }
            self.expect(Tok::Semi)?;
            for (n, init) in declared {
                fields.push(FieldDecl {
                    name: n,
                    ty: ty.clone(),
                    annotations: annotations.clone(),
                    modifiers,
                    init,
                    span: start.to(self.prev_span()),
                });
            }
        }
        Ok(())
    }

    fn field_init(&mut self) -> PResult<Option<Arc<Expr>>> {
        if self.eat(Tok::Assign) {
            Ok(Some(Arc::new(self.expr()?)))
        } else {
            Ok(None)
        }
    }

    fn ctor_decl(&mut self) -> PResult<CtorDecl> {
        let start = self.span();
        self.ident()?; // class name, validated by caller
        let params = self.params()?;
        self.expect(Tok::LBrace)?;
        // Optional `super(...)` as the first statement.
        let mut super_args = None;
        if *self.peek() == Tok::KwSuper && *self.peek_at(1) == Tok::LParen {
            self.bump();
            self.bump();
            let mut args = Vec::new();
            if *self.peek() != Tok::RParen {
                args.push(self.expr()?);
                while self.eat(Tok::Comma) {
                    args.push(self.expr()?);
                }
            }
            self.expect(Tok::RParen)?;
            self.expect(Tok::Semi)?;
            super_args = Some(Arc::new(args));
        }
        let mut stmts = Vec::new();
        while !self.eat(Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(CtorDecl {
            params,
            super_args,
            body: Arc::new(Block { stmts }),
            span: start.to(self.prev_span()),
        })
    }

    fn params(&mut self) -> PResult<Vec<Param>> {
        self.expect(Tok::LParen)?;
        let mut out = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let start = self.span();
                let is_final = self.eat(Tok::KwFinal);
                let ty = self.type_ref()?;
                let (name, _) = self.ident()?;
                out.push(Param {
                    name,
                    ty,
                    is_final,
                    span: start.to(self.prev_span()),
                });
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn type_ref(&mut self) -> PResult<TypeRef> {
        let base = match self.peek() {
            Tok::KwVoid => {
                self.bump();
                TypeRef::Void
            }
            Tok::KwInt => {
                self.bump();
                TypeRef::Int
            }
            Tok::KwLong => {
                self.bump();
                TypeRef::Long
            }
            Tok::KwFloat => {
                self.bump();
                TypeRef::Float
            }
            Tok::KwDouble => {
                self.bump();
                TypeRef::Double
            }
            Tok::KwBoolean => {
                self.bump();
                TypeRef::Boolean
            }
            Tok::Ident(name) => {
                let name = name.clone();
                let span = self.span();
                self.bump();
                let mut args = Vec::new();
                if *self.peek() == Tok::Lt && self.looks_like_type_args() {
                    self.bump();
                    loop {
                        args.push(self.nested("type", Self::type_ref)?);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect_gt()?;
                }
                TypeRef::Named {
                    name,
                    args,
                    span: span.to(self.prev_span()),
                }
            }
            other => return Err(self.err(format!("expected a type, found {}", other.describe()))),
        };
        let mut ty = base;
        let mut dims = 0;
        while *self.peek() == Tok::LBracket && *self.peek_at(1) == Tok::RBracket {
            dims += 1;
            if dims > MAX_EXPR_DEPTH {
                return Err(self.err(format!(
                    "array type nested deeper than {MAX_EXPR_DEPTH} levels"
                )));
            }
            self.bump();
            self.bump();
            ty = TypeRef::Array(Box::new(ty));
        }
        Ok(ty)
    }

    /// Heuristic lookahead after `Ident <`: are we at generic type
    /// arguments (`Foo<Bar, Baz>`) or a comparison (`a < b`)? Scans forward
    /// over type-ish tokens for a closing `>`.
    fn looks_like_type_args(&self) -> bool {
        let mut i = 1; // index of token after `<`
        let mut depth = 1i32;
        loop {
            match self.peek_at(i) {
                Tok::Ident(_)
                | Tok::Comma
                | Tok::Dot
                | Tok::LBracket
                | Tok::RBracket
                | Tok::KwInt
                | Tok::KwLong
                | Tok::KwFloat
                | Tok::KwDouble
                | Tok::KwBoolean => {}
                Tok::Lt => depth += 1,
                Tok::Gt => {
                    depth -= 1;
                    if depth == 0 {
                        return true;
                    }
                }
                Tok::Shr => {
                    depth -= 2;
                    if depth <= 0 {
                        return true;
                    }
                }
                _ => return false,
            }
            i += 1;
            if i > 64 {
                return false;
            }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(Tok::RBrace) {
            if *self.peek() == Tok::Eof {
                return Err(self.err("unterminated block".to_string()));
            }
            stmts.push(self.stmt()?);
        }
        Ok(Block { stmts })
    }

    /// A block, or a single statement wrapped in a block (for `if (c) s;`).
    fn block_or_stmt(&mut self) -> PResult<Block> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            Ok(Block {
                stmts: vec![self.stmt()?],
            })
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.stmt_depth += 1;
        let r = if self.stmt_depth > MAX_STMT_DEPTH {
            Err(self.err(format!(
                "statement nesting deeper than {MAX_STMT_DEPTH} levels"
            )))
        } else {
            self.stmt_at_depth()
        };
        self.stmt_depth -= 1;
        r
    }

    fn stmt_at_depth(&mut self) -> PResult<Stmt> {
        let start = self.span();
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::KwReturn => {
                self.bump();
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return {
                    value,
                    span: start.to(self.prev_span()),
                })
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break(start))
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue(start))
            }
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_branch = self.block_or_stmt()?;
                let else_branch = if self.eat(Tok::KwElse) {
                    Some(if *self.peek() == Tok::KwIf {
                        Block {
                            stmts: vec![self.stmt()?],
                        }
                    } else {
                        self.block_or_stmt()?
                    })
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    span: start.to(self.prev_span()),
                })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::While {
                    cond,
                    body,
                    span: start.to(self.prev_span()),
                })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if self.eat(Tok::Semi) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt(true)?))
                };
                let cond = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                let update = if *self.peek() == Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt_no_semi()?))
                };
                self.expect(Tok::RParen)?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                    span: start.to(self.prev_span()),
                })
            }
            _ => self.simple_stmt(true),
        }
    }

    /// A local-declaration / assignment / inc-dec / expression statement.
    /// When `want_semi` is set, a trailing `;` is required and consumed.
    fn simple_stmt(&mut self, want_semi: bool) -> PResult<Stmt> {
        let stmt = self.simple_stmt_no_semi()?;
        if want_semi {
            self.expect(Tok::Semi)?;
        }
        Ok(stmt)
    }

    fn simple_stmt_no_semi(&mut self) -> PResult<Stmt> {
        let start = self.span();
        // Local declaration? Try `[final] Type Ident` with backtracking.
        let save = self.pos;
        let is_final = self.eat(Tok::KwFinal);
        if self.starts_type() {
            if let Ok(ty) = self.type_ref() {
                if let Tok::Ident(_) = self.peek() {
                    let (name, _) = self.ident()?;
                    let init = if self.eat(Tok::Assign) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    return Ok(Stmt::Local {
                        name,
                        ty,
                        init,
                        is_final,
                        span: start.to(self.prev_span()),
                    });
                }
            }
            self.pos = save;
            self.pending_gt = false;
        } else if is_final {
            return Err(self.err("`final` must begin a local declaration".to_string()));
        }

        // Assignment / inc-dec / expression statement.
        let e = self.expr()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinOp::Add),
            Tok::MinusAssign => Some(BinOp::Sub),
            Tok::StarAssign => Some(BinOp::Mul),
            Tok::SlashAssign => Some(BinOp::Div),
            Tok::PercentAssign => Some(BinOp::Rem),
            inc_dec @ (Tok::PlusPlus | Tok::MinusMinus) => {
                let inc = *inc_dec == Tok::PlusPlus;
                self.bump();
                let target = self.expr_to_lvalue(e)?;
                return Ok(Stmt::IncDec {
                    target,
                    inc,
                    span: start.to(self.prev_span()),
                });
            }
            _ => return Ok(Stmt::Expr(e)),
        };
        self.bump();
        let target = self.expr_to_lvalue(e)?;
        let value = self.expr()?;
        Ok(Stmt::Assign {
            target,
            op,
            value,
            span: start.to(self.prev_span()),
        })
    }

    fn starts_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwInt
                | Tok::KwLong
                | Tok::KwFloat
                | Tok::KwDouble
                | Tok::KwBoolean
                | Tok::KwVoid
                | Tok::Ident(_)
        )
    }

    fn expr_to_lvalue(&self, e: Expr) -> PResult<LValue> {
        match e {
            Expr::Name(n, s) => Ok(LValue::Name(n, s)),
            Expr::Field { obj, name, span } => Ok(LValue::Field {
                obj: *obj,
                name,
                span,
            }),
            Expr::Index { arr, idx, span } => Ok(LValue::Index {
                arr: *arr,
                idx: *idx,
                span,
            }),
            other => Err(Diagnostic::error(
                "parser",
                other.span(),
                "expression is not assignable".to_string(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    pub fn expr(&mut self) -> PResult<Expr> {
        self.nested("expression", Self::ternary)
    }

    /// Run `parse` one recursion level down.
    fn nested<T>(&mut self, what: &str, parse: fn(&mut Self) -> PResult<T>) -> PResult<T> {
        self.depth += 1;
        let r = if self.depth > MAX_EXPR_DEPTH {
            Err(self.err(format!("{what} nested deeper than {MAX_EXPR_DEPTH} levels")))
        } else {
            parse(self)
        };
        self.depth -= 1;
        r
    }

    /// The expression about to be returned is one node over subtrees the
    /// tallest of which has height `below`.
    fn node_over(&mut self, below: u32) -> PResult<()> {
        self.height = below + 1;
        if self.height > MAX_EXPR_HEIGHT {
            return Err(self.err(format!(
                "expression nested deeper than {MAX_EXPR_HEIGHT} levels"
            )));
        }
        Ok(())
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.logic_or()?;
        if self.eat(Tok::Question) {
            let start = cond.span();
            let mut below = self.height;
            let then_val = self.expr()?;
            below = below.max(self.height);
            self.expect(Tok::Colon)?;
            let else_val = self.expr()?;
            self.node_over(below.max(self.height))?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_val: Box::new(then_val),
                else_val: Box::new(else_val),
                span: start.to(self.prev_span()),
            })
        } else {
            Ok(cond)
        }
    }

    fn binary_level(
        &mut self,
        next: fn(&mut Self) -> PResult<Expr>,
        ops: &[(Tok, BinOp)],
    ) -> PResult<Expr> {
        let mut lhs = next(self)?;
        'outer: loop {
            for (tok, op) in ops {
                if self.peek() == tok {
                    self.bump();
                    let below = self.height;
                    let rhs = next(self)?;
                    self.node_over(below.max(self.height))?;
                    let span = lhs.span().to(rhs.span());
                    lhs = Expr::Binary {
                        op: *op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        span,
                    };
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn logic_or(&mut self) -> PResult<Expr> {
        self.binary_level(Self::logic_and, &[(Tok::OrOr, BinOp::Or)])
    }

    fn logic_and(&mut self) -> PResult<Expr> {
        self.binary_level(Self::bit_or, &[(Tok::AndAnd, BinOp::And)])
    }

    fn bit_or(&mut self) -> PResult<Expr> {
        self.binary_level(Self::bit_xor, &[(Tok::BitOr, BinOp::BitOr)])
    }

    fn bit_xor(&mut self) -> PResult<Expr> {
        self.binary_level(Self::bit_and, &[(Tok::BitXor, BinOp::BitXor)])
    }

    fn bit_and(&mut self) -> PResult<Expr> {
        self.binary_level(Self::equality, &[(Tok::BitAnd, BinOp::BitAnd)])
    }

    fn equality(&mut self) -> PResult<Expr> {
        self.binary_level(
            Self::relational,
            &[(Tok::EqEq, BinOp::Eq), (Tok::NotEq, BinOp::Ne)],
        )
    }

    fn relational(&mut self) -> PResult<Expr> {
        let mut lhs = self.shift()?;
        loop {
            // `instanceof`
            if *self.peek() == Tok::KwInstanceof {
                self.bump();
                let ty = self.type_ref()?;
                self.node_over(self.height)?;
                let span = lhs.span().to(self.prev_span());
                lhs = Expr::InstanceOf {
                    expr: Box::new(lhs),
                    ty,
                    span,
                };
                continue;
            }
            let op = match self.peek() {
                Tok::Lt => BinOp::Lt,
                Tok::Le => BinOp::Le,
                Tok::Gt => BinOp::Gt,
                Tok::Ge => BinOp::Ge,
                _ => return Ok(lhs),
            };
            self.bump();
            let below = self.height;
            let rhs = self.shift()?;
            self.node_over(below.max(self.height))?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn shift(&mut self) -> PResult<Expr> {
        self.binary_level(
            Self::additive,
            &[(Tok::Shl, BinOp::Shl), (Tok::Shr, BinOp::Shr)],
        )
    }

    fn additive(&mut self) -> PResult<Expr> {
        self.binary_level(
            Self::multiplicative,
            &[(Tok::Plus, BinOp::Add), (Tok::Minus, BinOp::Sub)],
        )
    }

    fn multiplicative(&mut self) -> PResult<Expr> {
        self.binary_level(
            Self::unary,
            &[
                (Tok::Star, BinOp::Mul),
                (Tok::Slash, BinOp::Div),
                (Tok::Percent, BinOp::Rem),
            ],
        )
    }

    fn unary(&mut self) -> PResult<Expr> {
        let start = self.span();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let e = self.nested("expression", Self::unary)?;
                self.node_over(self.height)?;
                let span = start.to(e.span());
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                    span,
                })
            }
            Tok::Not => {
                self.bump();
                let e = self.nested("expression", Self::unary)?;
                self.node_over(self.height)?;
                let span = start.to(e.span());
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                    span,
                })
            }
            Tok::LParen if self.is_cast() => {
                self.bump();
                let ty = self.type_ref()?;
                self.expect(Tok::RParen)?;
                let e = self.nested("expression", Self::unary)?;
                self.node_over(self.height)?;
                let span = start.to(e.span());
                Ok(Expr::Cast {
                    ty,
                    expr: Box::new(e),
                    span,
                })
            }
            _ => self.postfix(),
        }
    }

    /// Disambiguate `(T) expr` casts from parenthesized expressions.
    fn is_cast(&self) -> bool {
        debug_assert_eq!(*self.peek(), Tok::LParen);
        match self.peek_at(1) {
            // `(int)`, `(float)`, ... are always casts.
            Tok::KwInt | Tok::KwLong | Tok::KwFloat | Tok::KwDouble | Tok::KwBoolean => true,
            Tok::Ident(_) => {
                // `(Name)` followed by something that can begin an operand.
                let mut i = 2;
                // Skip over `[]` pairs: `(Foo[])`.
                while *self.peek_at(i) == Tok::LBracket && *self.peek_at(i + 1) == Tok::RBracket {
                    i += 2;
                }
                if *self.peek_at(i) != Tok::RParen {
                    return false;
                }
                matches!(
                    self.peek_at(i + 1),
                    Tok::Ident(_)
                        | Tok::IntLit(_)
                        | Tok::LongLit(_)
                        | Tok::FloatLit(_)
                        | Tok::DoubleLit(_)
                        | Tok::KwTrue
                        | Tok::KwFalse
                        | Tok::KwThis
                        | Tok::KwNew
                        | Tok::KwNull
                        | Tok::LParen
                        | Tok::Not
                )
            }
            _ => false,
        }
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let (name, _) = self.ident()?;
                    if *self.peek() == Tok::LParen {
                        let below = self.height;
                        let args = self.call_args()?;
                        self.node_over(below.max(self.height))?;
                        let span = e.span().to(self.prev_span());
                        e = Expr::Call {
                            recv: Box::new(e),
                            name,
                            args,
                            span,
                        };
                    } else {
                        self.node_over(self.height)?;
                        let span = e.span().to(self.prev_span());
                        e = Expr::Field {
                            obj: Box::new(e),
                            name,
                            span,
                        };
                    }
                }
                Tok::LBracket => {
                    self.bump();
                    let below = self.height;
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    self.node_over(below.max(self.height))?;
                    let span = e.span().to(self.prev_span());
                    e = Expr::Index {
                        arr: Box::new(e),
                        idx: Box::new(idx),
                        span,
                    };
                }
                _ => return Ok(e),
            }
        }
    }

    /// Leaves `height` at that of the tallest argument (0 for none).
    fn call_args(&mut self) -> PResult<Vec<Expr>> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        let mut tallest = 0;
        if *self.peek() != Tok::RParen {
            loop {
                args.push(self.expr()?);
                tallest = tallest.max(self.height);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.height = tallest;
        Ok(args)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let start = self.span();
        self.height = 1; // a leaf, unless an arm below builds over operands
        match self.peek() {
            &Tok::IntLit(v) => {
                self.bump();
                Ok(Expr::IntLit(v, start))
            }
            &Tok::LongLit(v) => {
                self.bump();
                Ok(Expr::LongLit(v, start))
            }
            &Tok::FloatLit(v) => {
                self.bump();
                Ok(Expr::FloatLit(v, start))
            }
            &Tok::DoubleLit(v) => {
                self.bump();
                Ok(Expr::DoubleLit(v, start))
            }
            Tok::StrLit(s) => {
                let s = s.clone();
                self.bump();
                Ok(Expr::StrLit(s, start))
            }
            Tok::KwTrue => {
                self.bump();
                Ok(Expr::BoolLit(true, start))
            }
            Tok::KwFalse => {
                self.bump();
                Ok(Expr::BoolLit(false, start))
            }
            Tok::KwNull => {
                self.bump();
                Ok(Expr::NullLit(start))
            }
            Tok::KwThis => {
                self.bump();
                Ok(Expr::This(start))
            }
            Tok::KwSuper => {
                self.bump();
                self.expect(Tok::Dot)?;
                let (name, _) = self.ident()?;
                let args = self.call_args()?;
                self.node_over(self.height)?;
                Ok(Expr::SuperCall {
                    name,
                    args,
                    span: start.to(self.prev_span()),
                })
            }
            Tok::KwNew => {
                self.bump();
                let ty = self.type_ref()?;
                // `new T[len]` — type_ref won't have consumed `[` because it
                // only consumes `[]` pairs.
                if self.eat(Tok::LBracket) {
                    let len = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    self.node_over(self.height)?;
                    return Ok(Expr::NewArray {
                        elem: ty,
                        len: Box::new(len),
                        span: start.to(self.prev_span()),
                    });
                }
                let args = self.call_args()?;
                self.node_over(self.height)?;
                Ok(Expr::New {
                    ty,
                    args,
                    span: start.to(self.prev_span()),
                })
            }
            Tok::Ident(name) => {
                let name = name.clone();
                self.bump();
                if *self.peek() == Tok::LParen {
                    // Unqualified call: `foo(...)` on implicit `this`.
                    let args = self.call_args()?;
                    self.node_over(self.height.max(1))?;
                    let span = start.to(self.prev_span());
                    Ok(Expr::Call {
                        recv: Box::new(Expr::This(start)),
                        name,
                        args,
                        span,
                    })
                } else {
                    Ok(Expr::Name(name, start))
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Unit {
        match parse_unit(0, src) {
            Ok(u) => u,
            Err(ds) => panic!("parse failed:\n{}", crate::span::render_diags(&ds)),
        }
    }

    #[test]
    fn parses_minimal_class() {
        let u = parse_ok("class A { }");
        assert_eq!(u.classes.len(), 1);
        assert_eq!(u.classes[0].name, "A");
        assert!(!u.classes[0].is_interface);
    }

    #[test]
    fn parses_interface_with_method() {
        let u = parse_ok("interface Solver { float solve(float self, int index); }");
        let c = &u.classes[0];
        assert!(c.is_interface);
        assert_eq!(c.methods.len(), 1);
        assert!(c.methods[0].body.is_none());
        assert_eq!(c.methods[0].params.len(), 2);
    }

    #[test]
    fn parses_annotations() {
        let u = parse_ok(
            "@WootinJ class A { @Global void k(int x) { } @Native(\"sqrtf\") float s(float x); }",
        );
        let c = &u.classes[0];
        assert_eq!(c.annotations[0].name, "WootinJ");
        assert_eq!(c.methods[0].annotations[0].name, "Global");
        assert_eq!(c.methods[1].annotations[0].arg.as_deref(), Some("sqrtf"));
    }

    #[test]
    fn parses_generics_with_shr_split() {
        let u =
            parse_ok("class Dif1DSolver extends OneDSolver<ScalarFloat, Grid<ScalarFloat>> { }");
        let c = &u.classes[0];
        match c.superclass.as_ref().unwrap() {
            TypeRef::Named { name, args, .. } => {
                assert_eq!(name, "OneDSolver");
                assert_eq!(args.len(), 2);
                match &args[1] {
                    TypeRef::Named { name, args, .. } => {
                        assert_eq!(name, "Grid");
                        assert_eq!(args.len(), 1);
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_type_params_with_bounds() {
        let u = parse_ok("class Box<T extends Solver, U> { T item; }");
        let c = &u.classes[0];
        assert_eq!(c.type_params.len(), 2);
        assert!(c.type_params[0].bound.is_some());
        assert!(c.type_params[1].bound.is_none());
    }

    #[test]
    fn parses_fields_and_ctor() {
        let u = parse_ok(
            "class Stencil { Solver solver; CUDA cuda = new CUDA(); int n = 3, m; \
             Stencil(Solver s) { super(); solver = s; } }",
        );
        let c = &u.classes[0];
        assert_eq!(c.fields.len(), 4);
        assert!(c.ctor.is_some());
        assert!(c.ctor.as_ref().unwrap().super_args.is_some());
    }

    #[test]
    fn rejects_two_ctors() {
        let r = parse_unit(0, "class A { A() { } A() { } }");
        assert!(r.is_err());
    }

    #[test]
    fn parses_statements() {
        let u = parse_ok(
            "class A { void m(int n) { \
               int x = 0; \
               for (int i = 0; i < n; i++) { x += i; } \
               while (x > 0) x--; \
               if (x == 0) { return; } else { x = 1; } \
             } }",
        );
        let body = u.classes[0].methods[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 4);
    }

    #[test]
    fn parses_array_ops() {
        let u = parse_ok(
            "class A { float[] m(int n) { float[] a = new float[n]; a[0] = 1.0f; \
             int l = a.length; return a; } }",
        );
        let body = u.classes[0].methods[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 4);
    }

    #[test]
    fn parses_forbidden_constructs_for_rules_checker() {
        // The parser must accept these so jrules can reject them.
        parse_ok("class A { int m(int x, Object o) { int y = x > 0 ? 1 : 2; boolean b = o == null; boolean c = o instanceof A; return y; } }");
    }

    #[test]
    fn parses_casts_vs_parens() {
        let u = parse_ok("class A { int m(double d, int a, int b) { int x = (int) d; int y = (a) - b; return x + y; } }");
        let body = u.classes[0].methods[0].body.as_ref().unwrap();
        // First local's init is a cast, second's is a binary op.
        match &body.stmts[0] {
            Stmt::Local {
                init: Some(Expr::Cast { .. }),
                ..
            } => {}
            other => panic!("expected cast, got {other:?}"),
        }
        match &body.stmts[1] {
            Stmt::Local {
                init: Some(Expr::Binary { op: BinOp::Sub, .. }),
                ..
            } => {}
            other => panic!("expected subtraction, got {other:?}"),
        }
    }

    #[test]
    fn parses_paper_listing_one() {
        // Adapted from Listing 1 of the paper.
        parse_ok(
            "class Dif1DSolver extends OneDSolver<ScalarFloat, FloatGridDblB, EmptyContext> { \
               @Override ScalarFloat solve(ScalarFloat left, ScalarFloat right, ScalarFloat self, \
                                           FloatGridDblB q, EmptyContext context) { \
                 float value = 0.1f * (left.val() + right.val()) + 0.8f * self.val(); \
                 return new ScalarFloat(value); \
               } }",
        );
    }

    #[test]
    fn parses_paper_listing_four_shape() {
        // Adapted from Listing 4: fields, @Global kernel, MPI/CUDA calls.
        let u = parse_ok(
            "@WootinJ class StencilOnGpuAndMPI extends Stencil { \
               Solver solver; \
               Generator generator; \
               StencilOnGpuAndMPI(Solver s, Generator g) { solver = s; generator = g; } \
               void run(int length, int updateCnt) { \
                 int rank = MPI.rank(); \
                 float[] array = generator.make(length, rank); \
                 float[] arrayOnGPU = CUDA.copyToGPU(array, length); \
                 CudaConfig conf = new CudaConfig(new dim3(length), new dim3(1)); \
                 for (int i = 0; i < updateCnt; i++) runGPU(conf, arrayOnGPU); \
               } \
               @Global void runGPU(CudaConfig conf, float[] array) { \
                 int x = CUDA.threadIdxX(); \
                 array[x] = solver.solve(array[x], x); \
               } }",
        );
        let c = &u.classes[0];
        assert_eq!(c.methods.len(), 2);
        assert_eq!(c.methods[1].annotations[0].name, "Global");
    }

    #[test]
    fn unqualified_call_becomes_this_call() {
        let u = parse_ok("class A { void a() { b(); } void b() { } }");
        let body = u.classes[0].methods[0].body.as_ref().unwrap();
        match &body.stmts[0] {
            Stmt::Expr(Expr::Call { recv, .. }) => {
                assert!(matches!(**recv, Expr::This(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse_unit(0, "class A {\n  void m() {\n    int x = ;\n  }\n}").unwrap_err();
        assert!(err[0].to_string().contains("line 3"), "{}", err[0]);
    }
}
