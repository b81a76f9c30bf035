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

pub struct Parser<'a> {
    /// The source the tokens were lexed from; identifiers are read out of
    /// it when a node takes their name.
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
    /// Set when a `>>` token has had its first `>` consumed while closing a
    /// generic argument list; the remaining half acts as a single `>`.
    pending_gt: bool,
    /// Expression nesting depth (each level costs about six recursive
    /// descent frames; guard well before the host stack gives out).
    depth: u32,
    /// Statement nesting depth: blocks, loop and branch bodies, `else if`.
    stmt_depth: u32,
    /// Height of the expression tree the last expression method returned
    /// (a leaf is 1). Chains like `a + a + ...` and `a[0][0]...` are parsed
    /// by loops, not recursion, so `depth` never sees how deep a tree they
    /// build; this does.
    height: u32,
    /// The body being parsed.
    b: BodyBuilder,
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
/// (≈1.4 MB at both limits), and the parser's own descent ≈23 KB per
/// level of [`MAX_EXPR_DEPTH`] and ≈14 KB per statement level (≈1.2 MB).
/// Outside the tests of these limits, nothing in this repository nests
/// statements deeper than 6 or builds an expression taller than 12.
const MAX_EXPR_HEIGHT: u32 = 48;
const MAX_STMT_DEPTH: u32 = 16;

/// Parse one source file into a [`Unit`].
pub fn parse_unit(file: u32, src: &str) -> Result<Unit, Vec<Diagnostic>> {
    let toks = lex(file, src)?;
    let mut p = Parser {
        src,
        toks,
        pos: 0,
        pending_gt: false,
        depth: 0,
        stmt_depth: 0,
        height: 0,
        b: BodyBuilder::default(),
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

/// Binding power of `instanceof` and the relational operators.
const RELATIONAL: u8 = 7;

/// The binary operator `tok` spells and its binding power (higher binds
/// tighter; every level is left-associative), as in Java.
fn binop(tok: &Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::OrOr => (BinOp::Or, 1),
        Tok::AndAnd => (BinOp::And, 2),
        Tok::BitOr => (BinOp::BitOr, 3),
        Tok::BitXor => (BinOp::BitXor, 4),
        Tok::BitAnd => (BinOp::BitAnd, 5),
        Tok::EqEq => (BinOp::Eq, 6),
        Tok::NotEq => (BinOp::Ne, 6),
        Tok::Lt => (BinOp::Lt, RELATIONAL),
        Tok::Le => (BinOp::Le, RELATIONAL),
        Tok::Gt => (BinOp::Gt, RELATIONAL),
        Tok::Ge => (BinOp::Ge, RELATIONAL),
        Tok::Shl => (BinOp::Shl, 8),
        Tok::Shr => (BinOp::Shr, 8),
        Tok::Plus => (BinOp::Add, 9),
        Tok::Minus => (BinOp::Sub, 9),
        Tok::Star => (BinOp::Mul, 10),
        Tok::Slash => (BinOp::Div, 10),
        Tok::Percent => (BinOp::Rem, 10),
        _ => return None,
    })
}

fn is_primitive(tok: &Tok) -> bool {
    matches!(
        tok,
        Tok::KwVoid | Tok::KwInt | Tok::KwLong | Tok::KwFloat | Tok::KwDouble | Tok::KwBoolean
    )
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        if self.pending_gt {
            &Tok::Gt
        } else {
            &self.toks[self.pos].tok
        }
    }

    fn peek_at(&self, n: usize) -> &Tok {
        self.tok_at(self.pos + n)
    }

    /// The token at index `i`, or the final `Eof` past the end.
    fn tok_at(&self, i: usize) -> &Tok {
        &self.toks[i.min(self.toks.len() - 1)].tok
    }

    /// The current token's name, if it is an identifier.
    fn peek_ident(&self) -> Option<&'a str> {
        match *self.peek() {
            Tok::Ident { start, end } => Some(&self.src[start as usize..end as usize]),
            _ => None,
        }
    }

    /// The current token, described for a diagnostic.
    fn found(&self) -> String {
        self.peek().describe(self.src)
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
            _ => Err(self.err(format!("expected `>`, found {}", self.found()))),
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
                tok.describe(self.src),
                self.found()
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
        match self.peek_ident() {
            Some(name) => {
                self.bump();
                Ok((name.to_string(), s))
            }
            None => Err(self.err(format!("expected identifier, found {}", self.found()))),
        }
    }

    /// An identifier in a body, interned.
    fn name(&mut self) -> PResult<NameId> {
        match self.peek_ident() {
            Some(name) => {
                self.bump();
                Ok(self.b.intern(name))
            }
            None => Err(self.err(format!("expected identifier, found {}", self.found()))),
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
            _ => {
                return Err(self.err(format!(
                    "expected `class` or `interface`, found {}",
                    self.found()
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
        if self.peek_ident() == Some(class_name) && *self.peek_at(1) == Tok::LParen {
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

        let ty = self.type_ref()?;
        let (name, _) = self.ident()?;
        if *self.peek() == Tok::LParen {
            // Method.
            let params = self.params()?;
            let body = if self.eat(Tok::Semi) {
                None
            } else {
                Some(self.body(|p| p.block().map(Root::Block))?)
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

    fn field_init(&mut self) -> PResult<Option<Arc<Body>>> {
        if self.eat(Tok::Assign) {
            Ok(Some(self.body(|p| p.expr().map(Root::Init))?))
        } else {
            Ok(None)
        }
    }

    fn ctor_decl(&mut self) -> PResult<CtorDecl> {
        let start = self.span();
        self.ident()?; // class name, validated by caller
        let params = self.params()?;
        self.expect(Tok::LBrace)?;
        let body = self.body(|p| {
            // Optional `super(...)` as the first statement.
            let mut super_args = None;
            if *p.peek() == Tok::KwSuper && *p.peek_at(1) == Tok::LParen {
                p.bump();
                super_args = Some(p.call_args()?);
                p.expect(Tok::Semi)?;
            }
            let mark = p.b.lists.mark();
            while !p.eat(Tok::RBrace) {
                let s = p.stmt()?;
                p.b.lists.push(s.0);
            }
            let body = p.b.lists.list(mark);
            Ok(Root::Ctor { super_args, body })
        })?;
        Ok(CtorDecl {
            params,
            body,
            span: start.to(self.prev_span()),
        })
    }

    /// One body, built by `parse` in the parser's [`BodyBuilder`].
    fn body(&mut self, parse: impl FnOnce(&mut Self) -> PResult<Root>) -> PResult<Arc<Body>> {
        self.b.clear();
        let root = parse(self)?;
        Ok(Arc::new(self.b.finish(root)))
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

    /// A type in a declaration: parsed by [`Self::ty`] (between bodies,
    /// so into an empty builder) and taken out of the builder.
    fn type_ref(&mut self) -> PResult<TypeRef> {
        let t = self.ty().map(|t| self.b.type_ref(t));
        self.b.clear();
        t
    }

    /// A type. [`Self::type_ahead`] scans the same grammar without
    /// building it; the two change together.
    fn ty(&mut self) -> PResult<TyId> {
        let prim = match self.peek() {
            Tok::KwVoid => Some(TypeNode::Void),
            Tok::KwInt => Some(TypeNode::Int),
            Tok::KwLong => Some(TypeNode::Long),
            Tok::KwFloat => Some(TypeNode::Float),
            Tok::KwDouble => Some(TypeNode::Double),
            Tok::KwBoolean => Some(TypeNode::Boolean),
            _ => None,
        };
        let mut ty = if let Some(prim) = prim {
            self.bump();
            self.b.ty(prim)
        } else if let Some(name) = self.peek_ident() {
            let span = self.span();
            self.bump();
            let name = self.b.intern(name);
            let mark = self.b.lists.mark();
            if *self.peek() == Tok::Lt && self.looks_like_type_args(self.pos) {
                self.bump();
                loop {
                    let arg = self.nested("type", Self::ty)?;
                    self.b.lists.push(arg.0);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect_gt()?;
            }
            let args = self.b.lists.list(mark);
            let span = span.to(self.prev_span());
            self.b.ty(TypeNode::Named { name, args, span })
        } else {
            return Err(self.err(format!("expected a type, found {}", self.found())));
        };
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
            ty = self.b.ty(TypeNode::Array(ty));
        }
        Ok(ty)
    }
    /// Would [`Self::ty`] accept the tokens from index `i` on, at
    /// expression depth `depth`? If so, moves `i` (and `pending_gt`, the
    /// split-`>>` state) past them.
    fn type_ahead(&self, i: &mut usize, pending_gt: &mut bool, depth: u32) -> bool {
        match self.tok_at(*i) {
            tok if is_primitive(tok) => *i += 1,
            Tok::Ident { .. } => {
                *i += 1;
                if *self.tok_at(*i) == Tok::Lt && self.looks_like_type_args(*i) {
                    *i += 1;
                    loop {
                        if depth >= MAX_EXPR_DEPTH || !self.type_ahead(i, pending_gt, depth + 1) {
                            return false;
                        }
                        if *pending_gt || *self.tok_at(*i) != Tok::Comma {
                            break;
                        }
                        *i += 1;
                    }
                    match self.tok_at(*i) {
                        _ if *pending_gt => {
                            *pending_gt = false;
                            *i += 1;
                        }
                        Tok::Gt => *i += 1,
                        Tok::Shr => *pending_gt = true,
                        _ => return false,
                    }
                }
            }
            _ => return false,
        }
        let mut dims = 0;
        while !*pending_gt
            && *self.tok_at(*i) == Tok::LBracket
            && *self.tok_at(*i + 1) == Tok::RBracket
        {
            dims += 1;
            if dims > MAX_EXPR_DEPTH {
                return false;
            }
            *i += 2;
        }
        true
    }

    /// Heuristic lookahead at the `<` at index `lt`, after an identifier:
    /// are we at generic type arguments (`Foo<Bar, Baz>`) or a comparison
    /// (`a < b`)? Scans forward over type-ish tokens for a closing `>`.
    fn looks_like_type_args(&self, lt: usize) -> bool {
        let mut i = lt + 1;
        let mut depth = 1i32;
        loop {
            match self.tok_at(i) {
                Tok::Ident { .. }
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
            if i > lt + 64 {
                return false;
            }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        self.expect(Tok::LBrace)?;
        let mark = self.b.lists.mark();
        while !self.eat(Tok::RBrace) {
            if *self.peek() == Tok::Eof {
                return Err(self.err("unterminated block".to_string()));
            }
            let s = self.stmt()?;
            self.b.lists.push(s.0);
        }
        Ok(self.b.lists.list(mark))
    }

    /// A block, or a single statement wrapped in a block (for `if (c) s;`).
    fn block_or_stmt(&mut self) -> PResult<Block> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            let s = self.stmt()?;
            Ok(self.wrap(s))
        }
    }

    /// A block of the one statement `s`.
    fn wrap(&mut self, s: StmtId) -> Block {
        let mark = self.b.lists.mark();
        self.b.lists.push(s.0);
        self.b.lists.list(mark)
    }

    fn stmt(&mut self) -> PResult<StmtId> {
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

    fn stmt_at_depth(&mut self) -> PResult<StmtId> {
        let start = self.span();
        let stmt = match self.peek() {
            Tok::LBrace => Stmt::Block(self.block()?),
            Tok::KwReturn => {
                self.bump();
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Stmt::Return { value }
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                return Ok(self.b.stmt(Stmt::Break, start));
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                return Ok(self.b.stmt(Stmt::Continue, start));
            }
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_branch = self.block_or_stmt()?;
                let else_branch = if self.eat(Tok::KwElse) {
                    Some(if *self.peek() == Tok::KwIf {
                        let s = self.stmt()?;
                        self.wrap(s)
                    } else {
                        self.block_or_stmt()?
                    })
                } else {
                    None
                };
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                }
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block_or_stmt()?;
                Stmt::While { cond, body }
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if self.eat(Tok::Semi) {
                    None
                } else {
                    Some(self.simple_stmt(true)?)
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
                    Some(self.simple_stmt_no_semi()?)
                };
                self.expect(Tok::RParen)?;
                let body = self.block_or_stmt()?;
                Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                }
            }
            _ => return self.simple_stmt(true),
        };
        Ok(self.b.stmt(stmt, start.to(self.prev_span())))
    }

    /// A local-declaration / assignment / inc-dec / expression statement.
    /// When `want_semi` is set, a trailing `;` is required and consumed.
    fn simple_stmt(&mut self, want_semi: bool) -> PResult<StmtId> {
        let stmt = self.simple_stmt_no_semi()?;
        if want_semi {
            self.expect(Tok::Semi)?;
        }
        Ok(stmt)
    }

    fn simple_stmt_no_semi(&mut self) -> PResult<StmtId> {
        let start = self.span();
        // Local declaration: `[final] Type Ident`, decided by lookahead.
        let is_final = *self.peek() == Tok::KwFinal;
        let mut i = self.pos + is_final as usize;
        let mut pending_gt = false;
        if self.type_ahead(&mut i, &mut pending_gt, self.depth)
            && !pending_gt
            && matches!(self.tok_at(i), Tok::Ident { .. })
        {
            self.eat(Tok::KwFinal);
            let ty = self.ty()?;
            let name = self.name()?;
            let init = if self.eat(Tok::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            let local = Stmt::Local {
                name,
                ty,
                init,
                is_final,
            };
            return Ok(self.b.stmt(local, start.to(self.prev_span())));
        }
        // `final` before something that cannot begin a type; before one
        // that can, the expression below reports the `final` itself.
        let next = self.peek_at(1);
        if is_final && !is_primitive(next) && !matches!(next, Tok::Ident { .. }) {
            self.bump();
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
                let target = self.lvalue(e)?;
                let stmt = Stmt::IncDec { target, inc };
                return Ok(self.b.stmt(stmt, start.to(self.prev_span())));
            }
            _ => return Ok(self.b.stmt(Stmt::Expr(e), self.span_of(e))),
        };
        self.bump();
        let target = self.lvalue(e)?;
        let value = self.expr()?;
        let stmt = Stmt::Assign { target, op, value };
        Ok(self.b.stmt(stmt, start.to(self.prev_span())))
    }

    /// `e`, if it can be assigned to.
    fn lvalue(&self, e: ExprId) -> PResult<ExprId> {
        match self.b.get(e) {
            (Expr::Name(_) | Expr::Field { .. } | Expr::Index { .. }, _) => Ok(e),
            (_, span) => Err(Diagnostic::error(
                "parser",
                span,
                "expression is not assignable".to_string(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    pub fn expr(&mut self) -> PResult<ExprId> {
        self.nested("expression", Self::ternary)
    }

    fn span_of(&self, e: ExprId) -> Span {
        self.b.get(e).1
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

    fn ternary(&mut self) -> PResult<ExprId> {
        let cond = self.binary(1)?;
        if self.eat(Tok::Question) {
            let start = self.span_of(cond);
            let mut below = self.height;
            let then_val = self.expr()?;
            below = below.max(self.height);
            self.expect(Tok::Colon)?;
            let else_val = self.expr()?;
            self.node_over(below.max(self.height))?;
            let e = Expr::Ternary {
                cond,
                then_val,
                else_val,
            };
            Ok(self.b.expr(e, start.to(self.prev_span())))
        } else {
            Ok(cond)
        }
    }

    /// Precedence climbing: an operand, then every binary operator (and
    /// `instanceof`) that binds at least as tightly as `min_bp`, each
    /// right operand parsed one power up so that equal powers associate
    /// to the left.
    fn binary(&mut self, min_bp: u8) -> PResult<ExprId> {
        let mut lhs = self.unary()?;
        // Power of the operator that built `lhs`; a tighter one must not
        // take it as an operand (`a instanceof T + 1` ends at the `+`).
        let mut cap = u8::MAX;
        loop {
            if *self.peek() == Tok::KwInstanceof && (min_bp..=cap).contains(&RELATIONAL) {
                self.bump();
                let ty = self.ty()?;
                self.node_over(self.height)?;
                let span = self.span_of(lhs).to(self.prev_span());
                lhs = self.b.expr(Expr::InstanceOf { expr: lhs, ty }, span);
                cap = RELATIONAL;
                continue;
            }
            let Some((op, bp)) = binop(self.peek()).filter(|&(_, bp)| (min_bp..=cap).contains(&bp))
            else {
                return Ok(lhs);
            };
            self.bump();
            let below = self.height;
            let rhs = self.binary(bp + 1)?;
            self.node_over(below.max(self.height))?;
            let span = self.span_of(lhs).to(self.span_of(rhs));
            lhs = self.b.expr(Expr::Binary { op, lhs, rhs }, span);
            cap = bp;
        }
    }

    fn unary(&mut self) -> PResult<ExprId> {
        let start = self.span();
        let (e, operand) = match self.peek() {
            Tok::Minus if self.min_value_follows() => {
                // `-2147483648` and `-9223372036854775808L`: the magnitude
                // of `MIN_VALUE` is a literal only right after a unary
                // minus (JLS 3.10.1), so the two fold into one literal.
                self.bump();
                let lit = match *self.peek() {
                    Tok::IntLit(v) => Expr::IntLit(-v),
                    _ => Expr::LongLit(i64::MIN),
                };
                self.bump();
                self.height = 1;
                return Ok(self.b.expr(lit, start.to(self.prev_span())));
            }
            Tok::Minus | Tok::Not => {
                let op = if *self.peek() == Tok::Minus {
                    UnOp::Neg
                } else {
                    UnOp::Not
                };
                self.bump();
                let expr = self.nested("expression", Self::unary)?;
                (Expr::Unary { op, expr }, expr)
            }
            Tok::LParen if self.is_cast() => {
                self.bump();
                let ty = self.ty()?;
                self.expect(Tok::RParen)?;
                let expr = self.nested("expression", Self::unary)?;
                (Expr::Cast { ty, expr }, expr)
            }
            _ => return self.postfix(),
        };
        self.node_over(self.height)?;
        let span = start.to(self.span_of(operand));
        Ok(self.b.expr(e, span))
    }

    /// Is the token after the current `-` the magnitude of `int` or
    /// `long`'s `MIN_VALUE`?
    fn min_value_follows(&self) -> bool {
        matches!(self.peek_at(1), Tok::IntLit(v) if *v == 1 << 31)
            || *self.peek_at(1) == Tok::LongLit(i64::MIN)
    }

    /// Disambiguate `(T) expr` casts from parenthesized expressions.
    fn is_cast(&self) -> bool {
        debug_assert_eq!(*self.peek(), Tok::LParen);
        match self.peek_at(1) {
            // `(int)`, `(float)`, ... are always casts.
            Tok::KwInt | Tok::KwLong | Tok::KwFloat | Tok::KwDouble | Tok::KwBoolean => true,
            Tok::Ident { .. } => {
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
                    Tok::Ident { .. }
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

    fn postfix(&mut self) -> PResult<ExprId> {
        let mut e = self.primary()?;
        loop {
            let node = match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let name = self.name()?;
                    if *self.peek() == Tok::LParen {
                        let below = self.height;
                        let args = self.call_args()?;
                        self.node_over(below.max(self.height))?;
                        Expr::Call {
                            recv: e,
                            name,
                            args,
                        }
                    } else {
                        self.node_over(self.height)?;
                        Expr::Field { obj: e, name }
                    }
                }
                Tok::LBracket => {
                    self.bump();
                    let below = self.height;
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    self.node_over(below.max(self.height))?;
                    Expr::Index { arr: e, idx }
                }
                _ => return Ok(e),
            };
            let span = self.span_of(e).to(self.prev_span());
            e = self.b.expr(node, span);
        }
    }

    /// `( expr, ... )`. Leaves `height` at that of the tallest argument
    /// (0 for none).
    fn call_args(&mut self) -> PResult<Args> {
        self.expect(Tok::LParen)?;
        let mark = self.b.lists.mark();
        let mut tallest = 0;
        if *self.peek() != Tok::RParen {
            loop {
                let arg = self.expr()?;
                self.b.lists.push(arg.0);
                tallest = tallest.max(self.height);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.height = tallest;
        Ok(self.b.lists.list(mark))
    }

    fn primary(&mut self) -> PResult<ExprId> {
        let start = self.span();
        self.height = 1; // a leaf, unless an arm below builds over operands
        let e = match self.peek() {
            &Tok::IntLit(v) => Expr::IntLit(v),
            Tok::LongLit(i64::MIN) => {
                return Err(self.err(
                    "long literal 9223372036854775808L out of range (only `-` may precede it)"
                        .to_string(),
                ))
            }
            &Tok::LongLit(v) => Expr::LongLit(v),
            &Tok::FloatLit(v) => Expr::FloatLit(v),
            &Tok::DoubleLit(v) => Expr::DoubleLit(v),
            Tok::StrLit(_) => match &self.toks[self.pos].tok {
                Tok::StrLit(s) => Expr::StrLit(self.b.intern(s)),
                _ => unreachable!("peeked a string literal"),
            },
            Tok::KwTrue => Expr::BoolLit(true),
            Tok::KwFalse => Expr::BoolLit(false),
            Tok::KwNull => Expr::NullLit,
            Tok::KwThis => Expr::This,
            Tok::KwSuper => {
                self.bump();
                self.expect(Tok::Dot)?;
                let name = self.name()?;
                let args = self.call_args()?;
                self.node_over(self.height)?;
                let e = Expr::SuperCall { name, args };
                return Ok(self.b.expr(e, start.to(self.prev_span())));
            }
            Tok::KwNew => {
                self.bump();
                let ty = self.ty()?;
                // `new T[len]` — `ty` won't have consumed `[` because it
                // only consumes `[]` pairs.
                let e = if self.eat(Tok::LBracket) {
                    let len = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    Expr::NewArray { elem: ty, len }
                } else {
                    let args = self.call_args()?;
                    Expr::New { ty, args }
                };
                self.node_over(self.height)?;
                return Ok(self.b.expr(e, start.to(self.prev_span())));
            }
            Tok::Ident { .. } => {
                let name = self.name()?;
                if *self.peek() != Tok::LParen {
                    return Ok(self.b.expr(Expr::Name(name), start));
                }
                // Unqualified call: `foo(...)` on implicit `this`.
                let recv = self.b.expr(Expr::This, start);
                let args = self.call_args()?;
                self.node_over(self.height.max(1))?;
                let e = Expr::Call { recv, name, args };
                return Ok(self.b.expr(e, start.to(self.prev_span())));
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                return Ok(e);
            }
            _ => return Err(self.err(format!("expected an expression, found {}", self.found()))),
        };
        self.bump();
        Ok(self.b.expr(e, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The top-level statements of the first class's method `mi`.
    fn top_stmts(u: &Unit, mi: usize) -> Vec<StmtId> {
        let body = u.classes[0].methods[mi].body.as_deref().unwrap();
        let Root::Block(b) = body.root() else {
            panic!("a method body is a block")
        };
        body.list(b).collect()
    }

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
        let ctor = c.ctor.as_ref().unwrap();
        assert!(matches!(
            ctor.body.root(),
            Root::Ctor {
                super_args: Some(_),
                ..
            }
        ));
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
        assert_eq!(top_stmts(&u, 0).len(), 4);
    }

    #[test]
    fn parses_array_ops() {
        let u = parse_ok(
            "class A { float[] m(int n) { float[] a = new float[n]; a[0] = 1.0f; \
             int l = a.length; return a; } }",
        );
        assert_eq!(top_stmts(&u, 0).len(), 4);
    }

    #[test]
    fn parses_forbidden_constructs_for_rules_checker() {
        // The parser must accept these so jrules can reject them.
        parse_ok("class A { int m(int x, Object o) { int y = x > 0 ? 1 : 2; boolean b = o == null; boolean c = o instanceof A; return y; } }");
    }

    #[test]
    fn parses_casts_vs_parens() {
        let u = parse_ok("class A { int m(double d, int a, int b) { int x = (int) d; int y = (a) - b; return x + y; } }");
        let body = u.classes[0].methods[0].body.as_deref().unwrap();
        let stmts = top_stmts(&u, 0);
        let init = |s| match body.stmt(s) {
            Stmt::Local { init: Some(e), .. } => body.expr(e),
            other => panic!("expected a local, got {other:?}"),
        };
        // First local's init is a cast, second's is a binary op.
        assert!(matches!(init(stmts[0]), Expr::Cast { .. }));
        assert!(matches!(
            init(stmts[1]),
            Expr::Binary { op: BinOp::Sub, .. }
        ));
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
        let body = u.classes[0].methods[0].body.as_deref().unwrap();
        let Stmt::Expr(call) = body.stmt(top_stmts(&u, 0)[0]) else {
            panic!("expected an expression statement")
        };
        match body.expr(call) {
            Expr::Call { recv, .. } => assert_eq!(body.expr(recv), Expr::This),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse_unit(0, "class A {\n  void m() {\n    int x = ;\n  }\n}").unwrap_err();
        assert!(err[0].to_string().contains("line 3"), "{}", err[0]);
    }
}
