//! The class table: every declared class/interface with resolved
//! signatures, field layouts, and lookup helpers used by the type checker,
//! the rules checker, the interpreter, and the translator.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast;
use crate::span::{DiagResult, Diagnostic, Span};
use crate::tast::{TArgs, TBlock, TBody, TExprId, TRoot};
use crate::types::{ClassId, Type, OBJECT};

/// Resolved formal parameter.
#[derive(Debug, Clone)]
pub struct ParamInfo {
    pub name: String,
    pub ty: Type,
    pub is_final: bool,
    pub span: Span,
}

/// Resolved field (instance or static).
#[derive(Debug)]
pub struct FieldInfo {
    pub name: String,
    /// Declared type in terms of the *declaring* class's type variables.
    pub ty: Type,
    pub is_final: bool,
    /// `@Shared` — CUDA shared memory.
    pub is_shared: bool,
    /// Untyped initializer, shared with the declaration it was parsed into;
    /// released once the typed one is installed.
    pub ast_init: Option<Arc<ast::Body>>,
    /// Typed initializer (rooted at [`crate::tast::TRoot::Init`]),
    /// installed by the type checker.
    pub init: Option<Arc<TBody>>,
    pub span: Span,
}

/// Resolved method.
#[derive(Debug)]
pub struct MethodInfo {
    pub name: String,
    pub params: Vec<ParamInfo>,
    /// Return type in terms of the declaring class's type variables.
    pub ret: Type,
    pub is_static: bool,
    pub is_abstract: bool,
    /// `@Native("key")` — dispatched to a registered host intrinsic.
    pub native: Option<String>,
    /// `@Global` — a CUDA kernel entry.
    pub is_global: bool,
    /// Untyped body, shared with the declaration it was parsed into;
    /// released once the typed one is installed.
    pub ast_body: Option<Arc<ast::Body>>,
    /// Typed body (rooted at [`crate::tast::TRoot::Block`]), installed by
    /// the type checker. Immutable and shared: a table built for a later
    /// revision of the sources points at the same allocation for as long
    /// as the body's check stays valid.
    pub body: Option<Arc<TBody>>,
    pub span: Span,
}

/// Resolved constructor.
#[derive(Debug)]
pub struct CtorInfo {
    pub params: Vec<ParamInfo>,
    /// Untyped `super(...)` arguments and body, released once the typed
    /// ones are installed.
    pub ast_body: Option<Arc<ast::Body>>,
    /// Typed `super(...)` arguments and body (rooted at
    /// [`crate::tast::TRoot::Ctor`]).
    pub body: Option<Arc<TBody>>,
    pub span: Span,
}

impl FieldInfo {
    /// The typed initializer and its value expression, once checked.
    pub fn typed_init(&self) -> Option<(&TBody, TExprId)> {
        let body = self.init.as_deref()?;
        match body.root() {
            TRoot::Init(value) => Some((body, value)),
            _ => None,
        }
    }
}

impl MethodInfo {
    /// The typed body and its block, once checked.
    pub fn typed_body(&self) -> Option<(&TBody, TBlock)> {
        let body = self.body.as_deref()?;
        match body.root() {
            TRoot::Block(block) => Some((body, block)),
            _ => None,
        }
    }
}

impl CtorInfo {
    /// The typed body with its `super(...)` arguments and block, once
    /// checked.
    pub fn typed_body(&self) -> Option<(&TBody, TArgs, TBlock)> {
        let body = self.body.as_deref()?;
        match body.root() {
            TRoot::Ctor {
                super_args,
                body: block,
            } => Some((body, super_args, block)),
            _ => None,
        }
    }
}

/// Resolved type parameter.
#[derive(Debug, Clone)]
pub struct TypeParamInfo {
    pub name: String,
    /// Resolved upper bound (`Object` if omitted).
    pub bound: Type,
    pub span: Span,
}

/// A class or interface with fully resolved signatures.
#[derive(Debug)]
pub struct ClassInfo {
    pub id: ClassId,
    pub name: String,
    pub is_interface: bool,
    pub is_final: bool,
    pub is_abstract: bool,
    /// Raw annotations (`@WootinJ`, ...).
    pub annotations: Vec<ast::Annotation>,
    pub type_params: Vec<TypeParamInfo>,
    /// Resolved superclass (None only for `Object` and interfaces).
    pub superclass: Option<(ClassId, Vec<Type>)>,
    pub interfaces: Vec<(ClassId, Vec<Type>)>,
    /// Instance fields declared by this class (inherited fields excluded).
    pub fields: Vec<FieldInfo>,
    /// Static fields declared by this class.
    pub statics: Vec<FieldInfo>,
    pub methods: Vec<MethodInfo>,
    pub ctor: Option<CtorInfo>,
    /// Number of inherited instance fields (this class's fields start here).
    pub field_base: u32,
    /// Direct subclasses / direct implementors (filled at build time).
    pub subclasses: Vec<ClassId>,
    pub span: Span,
}

impl ClassInfo {
    pub fn has_annotation(&self, name: &str) -> bool {
        self.annotations.iter().any(|a| a.name == name)
    }

    /// Total instance field count including inherited fields.
    pub fn instance_size(&self) -> u32 {
        self.field_base + self.fields.len() as u32
    }
}

/// The complete class table for a loaded program.
#[derive(Debug, Default)]
pub struct ClassTable {
    pub classes: Vec<ClassInfo>,
    by_name: HashMap<String, ClassId>,
}

/// Result of a field lookup: declaring class, absolute slot, substituted type.
#[derive(Debug, Clone)]
pub struct FieldLookup {
    pub owner: ClassId,
    pub slot: u32,
    /// Index into `owner`'s own `fields`.
    pub index: u32,
    /// Field type rewritten into the *query* class's type variables.
    pub ty: Type,
    pub is_final: bool,
    pub is_shared: bool,
}

/// Result of a method lookup.
#[derive(Debug, Clone)]
pub struct MethodLookup {
    pub decl_class: ClassId,
    pub index: u32,
    /// Substitution mapping `decl_class`'s type vars into the query class's
    /// type context; apply to params/return with [`Type::subst`].
    pub subst: Vec<Type>,
}

impl ClassTable {
    pub fn class(&self, id: ClassId) -> &ClassInfo {
        &self.classes[id.0 as usize]
    }

    pub fn class_mut(&mut self, id: ClassId) -> &mut ClassInfo {
        &mut self.classes[id.0 as usize]
    }

    pub fn by_name(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    pub fn name(&self, id: ClassId) -> &str {
        &self.class(id).name
    }

    pub fn method(&self, class: ClassId, index: u32) -> &MethodInfo {
        &self.class(class).methods[index as usize]
    }

    /// Iterate `(class id, class)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &ClassInfo> {
        self.classes.iter()
    }

    /// Superclass chain starting at `id` (inclusive), each with the type
    /// arguments expressed in terms of `id`'s *own* type variables given
    /// the identity substitution.
    pub fn super_chain(&self, id: ClassId) -> Vec<(ClassId, Vec<Type>)> {
        let mut out = Vec::new();
        let own_args: Vec<Type> = (0..self.class(id).type_params.len())
            .map(|i| Type::Var(i as u32))
            .collect();
        let mut cur = Some((id, own_args));
        while let Some((cid, args)) = cur {
            let info = self.class(cid);
            cur = info
                .superclass
                .as_ref()
                .map(|(sid, sargs)| (*sid, sargs.iter().map(|t| t.subst(&args)).collect()));
            out.push((cid, args));
        }
        out
    }

    /// All supertypes of `Object(id, args)` including itself: superclass
    /// chain plus all transitively implemented interfaces, with composed
    /// substitutions.
    pub fn all_supertypes(&self, id: ClassId, args: &[Type]) -> Vec<(ClassId, Vec<Type>)> {
        let mut out: Vec<(ClassId, Vec<Type>)> = Vec::new();
        let mut work = vec![(id, args.to_vec())];
        while let Some((cid, cargs)) = work.pop() {
            if out.iter().any(|(c, a)| *c == cid && *a == cargs) {
                continue;
            }
            let info = self.class(cid);
            if let Some((sid, sargs)) = &info.superclass {
                work.push((*sid, sargs.iter().map(|t| t.subst(&cargs)).collect()));
            }
            for (iid, iargs) in &info.interfaces {
                work.push((*iid, iargs.iter().map(|t| t.subst(&cargs)).collect()));
            }
            out.push((cid, cargs));
        }
        out
    }

    /// Is `sub` a subclass/implementor of (or equal to) `sup`, ignoring
    /// type arguments?
    pub fn is_subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        if sup == OBJECT {
            return true;
        }
        self.all_supertypes(sub, &[]).iter().any(|(c, _)| *c == sup)
    }

    /// Structural subtyping on resolved types (invariant generics and
    /// arrays, `null` below every reference type).
    pub fn is_subtype(&self, sub: &Type, sup: &Type) -> bool {
        match (sub, sup) {
            _ if sub == sup => true,
            (Type::Null, t) if t.is_reference() => true,
            (Type::Object(sid, sargs), Type::Object(pid, pargs)) => self
                .all_supertypes(*sid, sargs)
                .iter()
                .any(|(c, a)| c == pid && a == pargs),
            (Type::Array(_), Type::Object(pid, _)) => *pid == OBJECT,
            (Type::Var(_), Type::Object(pid, pargs)) if *pid == OBJECT && pargs.is_empty() => true,
            _ => false,
        }
    }

    /// Look up an instance field by name, walking up the superclass chain.
    pub fn lookup_field(&self, class: ClassId, name: &str) -> Option<FieldLookup> {
        for (cid, args) in self.super_chain(class) {
            let info = self.class(cid);
            if let Some((i, f)) = info.fields.iter().enumerate().find(|(_, f)| f.name == name) {
                return Some(FieldLookup {
                    owner: cid,
                    slot: info.field_base + i as u32,
                    index: i as u32,
                    ty: f.ty.subst(&args),
                    is_final: f.is_final,
                    is_shared: f.is_shared,
                });
            }
        }
        None
    }

    /// Look up a static field by name on exactly `class`.
    pub fn lookup_static(&self, class: ClassId, name: &str) -> Option<(u32, &FieldInfo)> {
        self.class(class)
            .statics
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (i as u32, f))
    }

    /// Look up a method by name: superclass chain first, then interfaces.
    pub fn lookup_method(&self, class: ClassId, name: &str) -> Option<MethodLookup> {
        for (cid, args) in self.all_supertypes(class, &identity_args(self, class)) {
            let info = self.class(cid);
            if let Some((i, _)) = info
                .methods
                .iter()
                .enumerate()
                .find(|(_, m)| m.name == name)
            {
                return Some(MethodLookup {
                    decl_class: cid,
                    index: i as u32,
                    subst: args,
                });
            }
        }
        None
    }

    /// Resolve the *implementation* of `name` for runtime class `class`:
    /// the most-derived non-abstract declaration found on the superclass
    /// chain. Used by virtual dispatch in the interpreter and devirtualizer.
    pub fn resolve_impl(&self, class: ClassId, name: &str) -> Option<(ClassId, u32)> {
        for (cid, _) in self.super_chain(class) {
            let info = self.class(cid);
            if let Some((i, m)) = info
                .methods
                .iter()
                .enumerate()
                .find(|(_, m)| m.name == name)
            {
                if m.ast_body.is_some() || m.body.is_some() || m.native.is_some() {
                    return Some((cid, i as u32));
                }
            }
        }
        None
    }

    /// Is this class a leaf (no declared subclasses)? Used by the
    /// strict-final analysis: "final class (i.e. no subclasses)".
    pub fn is_leaf(&self, id: ClassId) -> bool {
        self.class(id).subclasses.is_empty()
    }

    /// Resolve a syntactic type reference against this table.
    ///
    /// `type_params` are the enclosing class's parameters (for `Var`
    /// resolution). Checks type-argument arity.
    pub fn resolve_type(
        &self,
        type_params: &[TypeParamInfo],
        tr: &ast::TypeRef,
    ) -> Result<Type, Diagnostic> {
        match tr {
            ast::TypeRef::Void => Ok(Type::Void),
            ast::TypeRef::Int => Ok(Type::Int),
            ast::TypeRef::Long => Ok(Type::Long),
            ast::TypeRef::Float => Ok(Type::Float),
            ast::TypeRef::Double => Ok(Type::Double),
            ast::TypeRef::Boolean => Ok(Type::Boolean),
            ast::TypeRef::Array(elem) => {
                Ok(Type::Array(Box::new(self.resolve_type(type_params, elem)?)))
            }
            ast::TypeRef::Named { name, args, span } => {
                if name == "String" {
                    return Ok(Type::Str);
                }
                if let Some(i) = type_params.iter().position(|p| &p.name == name) {
                    if !args.is_empty() {
                        return Err(Diagnostic::error(
                            "resolver",
                            *span,
                            format!("type parameter `{name}` cannot take type arguments"),
                        ));
                    }
                    return Ok(Type::Var(i as u32));
                }
                let id = self.by_name(name).ok_or_else(|| {
                    Diagnostic::error("resolver", *span, format!("unknown type `{name}`"))
                })?;
                let want = self.class(id).type_params.len();
                if args.len() != want {
                    return Err(Diagnostic::error(
                        "resolver",
                        *span,
                        format!(
                            "`{name}` expects {want} type argument(s), found {}",
                            args.len()
                        ),
                    ));
                }
                let rargs = args
                    .iter()
                    .map(|a| self.resolve_type(type_params, a))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Type::Object(id, rargs))
            }
        }
    }

    /// Human-readable rendering of a type (class ids replaced by names).
    pub fn show_type(&self, t: &Type) -> String {
        match t {
            Type::Object(id, args) => {
                let mut s = self.name(*id).to_string();
                if !args.is_empty() {
                    s.push('<');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            s.push_str(", ");
                        }
                        s.push_str(&self.show_type(a));
                    }
                    s.push('>');
                }
                s
            }
            Type::Array(e) => format!("{}[]", self.show_type(e)),
            other => other.to_string(),
        }
    }
}

fn identity_args(table: &ClassTable, id: ClassId) -> Vec<Type> {
    (0..table.class(id).type_params.len())
        .map(|i| Type::Var(i as u32))
        .collect()
}

/// Build a class table from parsed units (signatures only; bodies are typed
/// by [`crate::typeck`]).
pub fn build(units: Vec<ast::Unit>) -> DiagResult<ClassTable> {
    let mut diags = Vec::new();
    let mut table = ClassTable::default();

    // The implicit root class.
    table.classes.push(ClassInfo {
        id: OBJECT,
        name: "Object".to_string(),
        is_interface: false,
        is_final: false,
        is_abstract: false,
        annotations: Vec::new(),
        type_params: Vec::new(),
        superclass: None,
        interfaces: Vec::new(),
        fields: Vec::new(),
        statics: Vec::new(),
        methods: Vec::new(),
        ctor: None,
        field_base: 0,
        subclasses: Vec::new(),
        span: Span::default(),
    });
    table.by_name.insert("Object".to_string(), OBJECT);

    // Phase 1: collect names.
    let mut decls: Vec<ast::ClassDecl> = Vec::new();
    for unit in units {
        for c in unit.classes {
            if table.by_name.contains_key(&c.name) {
                diags.push(Diagnostic::error(
                    "resolver",
                    c.span,
                    format!("duplicate class `{}`", c.name),
                ));
                continue;
            }
            let id = ClassId(table.classes.len() as u32);
            table.by_name.insert(c.name.clone(), id);
            table.classes.push(ClassInfo {
                id,
                name: c.name.clone(),
                is_interface: c.is_interface,
                is_final: c.modifiers.is_final,
                is_abstract: c.modifiers.is_abstract,
                annotations: c.annotations.clone(),
                type_params: Vec::new(),
                superclass: None,
                interfaces: Vec::new(),
                fields: Vec::new(),
                statics: Vec::new(),
                methods: Vec::new(),
                ctor: None,
                field_base: 0,
                subclasses: Vec::new(),
                span: c.span,
            });
            decls.push(c);
        }
    }

    // Phase 2a: resolve type parameters (arity is known syntactically, so
    // bounds can reference any class, including generic ones).
    for decl in &decls {
        let id = table.by_name(&decl.name).unwrap();
        // First install params with Object bounds so that bounds referring
        // to sibling type params resolve.
        let placeholder: Vec<TypeParamInfo> = decl
            .type_params
            .iter()
            .map(|p| TypeParamInfo {
                name: p.name.clone(),
                bound: Type::object(OBJECT),
                span: p.span,
            })
            .collect();
        table.class_mut(id).type_params = placeholder;
        let mut resolved = table.class(id).type_params.clone();
        for (i, p) in decl.type_params.iter().enumerate() {
            if let Some(b) = &p.bound {
                match table.resolve_type(&table.class(id).type_params, b) {
                    Ok(Type::Object(bid, bargs)) => {
                        resolved[i].bound = Type::Object(bid, bargs);
                    }
                    Ok(other) => diags.push(Diagnostic::error(
                        "resolver",
                        p.span,
                        format!("type-parameter bound must be a class type, found `{other}`"),
                    )),
                    Err(d) => diags.push(d),
                }
            }
        }
        table.class_mut(id).type_params = resolved;
    }

    // Phase 2b: resolve supertypes.
    for decl in &decls {
        let id = table.by_name(&decl.name).unwrap();
        let tps = table.class(id).type_params.clone();
        if let Some(sc) = &decl.superclass {
            match table.resolve_type(&tps, sc) {
                Ok(Type::Object(sid, sargs)) => {
                    if table.class(sid).is_interface {
                        diags.push(Diagnostic::error(
                            "resolver",
                            decl.span,
                            format!(
                                "`{}` extends interface `{}`; use `implements`",
                                decl.name,
                                table.name(sid)
                            ),
                        ));
                    } else if table.class(sid).is_final {
                        diags.push(Diagnostic::error(
                            "resolver",
                            decl.span,
                            format!("cannot extend final class `{}`", table.name(sid)),
                        ));
                    } else {
                        table.class_mut(id).superclass = Some((sid, sargs));
                    }
                }
                Ok(other) => diags.push(Diagnostic::error(
                    "resolver",
                    decl.span,
                    format!("superclass must be a class type, found `{other}`"),
                )),
                Err(d) => diags.push(d),
            }
        } else if !decl.is_interface {
            table.class_mut(id).superclass = Some((OBJECT, Vec::new()));
        }
        let mut ifaces = Vec::new();
        for itf in &decl.interfaces {
            match table.resolve_type(&tps, itf) {
                Ok(Type::Object(iid, iargs)) => {
                    if !table.class(iid).is_interface {
                        diags.push(Diagnostic::error(
                            "resolver",
                            decl.span,
                            format!("`{}` is not an interface", table.name(iid)),
                        ));
                    } else {
                        ifaces.push((iid, iargs));
                    }
                }
                Ok(other) => diags.push(Diagnostic::error(
                    "resolver",
                    decl.span,
                    format!("implemented type must be an interface, found `{other}`"),
                )),
                Err(d) => diags.push(d),
            }
        }
        table.class_mut(id).interfaces = ifaces;
    }

    if !diags.is_empty() {
        return Err(diags);
    }

    // Detect inheritance cycles before computing layouts.
    for info in table.classes.iter() {
        let mut seen = vec![info.id];
        let mut cur = info.superclass.as_ref().map(|(s, _)| *s);
        while let Some(c) = cur {
            if seen.contains(&c) {
                return Err(vec![Diagnostic::error(
                    "resolver",
                    info.span,
                    format!("inheritance cycle involving `{}`", info.name),
                )]);
            }
            seen.push(c);
            cur = table.class(c).superclass.as_ref().map(|(s, _)| *s);
        }
    }

    // Phase 3: members. The declarations are ours and nothing reads them
    // afterwards, so the table takes their body and initializer pointers.
    for decl in &mut decls {
        let id = table.by_name(&decl.name).unwrap();
        let tps = table.class(id).type_params.clone();
        let mut fields = Vec::new();
        let mut statics = Vec::new();
        for f in &mut decl.fields {
            let ty = match table.resolve_type(&tps, &f.ty) {
                Ok(t) => t,
                Err(d) => {
                    diags.push(d);
                    continue;
                }
            };
            if ty == Type::Void {
                diags.push(Diagnostic::error("resolver", f.span, "field of type void"));
                continue;
            }
            let info = FieldInfo {
                name: f.name.clone(),
                ty,
                is_final: f.modifiers.is_final,
                is_shared: f.annotations.iter().any(|a| a.name == "Shared"),
                ast_init: f.init.take(),
                init: None,
                span: f.span,
            };
            if f.modifiers.is_static {
                if statics.iter().any(|x: &FieldInfo| x.name == f.name) {
                    diags.push(Diagnostic::error(
                        "resolver",
                        f.span,
                        format!("duplicate static field `{}`", f.name),
                    ));
                }
                statics.push(info);
            } else {
                if fields.iter().any(|x: &FieldInfo| x.name == f.name) {
                    diags.push(Diagnostic::error(
                        "resolver",
                        f.span,
                        format!("duplicate field `{}`", f.name),
                    ));
                }
                fields.push(info);
            }
        }
        let mut methods = Vec::new();
        for m in &mut decl.methods {
            if methods.iter().any(|x: &MethodInfo| x.name == m.name) {
                diags.push(Diagnostic::error(
                    "resolver",
                    m.span,
                    format!("duplicate method `{}` (jlang has no overloading)", m.name),
                ));
                continue;
            }
            let ret = match table.resolve_type(&tps, &m.ret) {
                Ok(t) => t,
                Err(d) => {
                    diags.push(d);
                    continue;
                }
            };
            let mut params = Vec::new();
            let mut ok = true;
            for p in &m.params {
                match table.resolve_type(&tps, &p.ty) {
                    Ok(Type::Void) => {
                        diags.push(Diagnostic::error(
                            "resolver",
                            p.span,
                            "parameter of type void",
                        ));
                        ok = false;
                    }
                    Ok(t) => params.push(ParamInfo {
                        name: p.name.clone(),
                        ty: t,
                        is_final: p.is_final,
                        span: p.span,
                    }),
                    Err(d) => {
                        diags.push(d);
                        ok = false;
                    }
                }
            }
            if !ok {
                continue;
            }
            let native = m
                .annotations
                .iter()
                .find(|a| a.name == "Native")
                .map(|a| a.arg.clone().unwrap_or_else(|| m.name.clone()));
            let is_abstract = m.body.is_none() && native.is_none();
            methods.push(MethodInfo {
                name: m.name.clone(),
                params,
                ret,
                is_static: m.modifiers.is_static,
                is_abstract,
                native,
                is_global: m.annotations.iter().any(|a| a.name == "Global"),
                ast_body: m.body.take(),
                body: None,
                span: m.span,
            });
        }
        let ctor = match &mut decl.ctor {
            Some(c) => {
                let mut params = Vec::new();
                for p in &c.params {
                    match table.resolve_type(&tps, &p.ty) {
                        Ok(t) => params.push(ParamInfo {
                            name: p.name.clone(),
                            ty: t,
                            is_final: p.is_final,
                            span: p.span,
                        }),
                        Err(d) => diags.push(d),
                    }
                }
                Some(CtorInfo {
                    params,
                    ast_body: Some(Arc::clone(&c.body)),
                    body: None,
                    span: c.span,
                })
            }
            None if !decl.is_interface => Some(CtorInfo {
                params: Vec::new(),
                ast_body: Some(Arc::new(ast::Body::implicit_ctor())),
                body: None,
                span: decl.span,
            }),
            None => None,
        };
        let c = table.class_mut(id);
        c.fields = fields;
        c.statics = statics;
        c.methods = methods;
        c.ctor = ctor;
    }

    if !diags.is_empty() {
        return Err(diags);
    }

    // Phase 4: field layouts (field_base) + subclass lists, in topological
    // order over the (acyclic) superclass relation.
    let ids: Vec<ClassId> = table.classes.iter().map(|c| c.id).collect();
    let mut done = vec![false; ids.len()];
    fn layout(table: &mut ClassTable, id: ClassId, done: &mut Vec<bool>) {
        if done[id.0 as usize] {
            return;
        }
        let sup = table.class(id).superclass.as_ref().map(|(s, _)| *s);
        let base = match sup {
            Some(s) => {
                layout(table, s, done);
                table.class(s).instance_size()
            }
            None => 0,
        };
        table.class_mut(id).field_base = base;
        done[id.0 as usize] = true;
    }
    for id in &ids {
        layout(&mut table, *id, &mut done);
    }
    for id in &ids {
        let info = table.class(*id);
        let mut parents: Vec<ClassId> = Vec::new();
        if let Some((s, _)) = &info.superclass {
            if *s != OBJECT {
                parents.push(*s);
            }
        }
        parents.extend(info.interfaces.iter().map(|(i, _)| *i));
        for p in parents {
            table.class_mut(p).subclasses.push(*id);
        }
    }

    // Phase 5: field shadowing & override compatibility checks.
    for id in &ids {
        let info = table.class(*id);
        if let Some((sup, _)) = &info.superclass {
            for f in &info.fields {
                if table.lookup_field(*sup, &f.name).is_some() {
                    diags.push(Diagnostic::error(
                        "resolver",
                        f.span,
                        format!("field `{}` shadows an inherited field", f.name),
                    ));
                }
            }
        }
        for (mi, m) in info.methods.iter().enumerate() {
            // Find an inherited declaration of the same name.
            for (cid, args) in table.all_supertypes(*id, &identity_args(&table, *id)) {
                if cid == *id {
                    continue;
                }
                if let Some(sm) = table.class(cid).methods.iter().find(|x| x.name == m.name) {
                    let want_params: Vec<Type> =
                        sm.params.iter().map(|p| p.ty.subst(&args)).collect();
                    let got_params: Vec<Type> = m.params.iter().map(|p| p.ty.clone()).collect();
                    let want_ret = sm.ret.subst(&args);
                    if want_params != got_params || want_ret != m.ret {
                        diags.push(Diagnostic::error(
                            "resolver",
                            m.span,
                            format!(
                                "`{}::{}` overrides `{}::{}` with an incompatible signature",
                                info.name,
                                m.name,
                                table.name(cid),
                                m.name
                            ),
                        ));
                    }
                    if sm.is_static != m.is_static {
                        diags.push(Diagnostic::error(
                            "resolver",
                            m.span,
                            format!("`{}` changes staticness of inherited method", m.name),
                        ));
                    }
                    let _ = mi;
                    break;
                }
            }
        }
        // Concrete classes must implement every abstract method.
        if !info.is_interface && !info.is_abstract {
            for (cid, _) in table.all_supertypes(*id, &identity_args(&table, *id)) {
                for am in table.class(cid).methods.iter().filter(|m| m.is_abstract) {
                    if table.resolve_impl(*id, &am.name).is_none() {
                        diags.push(Diagnostic::error(
                            "resolver",
                            info.span,
                            format!(
                                "`{}` does not implement abstract method `{}::{}`",
                                info.name,
                                table.name(cid),
                                am.name
                            ),
                        ));
                    }
                }
            }
        }
    }

    if diags.is_empty() {
        Ok(table)
    } else {
        Err(diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    fn table_of(src: &str) -> ClassTable {
        let unit = parse_unit(0, src).expect("parse");
        match build(vec![unit]) {
            Ok(t) => t,
            Err(ds) => panic!("build failed:\n{}", crate::span::render_diags(&ds)),
        }
    }

    fn build_err(src: &str) -> String {
        let unit = parse_unit(0, src).expect("parse");
        match build(vec![unit]) {
            Ok(_) => panic!("expected build error"),
            Err(ds) => crate::span::render_diags(&ds),
        }
    }

    #[test]
    fn object_is_class_zero() {
        let t = table_of("class A { }");
        assert_eq!(t.by_name("Object"), Some(OBJECT));
        assert_eq!(t.by_name("A"), Some(ClassId(1)));
        assert_eq!(t.class(ClassId(1)).superclass, Some((OBJECT, vec![])));
    }

    #[test]
    fn field_layout_stacks_over_supers() {
        let t = table_of("class A { int x; int y; } class B extends A { int z; }");
        let b = t.by_name("B").unwrap();
        assert_eq!(t.class(b).field_base, 2);
        assert_eq!(t.class(b).instance_size(), 3);
        let fl = t.lookup_field(b, "x").unwrap();
        assert_eq!(fl.slot, 0);
        let fl = t.lookup_field(b, "z").unwrap();
        assert_eq!(fl.slot, 2);
    }

    #[test]
    fn method_lookup_walks_interfaces() {
        let t = table_of(
            "interface Solver { float solve(float x); } \
             class Impl implements Solver { float solve(float x) { return x; } } \
             abstract class UsesSolver implements Solver { }",
        );
        let uses = t.by_name("UsesSolver").unwrap();
        let ml = t.lookup_method(uses, "solve").unwrap();
        assert_eq!(ml.decl_class, t.by_name("Solver").unwrap());
    }

    #[test]
    fn resolve_impl_picks_most_derived() {
        let t = table_of(
            "class A { int m() { return 1; } } \
             class B extends A { int m() { return 2; } } \
             class C extends B { }",
        );
        let c = t.by_name("C").unwrap();
        let (cls, _) = t.resolve_impl(c, "m").unwrap();
        assert_eq!(cls, t.by_name("B").unwrap());
    }

    #[test]
    fn generic_field_substitution_through_chain() {
        let t = table_of(
            "class Grid<T> { T item; Grid(T i) { item = i; } } \
             class FloatCell { float v; FloatCell(float v0) { v = v0; } } \
             class FloatGrid extends Grid<FloatCell> { FloatGrid(FloatCell c) { super(c); } }",
        );
        let fg = t.by_name("FloatGrid").unwrap();
        let fl = t.lookup_field(fg, "item").unwrap();
        assert_eq!(fl.ty, Type::object(t.by_name("FloatCell").unwrap()));
    }

    #[test]
    fn subtype_with_invariant_generics() {
        let t = table_of(
            "class Grid<T> { } class IntCell { } class FloatCell { } \
             class G1 extends Grid<IntCell> { }",
        );
        let grid = t.by_name("Grid").unwrap();
        let g1 = t.by_name("G1").unwrap();
        let intc = Type::object(t.by_name("IntCell").unwrap());
        let floatc = Type::object(t.by_name("FloatCell").unwrap());
        assert!(t.is_subtype(&Type::object(g1), &Type::Object(grid, vec![intc])));
        assert!(!t.is_subtype(&Type::object(g1), &Type::Object(grid, vec![floatc])));
    }

    #[test]
    fn rejects_inheritance_cycle() {
        let msg = build_err("class A extends B { } class B extends A { }");
        assert!(msg.contains("cycle"), "{msg}");
    }

    #[test]
    fn rejects_missing_abstract_impl() {
        let msg = build_err("interface I { int m(); } class C implements I { }");
        assert!(msg.contains("does not implement"), "{msg}");
    }

    #[test]
    fn rejects_incompatible_override() {
        let msg = build_err(
            "class A { int m(int x) { return x; } } \
             class B extends A { float m(int x) { return 1f; } }",
        );
        assert!(msg.contains("incompatible"), "{msg}");
    }

    #[test]
    fn rejects_field_shadowing() {
        let msg = build_err("class A { int x; } class B extends A { int x; }");
        assert!(msg.contains("shadows"), "{msg}");
    }

    #[test]
    fn rejects_extending_final_class() {
        let msg = build_err("final class A { } class B extends A { }");
        assert!(msg.contains("final"), "{msg}");
    }

    #[test]
    fn subclass_lists_and_leaves() {
        let t = table_of("class A { } class B extends A { } class C extends A { }");
        let a = t.by_name("A").unwrap();
        assert_eq!(t.class(a).subclasses.len(), 2);
        assert!(!t.is_leaf(a));
        assert!(t.is_leaf(t.by_name("B").unwrap()));
    }

    #[test]
    fn default_ctor_is_synthesized() {
        let t = table_of("class A { }");
        let a = t.by_name("A").unwrap();
        assert!(t.class(a).ctor.is_some());
    }

    #[test]
    fn native_methods_are_not_abstract() {
        let t = table_of("class M { @Native(\"sqrt\") static double sqrt(double x); }");
        let m = t.by_name("M").unwrap();
        let mi = &t.class(m).methods[0];
        assert!(!mi.is_abstract);
        assert_eq!(mi.native.as_deref(), Some("sqrt"));
    }
}
