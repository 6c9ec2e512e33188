//! Compiler and interpreter: raw declarations → slot-addressed IR →
//! [`SpecModel`], a [`TransitionSystem`] over [`SpecState`].
//!
//! # Compilation
//!
//! `compile` resolves every name statically — variables and locals to
//! slots, record fields to indices, enum variants and library actions to
//! constants, holes to registry positions — and reports unresolvable or
//! ill-typed constructs as structured [`InvalidSpec`] errors. After a spec
//! loads successfully, the interpreter can only fail on genuine runtime
//! type confusion (e.g. `get(none)`), which panics; the checker's
//! panic-isolation quarantines such candidates instead of crashing the run.
//!
//! # Execution semantics
//!
//! A rule body executes against a copy-on-write next state: reads go to the
//! pending next state once one exists, otherwise to the current state; the
//! first mutation clones. A body that completes without mutating yields a
//! self-loop (`Next(current)`), matching hand-written terminal rules.
//!
//! `require` with a false operand disables the rule. `choose` consults its
//! hole; a wildcard sets a *blocked* flag but execution continues through
//! any immediately following `choose` statements — so every hole the rule
//! consults is discovered/recorded, exactly like hand-written models that
//! resolve all holes before aborting — and the rule aborts with
//! [`RuleOutcome::Blocked`] at the first non-`choose` statement (or at the
//! end of the body).

use std::sync::Arc;

use verc3_mck::eval::{Choice, HoleResolver, HoleSpec};
use verc3_mck::scalarset::Symmetric;
use verc3_mck::{Multiset, Property, Rule, RuleOutcome, TransitionSystem};

use crate::ast::{BinOp, Expr, LValue, PathSeg, Stmt, UnOp};
use crate::error::InvalidSpec;
use crate::spec::{Binder, BinderDomain, FnBody, PropKind, RawRule, RawSpec, TypeRef};
use crate::value::{SpecState, Value};

// ---- Compiled form ---------------------------------------------------------

/// A synthesis hole with its prebuilt [`HoleSpec`].
pub(crate) struct CHole {
    pub name: String,
    pub spec: HoleSpec,
}

/// A compiled statement body with its local-slot count.
pub(crate) struct CBody {
    pub nlocals: usize,
    pub stmts: Vec<CStmt>,
}

/// One expanded rule instance: an interpolated name, a shared body, and the
/// binder values to preload into the body's first local slots.
pub(crate) struct CRuleInstance {
    pub name: String,
    pub body: usize,
    pub prelude: Vec<(usize, Value)>,
}

/// A compiled property predicate.
pub(crate) struct CProp {
    pub kind: PropKind,
    pub name: String,
    pub nlocals: usize,
    pub expr: CExpr,
}

/// The fully compiled protocol: everything [`SpecModel`] needs at runtime.
pub(crate) struct CompiledSpec {
    pub name: String,
    pub pids: usize,
    pub symmetry: bool,
    pub holes: Vec<CHole>,
    pub initial: SpecState,
    pub bodies: Vec<CBody>,
    pub rules: Vec<CRuleInstance>,
    pub props: Vec<CProp>,
}

/// Quantifier flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Quant {
    Count,
    Forall,
    Exists,
}

/// Typed, slot-addressed expressions.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Bool(bool),
    Int(u8),
    Pid(u8),
    EnumLit(u8, u8),
    NoneLit,
    Global(usize),
    Local(usize),
    Field(Box<CExpr>, usize),
    IndexArr(Box<CExpr>, Box<CExpr>),
    EnumCast(u8, u8, Box<CExpr>),
    Unary(UnOp, Box<CExpr>),
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    InList(Box<CExpr>, Vec<CExpr>),
    Record(Vec<CExpr>),
    Some_(Box<CExpr>),
    IsSome(Box<CExpr>),
    IsNone(Box<CExpr>),
    Get(Box<CExpr>),
    Len(Box<CExpr>),
    Card(Box<CExpr>),
    Contains(Box<CExpr>, Box<CExpr>),
    With(Box<CExpr>, Box<CExpr>),
    Without(Box<CExpr>, Box<CExpr>),
    EmptyPidSet,
    SatSub(Box<CExpr>, Box<CExpr>),
    Find {
        ms: Box<CExpr>,
        to: Box<CExpr>,
        kind: Box<CExpr>,
        rank: Box<CExpr>,
        to_field: usize,
        kind_field: usize,
    },
    Quantifier {
        quant: Quant,
        slot: usize,
        body: Box<CExpr>,
    },
}

/// The root of an assignable place.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CPlaceBase {
    Global(usize),
    Local(usize),
}

/// One step of a compiled place path.
#[derive(Debug, Clone)]
pub(crate) enum CPath {
    Field(usize),
    Index(CExpr),
}

/// A compiled assignable place.
#[derive(Debug, Clone)]
pub(crate) struct CPlace {
    pub base: CPlaceBase,
    pub path: Vec<CPath>,
}

/// Compiled statements.
#[derive(Debug, Clone)]
pub(crate) enum CStmt {
    Require(CExpr),
    SetLocal(usize, CExpr),
    Choose { local: usize, hole: usize },
    Assign { place: CPlace, value: CExpr },
    Insert { place: CPlace, value: CExpr },
    Remove { place: CPlace, value: CExpr },
    If(Vec<(CExpr, Vec<CStmt>)>, Vec<CStmt>),
    ForPids { local: usize, body: Vec<CStmt> },
}

// ---- Compiler --------------------------------------------------------------

/// Compiles validated raw declarations into executable form.
pub(crate) fn compile(raw: RawSpec) -> Result<CompiledSpec, InvalidSpec> {
    let n = raw.pids;
    let holes: Vec<CHole> = raw
        .holes
        .iter()
        .map(|h| CHole {
            name: h.name.clone(),
            spec: HoleSpec::new(h.name.clone(), raw.libs[h.lib].actions.iter().cloned()),
        })
        .collect();

    let initial = SpecState {
        vars: raw
            .vars
            .iter()
            .map(|(_, t)| default_value(t, &raw, n))
            .collect(),
    };

    let mut bodies = Vec::new();
    let mut rules = Vec::new();
    for rs in &raw.rulesets {
        let binder_frame: Vec<(String, usize, TypeRef)> = rs
            .binds
            .iter()
            .enumerate()
            .map(|(i, b)| (b.name.clone(), i, binder_type(&b.domain)))
            .collect();
        let body_base = bodies.len();
        for rule in &rs.rules {
            bodies.push(compile_rule_body(&raw, &holes, rule, &binder_frame)?);
        }
        for combo in binder_combos(&rs.binds, n) {
            for (ri, rule) in rs.rules.iter().enumerate() {
                let name = interpolate(&rule.name_template, &rs.binds, &combo, &raw);
                let prelude = combo
                    .iter()
                    .enumerate()
                    .map(|(slot, v)| (slot, v.clone()))
                    .collect();
                rules.push(CRuleInstance {
                    name,
                    body: body_base + ri,
                    prelude,
                });
            }
        }
    }

    let mut props = Vec::new();
    for p in &raw.props {
        let mut c = Compiler::new(&raw, &holes, format!("property {}", p.name));
        let (expr, ty) = c.expr(&p.expr)?;
        if !ty.compatible(&TypeRef::Bool) {
            return Err(c.type_err("property expression must be boolean"));
        }
        props.push(CProp {
            kind: p.kind,
            name: p.name.clone(),
            nlocals: c.nlocals,
            expr,
        });
    }

    Ok(CompiledSpec {
        name: raw.name.clone(),
        pids: n,
        symmetry: raw.symmetry,
        holes,
        initial,
        bodies,
        rules,
        props,
    })
}

fn binder_type(d: &BinderDomain) -> TypeRef {
    match d {
        BinderDomain::Pid => TypeRef::Pid,
        BinderDomain::Rank => TypeRef::Int,
        BinderDomain::EnumSubset(e, _) => TypeRef::Enum(*e),
    }
}

/// All binder-value combinations: first binder varies slowest, matching the
/// outermost loop of an equivalent hand-written nest.
fn binder_combos(binds: &[Binder], n: usize) -> Vec<Vec<Value>> {
    let mut out = vec![Vec::new()];
    for b in binds {
        let dom: Vec<Value> = match &b.domain {
            BinderDomain::Pid => (0..n).map(|i| Value::Pid(i as u8)).collect(),
            BinderDomain::Rank => (0..n).map(|i| Value::Int(i as u8)).collect(),
            BinderDomain::EnumSubset(e, vs) => {
                vs.iter().map(|v| Value::Enum(*e as u8, *v)).collect()
            }
        };
        let mut next = Vec::with_capacity(out.len() * dom.len());
        for prefix in &out {
            for v in &dom {
                let mut p = prefix.clone();
                p.push(v.clone());
                next.push(p);
            }
        }
        out = next;
    }
    out
}

fn interpolate(template: &str, binds: &[Binder], combo: &[Value], raw: &RawSpec) -> String {
    let mut name = template.to_string();
    for (b, v) in binds.iter().zip(combo) {
        let rendered = match v {
            Value::Pid(i) | Value::Int(i) => i.to_string(),
            Value::Enum(e, var) => raw.enums[*e as usize].variants[*var as usize].clone(),
            other => format!("{other:?}"),
        };
        name = name.replace(&format!("{{{}}}", b.name), &rendered);
    }
    name
}

fn compile_rule_body(
    raw: &RawSpec,
    holes: &[CHole],
    rule: &RawRule,
    binder_frame: &[(String, usize, TypeRef)],
) -> Result<CBody, InvalidSpec> {
    let mut c = Compiler::new(raw, holes, format!("rule {}", rule.name_template));
    c.nlocals = binder_frame.len();
    c.scopes.push(binder_frame.to_vec());
    let stmts = c.stmts(&rule.body)?;
    Ok(CBody {
        nlocals: c.nlocals,
        stmts,
    })
}

fn default_value(t: &TypeRef, raw: &RawSpec, n: usize) -> Value {
    match t {
        TypeRef::Bool => Value::Bool(false),
        TypeRef::Int => Value::Int(0),
        TypeRef::Pid => Value::Pid(0),
        TypeRef::PidSet => Value::PidSet(0),
        TypeRef::Enum(e) => Value::Enum(*e as u8, 0),
        TypeRef::Option(_) => Value::Opt(None),
        TypeRef::Multiset(_) => Value::Multi(Multiset::new()),
        TypeRef::Array(elem) => Value::Array((0..n).map(|_| default_value(elem, raw, n)).collect()),
        TypeRef::Record(r) => Value::Record(
            raw.records[*r]
                .fields
                .iter()
                .map(|(_, ft)| default_value(ft, raw, n))
                .collect(),
        ),
        TypeRef::Unknown => Value::Opt(None),
    }
}

struct Compiler<'r> {
    raw: &'r RawSpec,
    holes: &'r [CHole],
    scopes: Vec<Vec<(String, usize, TypeRef)>>,
    nlocals: usize,
    fn_stack: Vec<String>,
    ctx: String,
}

impl<'r> Compiler<'r> {
    fn new(raw: &'r RawSpec, holes: &'r [CHole], ctx: String) -> Self {
        Compiler {
            raw,
            holes,
            scopes: Vec::new(),
            nlocals: 0,
            fn_stack: Vec::new(),
            ctx,
        }
    }

    fn type_err(&self, message: impl Into<String>) -> InvalidSpec {
        InvalidSpec::Type {
            context: self.ctx.clone(),
            message: message.into(),
        }
    }

    fn unknown(&self, name: &str) -> InvalidSpec {
        InvalidSpec::UnknownName {
            context: self.ctx.clone(),
            name: name.to_string(),
        }
    }

    fn alloc(&mut self, name: &str, ty: TypeRef) -> usize {
        let slot = self.nlocals;
        self.nlocals += 1;
        self.scopes
            .last_mut()
            .expect("a scope frame is active")
            .push((name.to_string(), slot, ty));
        slot
    }

    fn lookup_local(&self, name: &str) -> Option<(usize, TypeRef)> {
        for frame in self.scopes.iter().rev() {
            for (n, slot, ty) in frame.iter().rev() {
                if n == name {
                    return Some((*slot, ty.clone()));
                }
            }
        }
        None
    }

    fn global_idx(&self, name: &str) -> Option<(usize, TypeRef)> {
        self.raw
            .vars
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| (i, self.raw.vars[i].1.clone()))
    }

    fn enum_idx(&self, name: &str) -> Option<usize> {
        self.raw.enums.iter().position(|e| e.name == name)
    }

    fn lib_idx(&self, name: &str) -> Option<usize> {
        self.raw.libs.iter().position(|l| l.name == name)
    }

    fn record_idx(&self, name: &str) -> Option<usize> {
        self.raw.records.iter().position(|r| r.name == name)
    }

    fn const_val(&self, name: &str) -> Option<i64> {
        self.raw
            .consts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    // ---- Statements --------------------------------------------------------

    fn stmts(&mut self, body: &[Stmt]) -> Result<Vec<CStmt>, InvalidSpec> {
        self.scopes.push(Vec::new());
        let result = body.iter().map(|s| self.stmt(s)).collect();
        self.scopes.pop();
        result
    }

    fn stmt(&mut self, s: &Stmt) -> Result<CStmt, InvalidSpec> {
        match s {
            Stmt::Require(e) => {
                let (ce, ty) = self.expr(e)?;
                if !ty.compatible(&TypeRef::Bool) {
                    return Err(self.type_err("`require` needs a boolean"));
                }
                Ok(CStmt::Require(ce))
            }
            Stmt::Let(name, e) => {
                let (ce, ty) = self.expr(e)?;
                let slot = self.alloc(name, ty);
                Ok(CStmt::SetLocal(slot, ce))
            }
            Stmt::Choose(name, hole_name) => {
                let hole = self
                    .holes
                    .iter()
                    .position(|h| h.name == *hole_name)
                    .ok_or_else(|| self.unknown(hole_name))?;
                let slot = self.alloc(name, TypeRef::Int);
                Ok(CStmt::Choose { local: slot, hole })
            }
            Stmt::Assign(lv, e) => {
                let (ce, vty) = self.expr(e)?;
                let (place, pty) = self.lvalue_place(lv)?;
                let (ce, vty) = coerce(ce, vty, &pty);
                if !vty.compatible(&pty) {
                    return Err(
                        self.type_err(format!("assignment to `{}` has a mismatched type", lv.base))
                    );
                }
                Ok(CStmt::Assign { place, value: ce })
            }
            Stmt::If(arms, else_) => {
                let mut carms = Vec::new();
                for (cond, body) in arms {
                    let (cc, ty) = self.expr(cond)?;
                    if !ty.compatible(&TypeRef::Bool) {
                        return Err(self.type_err("`if` condition must be boolean"));
                    }
                    carms.push((cc, self.stmts(body)?));
                }
                let celse = self.stmts(else_)?;
                Ok(CStmt::If(carms, celse))
            }
            Stmt::ForPids(name, body) => {
                self.scopes.push(Vec::new());
                let slot = self.alloc(name, TypeRef::Pid);
                let cbody = body.iter().map(|s| self.stmt(s)).collect::<Result<_, _>>();
                self.scopes.pop();
                Ok(CStmt::ForPids {
                    local: slot,
                    body: cbody?,
                })
            }
            Stmt::Call(name, args) => self.stmt_call(name, args),
        }
    }

    fn stmt_call(&mut self, name: &str, args: &[Expr]) -> Result<CStmt, InvalidSpec> {
        match name {
            "insert" | "remove" => {
                if args.len() != 2 {
                    return Err(self.type_err(format!("`{name}` takes (multiset, value)")));
                }
                let (place, pty) = self.expr_place(&args[0])?;
                let TypeRef::Multiset(elem) = pty else {
                    return Err(self.type_err(format!("`{name}` needs a multiset place")));
                };
                let (cv, vty) = self.expr(&args[1])?;
                if !vty.compatible(&elem) {
                    return Err(self.type_err(format!("`{name}` element type mismatch")));
                }
                if name == "insert" {
                    Ok(CStmt::Insert { place, value: cv })
                } else {
                    Ok(CStmt::Remove { place, value: cv })
                }
            }
            _ => {
                let decl = self
                    .raw
                    .fns
                    .iter()
                    .find(|f| f.name == name)
                    .ok_or_else(|| self.unknown(name))?;
                if self.fn_stack.iter().any(|f| f == name) {
                    return Err(self.type_err(format!("`{name}` is recursive")));
                }
                let FnBody::Stmts(body) = &decl.body else {
                    return Err(self.type_err(format!(
                        "`{name}` is an expression fn; call it inside an expression"
                    )));
                };
                if args.len() != decl.params.len() {
                    return Err(self.type_err(format!(
                        "`{name}` takes {} argument(s), got {}",
                        decl.params.len(),
                        args.len()
                    )));
                }
                // Inline: evaluate args into fresh slots in the caller's
                // scope, then compile the body against a scope containing
                // only the parameters (plus globals/consts, which are always
                // visible). The slot allocator is shared, so inlined locals
                // never collide.
                let mut out = Vec::new();
                let mut param_frame = Vec::new();
                self.scopes.push(Vec::new());
                for ((pname, pty), arg) in decl.params.iter().zip(args) {
                    let (ca, aty) = self.expr(arg)?;
                    let (ca, aty) = coerce(ca, aty, pty);
                    if !aty.compatible(pty) {
                        return Err(self.type_err(format!(
                            "`{name}` argument `{pname}` has a mismatched type"
                        )));
                    }
                    let slot = self.nlocals;
                    self.nlocals += 1;
                    param_frame.push((pname.clone(), slot, pty.clone()));
                    out.push(CStmt::SetLocal(slot, ca));
                }
                self.scopes.pop();
                let saved = std::mem::replace(&mut self.scopes, vec![param_frame]);
                self.fn_stack.push(name.to_string());
                let compiled = self.stmts(body);
                self.fn_stack.pop();
                self.scopes = saved;
                out.extend(compiled?);
                // An inlined fn is a statement sequence; wrap in an `if true`
                // so it stays a single CStmt.
                Ok(CStmt::If(vec![(CExpr::Bool(true), out)], Vec::new()))
            }
        }
    }

    /// Compiles an lvalue (base + path) into a place.
    fn lvalue_place(&mut self, lv: &LValue) -> Result<(CPlace, TypeRef), InvalidSpec> {
        let (base, mut ty) = if let Some((slot, ty)) = self.lookup_local(&lv.base) {
            (CPlaceBase::Local(slot), ty)
        } else if let Some((slot, ty)) = self.global_idx(&lv.base) {
            (CPlaceBase::Global(slot), ty)
        } else {
            return Err(self.unknown(&lv.base));
        };
        let mut path = Vec::new();
        for seg in &lv.path {
            match seg {
                PathSeg::Field(fname) => {
                    let TypeRef::Record(r) = ty else {
                        return Err(
                            self.type_err(format!("`.{fname}` on a non-record in `{}`", lv.base))
                        );
                    };
                    let idx = self.raw.records[r]
                        .fields
                        .iter()
                        .position(|(n, _)| n == fname)
                        .ok_or_else(|| self.unknown(fname))?;
                    ty = self.raw.records[r].fields[idx].1.clone();
                    path.push(CPath::Field(idx));
                }
                PathSeg::Index(e) => {
                    let TypeRef::Array(elem) = ty else {
                        return Err(self.type_err(format!("`[…]` on a non-array in `{}`", lv.base)));
                    };
                    let (ce, ity) = self.expr(e)?;
                    if !ity.compatible(&TypeRef::Pid) && !ity.compatible(&TypeRef::Int) {
                        return Err(self.type_err("array index must be a pid or int"));
                    }
                    ty = *elem;
                    path.push(CPath::Index(ce));
                }
            }
        }
        Ok((CPlace { base, path }, ty))
    }

    /// Compiles a place given in expression position (for `insert`/`remove`).
    fn expr_place(&mut self, e: &Expr) -> Result<(CPlace, TypeRef), InvalidSpec> {
        let lv = expr_to_lvalue(e).ok_or_else(|| {
            self.type_err("expected an assignable place (variable, field, or index)")
        })?;
        self.lvalue_place(&lv)
    }

    // ---- Expressions -------------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Result<(CExpr, TypeRef), InvalidSpec> {
        match e {
            Expr::Int(i) => {
                let v = u8::try_from(*i)
                    .map_err(|_| self.type_err(format!("integer literal {i} out of 0..=255")))?;
                Ok((CExpr::Int(v), TypeRef::Int))
            }
            Expr::Bool(b) => Ok((CExpr::Bool(*b), TypeRef::Bool)),
            Expr::None_ => Ok((CExpr::NoneLit, TypeRef::Option(Box::new(TypeRef::Unknown)))),
            Expr::Dir => Ok((CExpr::Pid(self.raw.pids as u8), TypeRef::Pid)),
            Expr::Var(name) => {
                if let Some((slot, ty)) = self.lookup_local(name) {
                    Ok((CExpr::Local(slot), ty))
                } else if let Some(v) = self.const_val(name) {
                    let v = u8::try_from(v)
                        .map_err(|_| self.type_err(format!("const `{name}` out of 0..=255")))?;
                    Ok((CExpr::Int(v), TypeRef::Int))
                } else if let Some((slot, ty)) = self.global_idx(name) {
                    Ok((CExpr::Global(slot), ty))
                } else {
                    Err(self.unknown(name))
                }
            }
            Expr::Field(base, fname) => {
                if let Expr::Var(tname) = base.as_ref() {
                    if self.lookup_local(tname).is_none() && self.global_idx(tname).is_none() {
                        if let Some(eidx) = self.enum_idx(tname) {
                            let v = self.raw.enums[eidx]
                                .variants
                                .iter()
                                .position(|x| x == fname)
                                .ok_or_else(|| self.unknown(fname))?;
                            return Ok((CExpr::EnumLit(eidx as u8, v as u8), TypeRef::Enum(eidx)));
                        }
                        if let Some(lidx) = self.lib_idx(tname) {
                            let v = self.raw.libs[lidx]
                                .actions
                                .iter()
                                .position(|x| x == fname)
                                .ok_or_else(|| self.unknown(fname))?;
                            return Ok((CExpr::Int(v as u8), TypeRef::Int));
                        }
                    }
                }
                let (cb, bty) = self.expr(base)?;
                let TypeRef::Record(r) = bty else {
                    return Err(self.type_err(format!("`.{fname}` on a non-record value")));
                };
                let idx = self.raw.records[r]
                    .fields
                    .iter()
                    .position(|(n, _)| n == fname)
                    .ok_or_else(|| self.unknown(fname))?;
                let fty = self.raw.records[r].fields[idx].1.clone();
                Ok((CExpr::Field(Box::new(cb), idx), fty))
            }
            Expr::Index(base, idx) => {
                if let Expr::Var(tname) = base.as_ref() {
                    if self.lookup_local(tname).is_none() && self.global_idx(tname).is_none() {
                        if let Some(eidx) = self.enum_idx(tname) {
                            let (ci, ity) = self.expr(idx)?;
                            if !ity.compatible(&TypeRef::Int) {
                                return Err(self.type_err("enum cast index must be an integer"));
                            }
                            let nvars = self.raw.enums[eidx].variants.len() as u8;
                            return Ok((
                                CExpr::EnumCast(eidx as u8, nvars, Box::new(ci)),
                                TypeRef::Enum(eidx),
                            ));
                        }
                    }
                }
                let (cb, bty) = self.expr(base)?;
                let TypeRef::Array(elem) = bty else {
                    return Err(self.type_err("`[…]` on a non-array value"));
                };
                let (ci, ity) = self.expr(idx)?;
                if !ity.compatible(&TypeRef::Pid) && !ity.compatible(&TypeRef::Int) {
                    return Err(self.type_err("array index must be a pid or int"));
                }
                Ok((CExpr::IndexArr(Box::new(cb), Box::new(ci)), *elem))
            }
            Expr::Unary(UnOp::Not, inner) => {
                let (ci, ty) = self.expr(inner)?;
                if !ty.compatible(&TypeRef::Bool) {
                    return Err(self.type_err("`!` needs a boolean"));
                }
                Ok((CExpr::Unary(UnOp::Not, Box::new(ci)), TypeRef::Bool))
            }
            Expr::Binary(op, lhs, rhs) => {
                let (cl, lt) = self.expr(lhs)?;
                let (cr, rt) = self.expr(rhs)?;
                let ty = match op {
                    BinOp::And | BinOp::Or => {
                        if !lt.compatible(&TypeRef::Bool) || !rt.compatible(&TypeRef::Bool) {
                            return Err(self.type_err("logical operator needs booleans"));
                        }
                        TypeRef::Bool
                    }
                    BinOp::Add | BinOp::Sub => {
                        if !lt.compatible(&TypeRef::Int) || !rt.compatible(&TypeRef::Int) {
                            return Err(self.type_err("arithmetic needs integers"));
                        }
                        TypeRef::Int
                    }
                    BinOp::Eq | BinOp::Ne => {
                        if !lt.compatible(&rt) {
                            return Err(self.type_err("`==`/`!=` operands have different types"));
                        }
                        TypeRef::Bool
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        let ints = lt.compatible(&TypeRef::Int) && rt.compatible(&TypeRef::Int);
                        let pids = lt.compatible(&TypeRef::Pid) && rt.compatible(&TypeRef::Pid);
                        if !ints && !pids {
                            return Err(self.type_err("ordering needs two integers or two pids"));
                        }
                        TypeRef::Bool
                    }
                };
                Ok((CExpr::Binary(*op, Box::new(cl), Box::new(cr)), ty))
            }
            Expr::InList(scrut, items) => {
                let (cs, st) = self.expr(scrut)?;
                let mut citems = Vec::new();
                for it in items {
                    let (ci, it_ty) = self.expr(it)?;
                    if !it_ty.compatible(&st) {
                        return Err(self.type_err("`in […]` item type mismatch"));
                    }
                    citems.push(ci);
                }
                Ok((CExpr::InList(Box::new(cs), citems), TypeRef::Bool))
            }
            Expr::Call(name, args) => self.expr_call(name, args),
        }
    }

    fn expr_call(&mut self, name: &str, args: &[Expr]) -> Result<(CExpr, TypeRef), InvalidSpec> {
        let arity = |want: usize, c: &Self| -> Result<(), InvalidSpec> {
            if args.len() != want {
                Err(c.type_err(format!("`{name}` takes {want} argument(s)")))
            } else {
                Ok(())
            }
        };
        match name {
            "some" => {
                arity(1, self)?;
                let (ci, ty) = self.expr(&args[0])?;
                Ok((CExpr::Some_(Box::new(ci)), TypeRef::Option(Box::new(ty))))
            }
            "is_some" | "is_none" => {
                arity(1, self)?;
                let (ci, ty) = self.expr(&args[0])?;
                if !matches!(ty, TypeRef::Option(_) | TypeRef::Unknown) {
                    return Err(self.type_err(format!("`{name}` needs an option")));
                }
                let c = if name == "is_some" {
                    CExpr::IsSome(Box::new(ci))
                } else {
                    CExpr::IsNone(Box::new(ci))
                };
                Ok((c, TypeRef::Bool))
            }
            "get" => {
                arity(1, self)?;
                let (ci, ty) = self.expr(&args[0])?;
                let TypeRef::Option(inner) = ty else {
                    return Err(self.type_err("`get` needs an option"));
                };
                Ok((CExpr::Get(Box::new(ci)), *inner))
            }
            "len" => {
                arity(1, self)?;
                let (ci, ty) = self.expr(&args[0])?;
                if !matches!(ty, TypeRef::Multiset(_)) {
                    return Err(self.type_err("`len` needs a multiset"));
                }
                Ok((CExpr::Len(Box::new(ci)), TypeRef::Int))
            }
            "card" => {
                arity(1, self)?;
                let (ci, ty) = self.expr(&args[0])?;
                if !ty.compatible(&TypeRef::PidSet) {
                    return Err(self.type_err("`card` needs a pidset"));
                }
                Ok((CExpr::Card(Box::new(ci)), TypeRef::Int))
            }
            "contains" | "with" | "without" => {
                arity(2, self)?;
                let (cs, sty) = self.expr(&args[0])?;
                let (cp, pty) = self.expr(&args[1])?;
                if !sty.compatible(&TypeRef::PidSet) || !pty.compatible(&TypeRef::Pid) {
                    return Err(self.type_err(format!("`{name}` takes (pidset, pid)")));
                }
                let (c, ty) = match name {
                    "contains" => (CExpr::Contains(Box::new(cs), Box::new(cp)), TypeRef::Bool),
                    "with" => (CExpr::With(Box::new(cs), Box::new(cp)), TypeRef::PidSet),
                    _ => (CExpr::Without(Box::new(cs), Box::new(cp)), TypeRef::PidSet),
                };
                Ok((c, ty))
            }
            "empty_pidset" => {
                arity(0, self)?;
                Ok((CExpr::EmptyPidSet, TypeRef::PidSet))
            }
            "sat_sub" => {
                arity(2, self)?;
                let (ca, at) = self.expr(&args[0])?;
                let (cb, bt) = self.expr(&args[1])?;
                if !at.compatible(&TypeRef::Int) || !bt.compatible(&TypeRef::Int) {
                    return Err(self.type_err("`sat_sub` takes (int, int)"));
                }
                Ok((CExpr::SatSub(Box::new(ca), Box::new(cb)), TypeRef::Int))
            }
            "find" => {
                arity(4, self)?;
                let (cms, mty) = self.expr(&args[0])?;
                let TypeRef::Multiset(elem) = mty else {
                    return Err(self.type_err("`find` needs a multiset"));
                };
                let TypeRef::Record(r) = *elem else {
                    return Err(self.type_err("`find` needs a multiset of records"));
                };
                let field = |fname: &str, c: &Self| -> Result<(usize, TypeRef), InvalidSpec> {
                    c.raw.records[r]
                        .fields
                        .iter()
                        .position(|(n, _)| n == fname)
                        .map(|i| (i, c.raw.records[r].fields[i].1.clone()))
                        .ok_or_else(|| {
                            c.type_err(format!(
                                "`find` needs a `{fname}` field on `{}`",
                                c.raw.records[r].name
                            ))
                        })
                };
                let (to_field, to_ty) = field("to", self)?;
                let (kind_field, kind_ty) = field("kind", self)?;
                let (cto, tty) = self.expr(&args[1])?;
                let (cto, tty) = coerce(cto, tty, &to_ty);
                let (ckind, kty) = self.expr(&args[2])?;
                let (ckind, kty) = coerce(ckind, kty, &kind_ty);
                let (crank, rty) = self.expr(&args[3])?;
                if !tty.compatible(&to_ty) || !kty.compatible(&kind_ty) {
                    return Err(self.type_err("`find` selector type mismatch"));
                }
                if !rty.compatible(&TypeRef::Int) {
                    return Err(self.type_err("`find` rank must be an integer"));
                }
                Ok((
                    CExpr::Find {
                        ms: Box::new(cms),
                        to: Box::new(cto),
                        kind: Box::new(ckind),
                        rank: Box::new(crank),
                        to_field,
                        kind_field,
                    },
                    TypeRef::Option(Box::new(TypeRef::Record(r))),
                ))
            }
            "count" | "forall" | "exists" => {
                arity(2, self)?;
                let Expr::Var(binder) = &args[0] else {
                    return Err(self.type_err(format!(
                        "`{name}` takes a fresh binder name as its first argument"
                    )));
                };
                self.scopes.push(Vec::new());
                let slot = self.alloc(binder, TypeRef::Pid);
                let body = self.expr(&args[1]);
                self.scopes.pop();
                let (cb, bty) = body?;
                if !bty.compatible(&TypeRef::Bool) {
                    return Err(self.type_err(format!("`{name}` body must be boolean")));
                }
                let (quant, ty) = match name {
                    "count" => (Quant::Count, TypeRef::Int),
                    "forall" => (Quant::Forall, TypeRef::Bool),
                    _ => (Quant::Exists, TypeRef::Bool),
                };
                Ok((
                    CExpr::Quantifier {
                        quant,
                        slot,
                        body: Box::new(cb),
                    },
                    ty,
                ))
            }
            _ => {
                if let Some(r) = self.record_idx(name) {
                    let fields = self.raw.records[r].fields.clone();
                    if args.len() != fields.len() {
                        return Err(self.type_err(format!(
                            "`{name}` constructor takes {} field(s)",
                            fields.len()
                        )));
                    }
                    let mut cargs = Vec::new();
                    for ((fname, fty), arg) in fields.iter().zip(args) {
                        let (ca, aty) = self.expr(arg)?;
                        let (ca, aty) = coerce(ca, aty, fty);
                        if !aty.compatible(fty) {
                            return Err(self.type_err(format!(
                                "`{name}` field `{fname}` has a mismatched type"
                            )));
                        }
                        cargs.push(ca);
                    }
                    return Ok((CExpr::Record(cargs), TypeRef::Record(r)));
                }
                // Expression fn: inline by substitution. The substituted body
                // is compiled in the caller's scope, so parameters must not
                // shadow caller locals the arguments mention.
                let decl = self
                    .raw
                    .fns
                    .iter()
                    .find(|f| f.name == name)
                    .ok_or_else(|| self.unknown(name))?
                    .clone();
                if self.fn_stack.iter().any(|f| f == name) {
                    return Err(self.type_err(format!("`{name}` is recursive")));
                }
                let FnBody::Expr(body) = &decl.body else {
                    return Err(self.type_err(format!(
                        "`{name}` is a statement fn; call it as a statement"
                    )));
                };
                if args.len() != decl.params.len() {
                    return Err(self.type_err(format!(
                        "`{name}` takes {} argument(s), got {}",
                        decl.params.len(),
                        args.len()
                    )));
                }
                let map: std::collections::HashMap<&str, &Expr> = decl
                    .params
                    .iter()
                    .map(|(p, _)| p.as_str())
                    .zip(args.iter())
                    .collect();
                let substituted = subst(body, &map);
                self.fn_stack.push(name.to_string());
                let compiled = self.expr(&substituted);
                self.fn_stack.pop();
                compiled
            }
        }
    }
}

/// Coerces a compile-time integer literal to a pid constant when a
/// pid-typed position expects one. Only literals coerce: a runtime `int`
/// is a different [`Value`] variant from a `pid`, and silently mixing them
/// would corrupt state equality.
fn coerce(c: CExpr, have: TypeRef, want: &TypeRef) -> (CExpr, TypeRef) {
    if let (CExpr::Int(v), TypeRef::Int, TypeRef::Pid) = (&c, &have, want) {
        return (CExpr::Pid(*v), TypeRef::Pid);
    }
    (c, have)
}

/// Reconstructs an lvalue from a place given in expression position.
fn expr_to_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Var(n) => Some(LValue {
            base: n.clone(),
            path: Vec::new(),
        }),
        Expr::Field(base, f) => {
            let mut lv = expr_to_lvalue(base)?;
            lv.path.push(PathSeg::Field(f.clone()));
            Some(lv)
        }
        Expr::Index(base, idx) => {
            let mut lv = expr_to_lvalue(base)?;
            lv.path.push(PathSeg::Index((**idx).clone()));
            Some(lv)
        }
        _ => None,
    }
}

/// Substitutes parameter names with argument ASTs (for expression fns).
fn subst(e: &Expr, map: &std::collections::HashMap<&str, &Expr>) -> Expr {
    match e {
        Expr::Var(n) => match map.get(n.as_str()) {
            Some(replacement) => (*replacement).clone(),
            None => e.clone(),
        },
        Expr::Int(_) | Expr::Bool(_) | Expr::None_ | Expr::Dir => e.clone(),
        Expr::Field(b, f) => Expr::Field(Box::new(subst(b, map)), f.clone()),
        Expr::Index(b, i) => Expr::Index(Box::new(subst(b, map)), Box::new(subst(i, map))),
        Expr::Unary(op, i) => Expr::Unary(*op, Box::new(subst(i, map))),
        Expr::Binary(op, l, r) => {
            Expr::Binary(*op, Box::new(subst(l, map)), Box::new(subst(r, map)))
        }
        Expr::InList(s, items) => Expr::InList(
            Box::new(subst(s, map)),
            items.iter().map(|i| subst(i, map)).collect(),
        ),
        Expr::Call(n, args) => Expr::Call(n.clone(), args.iter().map(|a| subst(a, map)).collect()),
    }
}

// ---- Interpreter -----------------------------------------------------------

enum Flow {
    Cont,
    Disabled,
    Blocked,
}

struct Env<'a> {
    spec: &'a CompiledSpec,
    cur: &'a SpecState,
    ns: Option<SpecState>,
    blocked: bool,
}

impl Env<'_> {
    fn state(&self) -> &SpecState {
        self.ns.as_ref().unwrap_or(self.cur)
    }
}

fn as_bool(v: Value) -> bool {
    match v {
        Value::Bool(b) => b,
        other => panic!("spec interpreter: expected bool, got {other:?}"),
    }
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::Int(i) | Value::Pid(i) => *i as i64,
        other => panic!("spec interpreter: expected a number, got {other:?}"),
    }
}

fn as_index(v: &Value) -> usize {
    match v {
        Value::Int(i) | Value::Pid(i) => *i as usize,
        other => panic!("spec interpreter: expected an index, got {other:?}"),
    }
}

fn int_value(i: i64) -> Value {
    match u8::try_from(i) {
        Ok(v) => Value::Int(v),
        Err(_) => panic!("spec interpreter: integer {i} out of 0..=255"),
    }
}

fn eval(env: &Env, locals: &mut Vec<Value>, e: &CExpr) -> Value {
    match e {
        CExpr::Bool(b) => Value::Bool(*b),
        CExpr::Int(i) => Value::Int(*i),
        CExpr::Pid(p) => Value::Pid(*p),
        CExpr::EnumLit(ty, v) => Value::Enum(*ty, *v),
        CExpr::NoneLit => Value::Opt(None),
        CExpr::Global(slot) => env.state().vars[*slot].clone(),
        CExpr::Local(slot) => locals[*slot].clone(),
        CExpr::Field(base, idx) => match eval(env, locals, base) {
            Value::Record(mut fields) => fields.swap_remove(*idx),
            other => panic!("spec interpreter: `.field` on {other:?}"),
        },
        CExpr::IndexArr(base, idx) => {
            let i = as_index(&eval(env, locals, idx));
            match eval(env, locals, base) {
                Value::Array(mut items) => {
                    assert!(i < items.len(), "spec interpreter: index {i} out of bounds");
                    items.swap_remove(i)
                }
                other => panic!("spec interpreter: `[…]` on {other:?}"),
            }
        }
        CExpr::EnumCast(ty, nvars, inner) => {
            let i = as_i64(&eval(env, locals, inner));
            assert!(
                (0..*nvars as i64).contains(&i),
                "spec interpreter: enum cast {i} out of range"
            );
            Value::Enum(*ty, i as u8)
        }
        CExpr::Unary(UnOp::Not, inner) => Value::Bool(!as_bool(eval(env, locals, inner))),
        CExpr::Binary(op, lhs, rhs) => match op {
            BinOp::And => {
                Value::Bool(as_bool(eval(env, locals, lhs)) && as_bool(eval(env, locals, rhs)))
            }
            BinOp::Or => {
                Value::Bool(as_bool(eval(env, locals, lhs)) || as_bool(eval(env, locals, rhs)))
            }
            BinOp::Eq => Value::Bool(eval(env, locals, lhs) == eval(env, locals, rhs)),
            BinOp::Ne => Value::Bool(eval(env, locals, lhs) != eval(env, locals, rhs)),
            BinOp::Add => {
                int_value(as_i64(&eval(env, locals, lhs)) + as_i64(&eval(env, locals, rhs)))
            }
            BinOp::Sub => {
                int_value(as_i64(&eval(env, locals, lhs)) - as_i64(&eval(env, locals, rhs)))
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let l = as_i64(&eval(env, locals, lhs));
                let r = as_i64(&eval(env, locals, rhs));
                Value::Bool(match op {
                    BinOp::Lt => l < r,
                    BinOp::Le => l <= r,
                    BinOp::Gt => l > r,
                    _ => l >= r,
                })
            }
        },
        CExpr::InList(scrut, items) => {
            let v = eval(env, locals, scrut);
            Value::Bool(items.iter().any(|i| eval(env, locals, i) == v))
        }
        CExpr::Record(fields) => {
            Value::Record(fields.iter().map(|f| eval(env, locals, f)).collect())
        }
        CExpr::Some_(inner) => Value::Opt(Some(Box::new(eval(env, locals, inner)))),
        CExpr::IsSome(inner) => match eval(env, locals, inner) {
            Value::Opt(o) => Value::Bool(o.is_some()),
            other => panic!("spec interpreter: `is_some` on {other:?}"),
        },
        CExpr::IsNone(inner) => match eval(env, locals, inner) {
            Value::Opt(o) => Value::Bool(o.is_none()),
            other => panic!("spec interpreter: `is_none` on {other:?}"),
        },
        CExpr::Get(inner) => match eval(env, locals, inner) {
            Value::Opt(Some(b)) => *b,
            Value::Opt(None) => panic!("spec interpreter: `get` on `none`"),
            other => panic!("spec interpreter: `get` on {other:?}"),
        },
        CExpr::Len(inner) => match eval(env, locals, inner) {
            Value::Multi(ms) => int_value(ms.len() as i64),
            other => panic!("spec interpreter: `len` on {other:?}"),
        },
        CExpr::Card(inner) => match eval(env, locals, inner) {
            Value::PidSet(bits) => Value::Int(bits.count_ones() as u8),
            other => panic!("spec interpreter: `card` on {other:?}"),
        },
        CExpr::Contains(set, pid) => {
            let p = as_index(&eval(env, locals, pid));
            match eval(env, locals, set) {
                Value::PidSet(bits) => Value::Bool(bits & (1 << p) != 0),
                other => panic!("spec interpreter: `contains` on {other:?}"),
            }
        }
        CExpr::With(set, pid) => {
            let p = as_index(&eval(env, locals, pid));
            match eval(env, locals, set) {
                Value::PidSet(bits) => Value::PidSet(bits | (1 << p)),
                other => panic!("spec interpreter: `with` on {other:?}"),
            }
        }
        CExpr::Without(set, pid) => {
            let p = as_index(&eval(env, locals, pid));
            match eval(env, locals, set) {
                Value::PidSet(bits) => Value::PidSet(bits & !(1 << p)),
                other => panic!("spec interpreter: `without` on {other:?}"),
            }
        }
        CExpr::EmptyPidSet => Value::PidSet(0),
        CExpr::SatSub(a, b) => {
            let a = as_i64(&eval(env, locals, a));
            let b = as_i64(&eval(env, locals, b));
            int_value((a - b).max(0))
        }
        CExpr::Find {
            ms,
            to,
            kind,
            rank,
            to_field,
            kind_field,
        } => {
            let to = eval(env, locals, to);
            let kind = eval(env, locals, kind);
            let rank = as_index(&eval(env, locals, rank));
            match eval(env, locals, ms) {
                Value::Multi(items) => {
                    let found = items
                        .iter()
                        .filter(|m| match m {
                            Value::Record(fs) => fs[*to_field] == to && fs[*kind_field] == kind,
                            other => panic!("spec interpreter: `find` over {other:?}"),
                        })
                        .nth(rank)
                        .cloned();
                    Value::Opt(found.map(Box::new))
                }
                other => panic!("spec interpreter: `find` on {other:?}"),
            }
        }
        CExpr::Quantifier { quant, slot, body } => {
            let mut count = 0usize;
            for i in 0..env.spec.pids {
                locals[*slot] = Value::Pid(i as u8);
                if as_bool(eval(env, locals, body)) {
                    count += 1;
                }
            }
            match quant {
                Quant::Count => int_value(count as i64),
                Quant::Forall => Value::Bool(count == env.spec.pids),
                Quant::Exists => Value::Bool(count > 0),
            }
        }
    }
}

enum RSeg {
    Field(usize),
    Index(usize),
}

fn resolve_segs(env: &Env, locals: &mut Vec<Value>, path: &[CPath]) -> Vec<RSeg> {
    path.iter()
        .map(|p| match p {
            CPath::Field(i) => RSeg::Field(*i),
            CPath::Index(e) => RSeg::Index(as_index(&eval(env, locals, e))),
        })
        .collect()
}

fn place_mut<'a>(
    env: &'a mut Env,
    locals: &'a mut [Value],
    base: CPlaceBase,
    segs: &[RSeg],
) -> &'a mut Value {
    let mut v: &mut Value = match base {
        CPlaceBase::Global(slot) => {
            if env.ns.is_none() {
                env.ns = Some(env.cur.clone());
            }
            &mut env.ns.as_mut().expect("just materialized").vars[slot]
        }
        CPlaceBase::Local(slot) => &mut locals[slot],
    };
    for seg in segs {
        v = match (v, seg) {
            (Value::Record(fields), RSeg::Field(i)) => &mut fields[*i],
            (Value::Array(items), RSeg::Index(i)) => &mut items[*i],
            (other, _) => panic!("spec interpreter: cannot descend into {other:?}"),
        };
    }
    v
}

fn exec(
    env: &mut Env,
    locals: &mut Vec<Value>,
    stmts: &[CStmt],
    ctx: &mut dyn HoleResolver,
) -> Flow {
    for st in stmts {
        if env.blocked && !matches!(st, CStmt::Choose { .. }) {
            return Flow::Blocked;
        }
        match st {
            CStmt::Require(e) => {
                if !as_bool(eval(env, locals, e)) {
                    return Flow::Disabled;
                }
            }
            CStmt::SetLocal(slot, e) => {
                let v = eval(env, locals, e);
                locals[*slot] = v;
            }
            CStmt::Choose { local, hole } => match ctx.choose(&env.spec.holes[*hole].spec) {
                Choice::Action(i) => locals[*local] = Value::Int(i as u8),
                Choice::Wildcard => {
                    env.blocked = true;
                    locals[*local] = Value::Int(0);
                }
            },
            CStmt::Assign { place, value } => {
                let v = eval(env, locals, value);
                let segs = resolve_segs(env, locals, &place.path);
                *place_mut(env, locals, place.base, &segs) = v;
            }
            CStmt::Insert { place, value } => {
                let v = eval(env, locals, value);
                let segs = resolve_segs(env, locals, &place.path);
                match place_mut(env, locals, place.base, &segs) {
                    Value::Multi(ms) => ms.insert(v),
                    other => panic!("spec interpreter: `insert` into {other:?}"),
                }
            }
            CStmt::Remove { place, value } => {
                let v = eval(env, locals, value);
                let segs = resolve_segs(env, locals, &place.path);
                match place_mut(env, locals, place.base, &segs) {
                    Value::Multi(ms) => {
                        ms.remove(&v);
                    }
                    other => panic!("spec interpreter: `remove` from {other:?}"),
                }
            }
            CStmt::If(arms, else_) => {
                let mut taken = false;
                for (cond, body) in arms {
                    if as_bool(eval(env, locals, cond)) {
                        match exec(env, locals, body, ctx) {
                            Flow::Cont => {}
                            f => return f,
                        }
                        taken = true;
                        break;
                    }
                }
                if !taken {
                    match exec(env, locals, else_, ctx) {
                        Flow::Cont => {}
                        f => return f,
                    }
                }
            }
            CStmt::ForPids { local, body } => {
                for i in 0..env.spec.pids {
                    locals[*local] = Value::Pid(i as u8);
                    match exec(env, locals, body, ctx) {
                        Flow::Cont => {}
                        f => return f,
                    }
                }
            }
        }
    }
    Flow::Cont
}

pub(crate) fn exec_rule(
    spec: &CompiledSpec,
    rule: usize,
    cur: &SpecState,
    ctx: &mut dyn HoleResolver,
) -> RuleOutcome<SpecState> {
    let inst = &spec.rules[rule];
    let body = &spec.bodies[inst.body];
    let mut env = Env {
        spec,
        cur,
        ns: None,
        blocked: false,
    };
    let mut locals = vec![Value::Bool(false); body.nlocals];
    for (slot, v) in &inst.prelude {
        locals[*slot] = v.clone();
    }
    match exec(&mut env, &mut locals, &body.stmts, ctx) {
        Flow::Disabled => RuleOutcome::Disabled,
        Flow::Blocked => RuleOutcome::Blocked,
        Flow::Cont => {
            if env.blocked {
                RuleOutcome::Blocked
            } else {
                RuleOutcome::Next(env.ns.take().unwrap_or_else(|| cur.clone()))
            }
        }
    }
}

pub(crate) fn eval_prop(spec: &CompiledSpec, prop: usize, state: &SpecState) -> bool {
    let p = &spec.props[prop];
    let env = Env {
        spec,
        cur: state,
        ns: None,
        blocked: false,
    };
    let mut locals = vec![Value::Bool(false); p.nlocals];
    as_bool(eval(&env, &mut locals, &p.expr))
}

// ---- The model -------------------------------------------------------------

/// A [`TransitionSystem`] interpreting a compiled spec.
///
/// Rule table order, hole consultation order, property order, and (when
/// `symmetry = true`) canonical representatives all follow the document, so
/// a spec that mirrors a hand-written model reproduces its run bit for bit.
pub struct SpecModel {
    spec: Arc<CompiledSpec>,
    rules: Vec<Rule<SpecState>>,
    props: Vec<Property<SpecState>>,
}

impl SpecModel {
    pub(crate) fn new(spec: Arc<CompiledSpec>) -> Self {
        let rules = spec
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let sp = Arc::clone(&spec);
                Rule::new(
                    r.name.clone(),
                    move |s: &SpecState, ctx: &mut dyn HoleResolver| exec_rule(&sp, i, s, ctx),
                )
            })
            .collect();
        let props = spec
            .props
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let sp = Arc::clone(&spec);
                let name = p.name.clone();
                match p.kind {
                    PropKind::Invariant => {
                        Property::invariant(name, move |s: &SpecState| eval_prop(&sp, i, s))
                    }
                    PropKind::Reachable => {
                        Property::reachable(name, move |s: &SpecState| eval_prop(&sp, i, s))
                    }
                    PropKind::EventuallyQuiescent => {
                        Property::eventually_quiescent(name, move |s: &SpecState| {
                            eval_prop(&sp, i, s)
                        })
                    }
                }
            })
            .collect();
        SpecModel { spec, rules, props }
    }
}

impl std::fmt::Debug for SpecModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecModel")
            .field("name", &self.spec.name)
            .field("rules", &self.rules.len())
            .finish_non_exhaustive()
    }
}

impl TransitionSystem for SpecModel {
    type State = SpecState;

    fn name(&self) -> &str {
        &self.spec.name
    }

    fn initial_states(&self) -> Vec<SpecState> {
        vec![self.spec.initial.clone()]
    }

    fn rules(&self) -> &[Rule<SpecState>] {
        &self.rules
    }

    fn canonicalize(&self, state: SpecState) -> SpecState {
        if self.spec.symmetry {
            // Per-thread spare buffer, exactly like the hand-written models:
            // the expand hot loop canonicalizes without allocating.
            thread_local! {
                static SPARE: std::cell::RefCell<Option<SpecState>> =
                    const { std::cell::RefCell::new(None) };
            }
            SPARE
                .with(|spare| state.canonicalize_auto_with(self.spec.pids, &mut spare.borrow_mut()))
        } else {
            state
        }
    }

    fn properties(&self) -> &[Property<SpecState>] {
        &self.props
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolSpec;
    use verc3_mck::FixedResolver;

    const COUNTER: &str = r#"
[protocol]
name = "counter"
pids = 2
symmetry = false

[consts]
CAP = 4

[vars]
count = "int"
winner = "option<pid>"

[libs]
step = ["one", "two"]

[[hole]]
name = "inc"
lib = "step"

[[rule]]
name = "bump"
body = """
require count < CAP;
choose a = hole("inc");
if a == step.one { count = count + 1; }
else { count = count + 2; }
"""

[[rule]]
name = "claim"
body = """
require count >= CAP && is_none(winner);
winner = some(DIR);
"""

[[rule]]
name = "idle"
body = "require count == 0;"

[[property]]
kind = "invariant"
name = "bounded"
expr = "count <= CAP + 1"

[[property]]
kind = "reachable"
name = "someone wins"
expr = "is_some(winner)"
"#;

    fn rule_outcome(
        model: &SpecModel,
        name: &str,
        s: &SpecState,
        ctx: &mut dyn HoleResolver,
    ) -> RuleOutcome<SpecState> {
        let rule = model
            .rules()
            .iter()
            .find(|r| r.name() == name)
            .unwrap_or_else(|| panic!("rule {name} exists"));
        rule.apply(s, ctx)
    }

    #[test]
    fn counter_spec_executes() {
        let spec = ProtocolSpec::from_toml_str(COUNTER).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        assert_eq!(init.vars, vec![Value::Int(0), Value::Opt(None)]);

        // Unassigned hole → Blocked; `idle` fires as a self-loop.
        let mut unassigned = FixedResolver::new();
        assert_eq!(
            rule_outcome(&model, "bump", &init, &mut unassigned),
            RuleOutcome::Blocked
        );
        assert_eq!(
            rule_outcome(&model, "idle", &init, &mut unassigned),
            RuleOutcome::Next(init.clone())
        );

        // Assigned hole → steps by two.
        let mut two = FixedResolver::new();
        two.assign("inc", 1);
        let RuleOutcome::Next(next) = rule_outcome(&model, "bump", &init, &mut two) else {
            panic!("bump fires");
        };
        assert_eq!(next.vars[0], Value::Int(2));
        // `claim` is disabled until the counter saturates.
        assert_eq!(
            rule_outcome(&model, "claim", &next, &mut two),
            RuleOutcome::Disabled
        );
        let RuleOutcome::Next(n2) = rule_outcome(&model, "bump", &next, &mut two) else {
            panic!("bump fires");
        };
        let RuleOutcome::Next(n3) = rule_outcome(&model, "claim", &n2, &mut two) else {
            panic!("claim fires");
        };
        assert_eq!(n3.vars[1], Value::Opt(Some(Box::new(Value::Pid(2)))));

        // Properties evaluate.
        let props = model.properties();
        assert_eq!(props.len(), 2);
        assert_eq!(props[0].name(), "bounded");
    }

    #[test]
    fn rejects_unknown_names_and_types() {
        let bad_var = COUNTER.replace("count = count + 1;", "missing = 1;");
        assert!(matches!(
            ProtocolSpec::from_toml_str(&bad_var),
            Err(InvalidSpec::UnknownName { name, .. }) if name == "missing"
        ));

        let bad_hole = COUNTER.replace("hole(\"inc\")", "hole(\"nope\")");
        assert!(matches!(
            ProtocolSpec::from_toml_str(&bad_hole),
            Err(InvalidSpec::UnknownName { name, .. }) if name == "nope"
        ));

        let bad_type = COUNTER.replace("require count == 0;", "require count == true;");
        assert!(matches!(
            ProtocolSpec::from_toml_str(&bad_type),
            Err(InvalidSpec::Type { .. })
        ));
    }

    #[test]
    fn ruleset_expansion_is_binder_outer_rule_inner() {
        let src = r#"
[protocol]
name = "expansion"
pids = 2
symmetry = false

[enums]
Kind = ["A", "B"]

[vars]
x = "int"

[[ruleset]]
binds = ["c: pid", "k: Kind in [B, A]"]

[[ruleset.rule]]
name = "r[{c}]:{k}"
body = "require x == 0;"

[[property]]
kind = "invariant"
name = "trivial"
expr = "true"
"#;
        let spec = ProtocolSpec::from_toml_str(src).expect("loads");
        let names: Vec<String> = spec
            .model()
            .rules()
            .iter()
            .map(|r| r.name().to_string())
            .collect();
        assert_eq!(names, vec!["r[0]:B", "r[0]:A", "r[1]:B", "r[1]:A"]);
    }

    #[test]
    fn fn_inlining_and_quantifiers_work() {
        let src = r#"
[protocol]
name = "fns"
pids = 3
symmetry = false

[records.Cell]
fields = ["v: int"]

[vars]
cells = "array[pid] of Cell"
total = "int"

[[fn]]
name = "put"
params = ["p: pid", "x: int"]
body = "cells[p].v = x; total = total + x;"

[[fn]]
name = "loaded"
params = ["p: pid"]
expr = "cells[p].v > 0"

[[rule]]
name = "fill"
body = """
require !loaded(0 + 0 == 0 && false || cells[0].v == 0 && true);
"""

[[rule]]
name = "seed"
body = """
require cells[0].v == 0;
put(0, 2);
put(1, 3);
"""

[[property]]
kind = "invariant"
name = "sum matches"
expr = "total == count(p, loaded(p)) + count(q, cells[q].v > 1) + sat_sub(total, 5)"
"#;
        // `loaded` takes a pid; the first rule feeds it a bool to prove the
        // type error surfaces through substitution.
        assert!(matches!(
            ProtocolSpec::from_toml_str(src),
            Err(InvalidSpec::Type { .. })
        ));

        let src = src.replace(
            "require !loaded(0 + 0 == 0 && false || cells[0].v == 0 && true);",
            "require !loaded(DIR);",
        );
        // DIR is a pid, but indexes out of bounds only if evaluated — and
        // compile must accept it. Runtime would panic; we never fire it.
        let spec = ProtocolSpec::from_toml_str(&src).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        let seed = model
            .rules()
            .iter()
            .find(|r| r.name() == "seed")
            .expect("seed exists");
        let RuleOutcome::Next(next) = seed.apply(&init, &mut verc3_mck::NoHoles) else {
            panic!("seed fires");
        };
        assert_eq!(
            next.vars[0],
            Value::Array(vec![
                Value::Record(vec![Value::Int(2)]),
                Value::Record(vec![Value::Int(3)]),
                Value::Record(vec![Value::Int(0)]),
            ])
        );
        assert_eq!(next.vars[1], Value::Int(5));
        // total(5) == loaded-count(2) + >1-count(2) + sat_sub(5,5)=0 → false;
        // on the initial state 0 == 0 + 0 + 0 → true.
        assert!(eval_prop(&spec.compiled, 0, &init));
        assert!(!eval_prop(&spec.compiled, 0, &next));
    }

    #[test]
    fn multiset_find_insert_remove_roundtrip() {
        let src = r#"
[protocol]
name = "netty"
pids = 2
symmetry = false

[enums]
Kind = ["Ping", "Pong"]

[records.Msg]
fields = ["kind: Kind", "to: pid", "req: pid"]

[vars]
net = "multiset<Msg>"
done = "bool"

[[rule]]
name = "send"
body = """
require len(net) == 0;
insert(net, Msg(Kind.Ping, 1, 0));
insert(net, Msg(Kind.Ping, 1, 1));
"""

[[rule]]
name = "recv"
body = """
let mo = find(net, 1, Kind.Ping, 1);
require is_some(mo);
let m = get(mo);
remove(net, m);
done = true;
"""

[[property]]
kind = "invariant"
name = "cap"
expr = "len(net) <= 2"
"#;
        let spec = ProtocolSpec::from_toml_str(src).expect("loads");
        let model = spec.model();
        let init = model.initial_states().remove(0);
        let apply = |name: &str, s: &SpecState| {
            model
                .rules()
                .iter()
                .find(|r| r.name() == name)
                .expect("rule exists")
                .apply(s, &mut verc3_mck::NoHoles)
        };
        assert_eq!(apply("recv", &init), RuleOutcome::Disabled);
        let RuleOutcome::Next(sent) = apply("send", &init) else {
            panic!("send fires");
        };
        let Value::Multi(net) = &sent.vars[0] else {
            panic!("net is a multiset");
        };
        assert_eq!(net.len(), 2);
        // rank 1 selects the second matching message in canonical order
        // (req = 1, since Msg sorts by kind, to, req).
        let RuleOutcome::Next(recvd) = apply("recv", &sent) else {
            panic!("recv fires");
        };
        let Value::Multi(net) = &recvd.vars[0] else {
            panic!("net is a multiset");
        };
        assert_eq!(net.len(), 1);
        assert_eq!(
            net.iter().next(),
            Some(&Value::Record(vec![
                Value::Enum(0, 0),
                Value::Pid(1),
                Value::Pid(0)
            ]))
        );
    }
}
