//! NIR optimizer passes — the reproduction's analogue of the external C
//! compiler's work (the `-O3`-ish part of Table 1/Table 2).
//!
//! Passes:
//! * **const-fold + copy-propagation** (per basic block, linear in the
//!   block): replaces arithmetic on known constants and forwards `Mov`
//!   chains;
//! * **dead-code elimination**: removes pure instructions whose results
//!   are never used (whole-function liveness);
//! * **function inlining**: splices small callees into their callers. The
//!   coding rules forbid recursion, so inlining always terminates. This
//!   pass is what distinguishes the *Template w/o virt.* series from the
//!   plain WootinJ pipeline in our reproduction.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jlang::ast::BinOp;
use jlang::types::PrimKind;

use crate::ir::{FuncId, FuncKind, Function, Instr, Program, Reg};

/// Optimizer configuration; maps onto the compiler-option rows of
/// Tables 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptConfig {
    pub const_fold: bool,
    pub copy_prop: bool,
    pub dce: bool,
    /// Inline callees with at most this many instructions (0 = off).
    pub inline_limit: usize,
    /// Scalar replacement of non-escaping heap objects (models C++ value
    /// semantics for temporaries — the *Template* baseline's stack
    /// objects).
    pub sroa: bool,
}

impl OptConfig {
    /// Everything on, no inlining (the standard WootinJ pipeline).
    pub fn standard() -> Self {
        OptConfig {
            const_fold: true,
            copy_prop: true,
            dce: true,
            inline_limit: 0,
            sroa: false,
        }
    }

    /// Everything on plus function inlining and scalar replacement — what
    /// an optimizing C++ compiler does to template code (the *Template* /
    /// *Template w/o virt.* series).
    pub fn aggressive() -> Self {
        OptConfig {
            const_fold: true,
            copy_prop: true,
            dce: true,
            inline_limit: 64,
            sroa: true,
        }
    }

    /// All passes off (`-O0`).
    pub fn none() -> Self {
        OptConfig {
            const_fold: false,
            copy_prop: false,
            dce: false,
            inline_limit: 0,
            sroa: false,
        }
    }
}

/// Wall time and instruction-count effect of one optimizer pass,
/// accumulated over every function it visited. This is what lets Table 3's
/// compile-time column be decomposed by pipeline stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassProfile {
    pub pass: &'static str,
    pub wall: Duration,
    /// Total instructions in the functions the pass visited, before/after.
    pub instrs_before: u64,
    pub instrs_after: u64,
}

impl PassProfile {
    fn record<T, R>(
        pass: &'static str,
        target: &mut T,
        instrs: fn(&T) -> u64,
        body: impl FnOnce(&mut T) -> R,
    ) -> (Self, R) {
        let instrs_before = instrs(target);
        let start = Instant::now();
        let out = body(target);
        let wall = start.elapsed();
        (
            PassProfile {
                pass,
                wall,
                instrs_before,
                instrs_after: instrs(target),
            },
            out,
        )
    }
}

/// Run the configured passes over the whole program. Returns one
/// [`PassProfile`] per pass that actually ran, in execution order (the
/// fold/dce/sroa entries aggregate all per-function applications,
/// including the post-SROA cleanup round).
pub fn optimize(program: &mut Program, config: OptConfig) -> Vec<PassProfile> {
    let mut profiles = Vec::new();
    if config.inline_limit > 0 {
        let (p, ()) = PassProfile::record(
            "inline",
            program,
            |p| p.instr_count() as u64,
            |p| inline_functions(p, config.inline_limit),
        );
        profiles.push(p);
    }
    let mut fold_p = PassProfile {
        pass: "fold",
        ..Default::default()
    };
    let mut dce_p = PassProfile {
        pass: "dce",
        ..Default::default()
    };
    let mut sroa_p = PassProfile {
        pass: "sroa",
        ..Default::default()
    };
    for f in &mut program.funcs {
        let f = Arc::make_mut(f);
        optimize_fn_into(f, config, &mut fold_p, &mut dce_p, &mut sroa_p);
    }
    for p in [fold_p, dce_p, sroa_p] {
        if p.instrs_before > 0 || p.instrs_after > 0 {
            profiles.push(p);
        }
    }
    profiles
}

/// Run the local (per-function) passes over one function. This is the
/// loop body of [`optimize`]: for configurations without inlining
/// (`inline_limit == 0`) applying it to every function is *exactly*
/// whole-program optimization, which is what lets the incremental query
/// layer optimize only freshly lowered functions and reuse memoized,
/// already-optimized ones. Returns the per-pass profiles that ran.
pub fn optimize_fn(f: &mut Function, config: OptConfig) -> Vec<PassProfile> {
    let mut fold_p = PassProfile {
        pass: "fold",
        ..Default::default()
    };
    let mut dce_p = PassProfile {
        pass: "dce",
        ..Default::default()
    };
    let mut sroa_p = PassProfile {
        pass: "sroa",
        ..Default::default()
    };
    optimize_fn_into(f, config, &mut fold_p, &mut dce_p, &mut sroa_p);
    [fold_p, dce_p, sroa_p]
        .into_iter()
        .filter(|p| p.instrs_before > 0 || p.instrs_after > 0)
        .collect()
}

/// Canonical pipeline order of the optimizer passes — the order
/// [`optimize`] executes (and reports) them in.
pub const PASS_ORDER: [&str; 4] = ["inline", "fold", "dce", "sroa"];

/// Deterministically aggregate pass profiles collected out of order —
/// per-function profiles from parallel lowering, or per-thread shards:
/// one entry per pass name, durations and instruction counts summed,
/// sorted into canonical [`PASS_ORDER`], zero-work passes dropped.
/// Feeding it the per-function profiles of every function yields
/// exactly the aggregation [`optimize`] computes serially (wall times
/// are summed the same way; only their values reflect the measuring
/// thread), so `repro pass-profile` output is order-stable no matter
/// who optimized which function.
pub fn merge_profiles(parts: impl IntoIterator<Item = PassProfile>) -> Vec<PassProfile> {
    let mut merged: Vec<PassProfile> = Vec::new();
    for p in parts {
        match merged.iter_mut().find(|m| m.pass == p.pass) {
            Some(m) => {
                m.wall += p.wall;
                m.instrs_before += p.instrs_before;
                m.instrs_after += p.instrs_after;
            }
            None => merged.push(p),
        }
    }
    merged.sort_by_key(|p| {
        PASS_ORDER
            .iter()
            .position(|&n| n == p.pass)
            .unwrap_or(PASS_ORDER.len())
    });
    merged.retain(|p| p.instrs_before > 0 || p.instrs_after > 0);
    merged
}

fn optimize_fn_into(
    f: &mut Function,
    config: OptConfig,
    fold_p: &mut PassProfile,
    dce_p: &mut PassProfile,
    sroa_p: &mut PassProfile,
) {
    let accumulate =
        |acc: &mut PassProfile, f: &mut Function, body: fn(&mut Function, OptConfig), config| {
            let (p, ()) =
                PassProfile::record(acc.pass, f, |f| f.code.len() as u64, |f| body(f, config));
            acc.wall += p.wall;
            acc.instrs_before += p.instrs_before;
            acc.instrs_after += p.instrs_after;
        };
    // First round: propagate copies so that inline-call argument
    // aliases dissolve, then drop the dead moves...
    if config.const_fold || config.copy_prop {
        accumulate(fold_p, f, local_fold, config);
    }
    if config.dce {
        accumulate(dce_p, f, |f, _| dce(f), config);
    }
    // ...so scalar replacement sees unaliased temporaries.
    if config.sroa {
        accumulate(sroa_p, f, |f, _| sroa(f), config);
        if config.const_fold || config.copy_prop {
            accumulate(fold_p, f, local_fold, config);
        }
        if config.dce {
            accumulate(dce_p, f, |f, _| dce(f), config);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Known {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    Bool(bool),
    /// Copy of another register.
    Copy(Reg),
}

/// What [`local_fold`] knows about each register at the current
/// instruction, with every update costing what it touches rather than
/// what has been recorded so far.
struct Facts {
    /// By register; `None` is "nothing known".
    known: Vec<Option<Known>>,
    /// Registers given a fact since the last block leader, so that
    /// starting a block costs what the previous one recorded, not
    /// `regs.len()`.
    recorded: Vec<Reg>,
    /// By register `r`: newest entry of `copy_links` naming a register
    /// recorded as `Copy(r)` ([`NO_LINK`] when none).
    copy_head: Vec<u32>,
    /// `(holder, older entry)`. Entries are never removed when the
    /// holder's fact changes or a block ends: [`Facts::written`] checks
    /// each one against `known` when it consumes the list, so a stale
    /// entry costs one comparison and forgets nothing.
    copy_links: Vec<(Reg, u32)>,
}

const NO_LINK: u32 = u32::MAX;

impl Facts {
    fn new(regs: usize) -> Self {
        Facts {
            known: vec![None; regs],
            recorded: Vec::new(),
            copy_head: vec![NO_LINK; regs],
            copy_links: Vec::new(),
        }
    }

    fn start_block(&mut self) {
        for r in self.recorded.drain(..) {
            self.known[r as usize] = None;
        }
    }

    /// Follow recorded copies from `r` to the register it stands for.
    fn resolve(&self, r: Reg) -> Reg {
        let mut cur = r;
        let mut hops = 0;
        while let Some(Known::Copy(s)) = self.known[cur as usize] {
            cur = s;
            hops += 1;
            if hops > 32 {
                break;
            }
        }
        cur
    }

    fn const_of(&self, r: Reg) -> Option<Known> {
        match self.known[r as usize]? {
            Known::Copy(s) => self.const_of(s),
            k => Some(k),
        }
    }

    /// `d` was just written and now holds `fact`.
    fn record(&mut self, d: Reg, fact: Known) {
        self.known[d as usize] = Some(fact);
        self.recorded.push(d);
        if let Known::Copy(s) = fact {
            self.copy_links.push((d, self.copy_head[s as usize]));
            self.copy_head[s as usize] = self.copy_links.len() as u32 - 1;
        }
        self.written(d);
    }

    /// `d` was just written with a value nothing is known about.
    fn forget(&mut self, d: Reg) {
        self.known[d as usize] = None;
        self.written(d);
    }

    /// `d` was just written: every register still recorded as a copy of
    /// it stops being one. That includes `d` itself when the write was
    /// `Mov(d, s)` with `s` a copy of `d` — [`Facts::record`] links
    /// before calling this, so the self-copy is forgotten here too.
    fn written(&mut self, d: Reg) {
        let mut link = std::mem::replace(&mut self.copy_head[d as usize], NO_LINK);
        while link != NO_LINK {
            let (holder, older) = self.copy_links[link as usize];
            if matches!(self.known[holder as usize], Some(Known::Copy(s)) if s == d) {
                self.known[holder as usize] = None;
            }
            link = older;
        }
    }
}

/// Per-basic-block constant folding and copy propagation. Linear in the
/// block: facts live in a table indexed by register ([`Facts`]), and no
/// step scans what the block has recorded so far.
#[allow(clippy::needless_range_loop)] // `pc` indexes both code and leader
fn local_fold(f: &mut Function, config: OptConfig) {
    // Block leaders: entry, jump targets, and instructions after terminators.
    let mut leader = vec![false; f.code.len() + 1];
    leader[0] = true;
    for (pc, ins) in f.code.iter().enumerate() {
        match ins {
            Instr::Jmp(t) => {
                leader[*t as usize] = true;
                leader[pc + 1] = true;
            }
            Instr::Br { t, f: fl, .. } => {
                leader[*t as usize] = true;
                leader[*fl as usize] = true;
                leader[pc + 1] = true;
            }
            Instr::Ret(_) => {
                leader[pc + 1] = true;
            }
            _ => {}
        }
    }

    let mut facts = Facts::new(f.regs.len());
    for pc in 0..f.code.len() {
        if leader[pc] {
            facts.start_block();
        }
        // Resolve copies in sources first.
        if config.copy_prop {
            f.code[pc].for_each_source_mut(|r| *r = facts.resolve(*r));
        }

        if config.const_fold {
            // Try folding a binary op or a cast on known constants.
            let folded = match &f.code[pc] {
                Instr::Bin {
                    op,
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => match (facts.const_of(*lhs), facts.const_of(*rhs)) {
                    (Some(l), Some(r)) => fold_bin(*op, *kind, l, r, *dst),
                    _ => None,
                },
                Instr::Cast { to, dst, src, .. } => {
                    facts.const_of(*src).and_then(|v| fold_cast(*to, v, *dst))
                }
                _ => None,
            };
            if let Some(folded) = folded {
                f.code[pc] = folded;
            }
        }

        // Update the facts from the (possibly rewritten) instruction.
        match &f.code[pc] {
            Instr::ConstI32(d, v) => facts.record(*d, Known::I32(*v)),
            Instr::ConstI64(d, v) => facts.record(*d, Known::I64(*v)),
            Instr::ConstF32(d, v) => facts.record(*d, Known::F32(*v)),
            Instr::ConstF64(d, v) => facts.record(*d, Known::F64(*v)),
            Instr::ConstBool(d, v) => facts.record(*d, Known::Bool(*v)),
            Instr::Mov(d, s) => {
                if d != s {
                    let fact = facts.known[*s as usize].unwrap_or(Known::Copy(*s));
                    facts.record(*d, fact);
                }
            }
            other => {
                if let Some(d) = other.dst() {
                    facts.forget(d);
                }
            }
        }
    }
}

fn fold_bin(op: BinOp, kind: PrimKind, l: Known, r: Known, dst: Reg) -> Option<Instr> {
    use BinOp::*;
    match kind {
        PrimKind::Int => {
            let (Known::I32(a), Known::I32(b)) = (l, r) else {
                return None;
            };
            Some(match op {
                Add => Instr::ConstI32(dst, a.wrapping_add(b)),
                Sub => Instr::ConstI32(dst, a.wrapping_sub(b)),
                Mul => Instr::ConstI32(dst, a.wrapping_mul(b)),
                Div if b != 0 => Instr::ConstI32(dst, a.wrapping_div(b)),
                Rem if b != 0 => Instr::ConstI32(dst, a.wrapping_rem(b)),
                Lt => Instr::ConstBool(dst, a < b),
                Le => Instr::ConstBool(dst, a <= b),
                Gt => Instr::ConstBool(dst, a > b),
                Ge => Instr::ConstBool(dst, a >= b),
                Eq => Instr::ConstBool(dst, a == b),
                Ne => Instr::ConstBool(dst, a != b),
                Shl => Instr::ConstI32(dst, a.wrapping_shl(b as u32 & 31)),
                Shr => Instr::ConstI32(dst, a.wrapping_shr(b as u32 & 31)),
                BitAnd => Instr::ConstI32(dst, a & b),
                BitOr => Instr::ConstI32(dst, a | b),
                BitXor => Instr::ConstI32(dst, a ^ b),
                _ => return None,
            })
        }
        PrimKind::Long => {
            let (Known::I64(a), Known::I64(b)) = (l, r) else {
                return None;
            };
            Some(match op {
                Add => Instr::ConstI64(dst, a.wrapping_add(b)),
                Sub => Instr::ConstI64(dst, a.wrapping_sub(b)),
                Mul => Instr::ConstI64(dst, a.wrapping_mul(b)),
                Lt => Instr::ConstBool(dst, a < b),
                Eq => Instr::ConstBool(dst, a == b),
                _ => return None,
            })
        }
        PrimKind::Float => {
            let (Known::F32(a), Known::F32(b)) = (l, r) else {
                return None;
            };
            Some(match op {
                Add => Instr::ConstF32(dst, a + b),
                Sub => Instr::ConstF32(dst, a - b),
                Mul => Instr::ConstF32(dst, a * b),
                Div => Instr::ConstF32(dst, a / b),
                Lt => Instr::ConstBool(dst, a < b),
                _ => return None,
            })
        }
        PrimKind::Double => {
            let (Known::F64(a), Known::F64(b)) = (l, r) else {
                return None;
            };
            Some(match op {
                Add => Instr::ConstF64(dst, a + b),
                Sub => Instr::ConstF64(dst, a - b),
                Mul => Instr::ConstF64(dst, a * b),
                Div => Instr::ConstF64(dst, a / b),
                Lt => Instr::ConstBool(dst, a < b),
                _ => return None,
            })
        }
        PrimKind::Boolean => {
            let (Known::Bool(a), Known::Bool(b)) = (l, r) else {
                return None;
            };
            Some(match op {
                Eq => Instr::ConstBool(dst, a == b),
                Ne => Instr::ConstBool(dst, a != b),
                And => Instr::ConstBool(dst, a && b),
                Or => Instr::ConstBool(dst, a || b),
                _ => return None,
            })
        }
    }
}

fn fold_cast(to: PrimKind, v: Known, dst: Reg) -> Option<Instr> {
    let as_f64 = match v {
        Known::I32(x) => x as f64,
        Known::I64(x) => x as f64,
        Known::F32(x) => x as f64,
        Known::F64(x) => x,
        Known::Bool(_) | Known::Copy(_) => return None,
    };
    Some(match to {
        PrimKind::Int => Instr::ConstI32(
            dst,
            match v {
                Known::I32(x) => x,
                Known::I64(x) => x as i32,
                Known::F32(x) => x as i32,
                Known::F64(x) => x as i32,
                _ => return None,
            },
        ),
        PrimKind::Long => Instr::ConstI64(
            dst,
            match v {
                Known::I32(x) => x as i64,
                Known::I64(x) => x,
                Known::F32(x) => x as i64,
                Known::F64(x) => x as i64,
                _ => return None,
            },
        ),
        PrimKind::Float => Instr::ConstF32(dst, as_f64 as f32),
        PrimKind::Double => Instr::ConstF64(dst, as_f64),
        PrimKind::Boolean => return None,
    })
}

/// Whole-function liveness-based dead code elimination. Instructions with
/// side effects are kept; pure instructions whose destination is never
/// read afterwards are dropped with jump-target remapping.
fn dce(f: &mut Function) {
    // The keep-set is the least fixed point of "kept if effectful, or if
    // it defines a register some kept instruction reads" (flow-
    // insensitive). Liveness spreads from the effectful roots along a
    // worklist over each register's pure definitions, visiting every
    // instruction at most once.
    //
    // An instruction writes at most one register, so the definitions of a
    // register are a list threaded through the instructions themselves:
    // `last_def[r]` is its newest pure definition, `prev_def[i]` the one
    // before instruction `i`.
    const NONE: u32 = u32::MAX;
    let mut keep = vec![false; f.code.len()];
    let mut last_def = vec![NONE; f.regs.len()];
    let mut prev_def = vec![NONE; f.code.len()];
    let mut work = Vec::new();
    for (i, ins) in f.code.iter().enumerate() {
        // Self-moves are pure no-ops (SROA leaves them for pc alignment).
        if matches!(ins, Instr::Mov(d, s) if d == s) {
            continue;
        }
        match ins.dst() {
            Some(d) if !ins.has_side_effects() => {
                prev_def[i] = std::mem::replace(&mut last_def[d as usize], i as u32);
            }
            _ => {
                keep[i] = true;
                work.push(i);
            }
        }
    }
    while let Some(i) = work.pop() {
        f.code[i].for_each_source(|s| {
            // Every definition of a read register becomes live, once.
            let mut d = std::mem::replace(&mut last_def[s as usize], NONE);
            while d != NONE {
                keep[d as usize] = true;
                work.push(d as usize);
                d = prev_def[d as usize];
            }
        });
    }
    if keep.iter().all(|k| *k) {
        return;
    }
    // Rebuild code with remapped jump targets.
    let mut new_pc = vec![0u32; f.code.len() + 1];
    let mut cur = 0u32;
    for i in 0..f.code.len() {
        new_pc[i] = cur;
        if keep[i] {
            cur += 1;
        }
    }
    new_pc[f.code.len()] = cur;
    let old = std::mem::take(&mut f.code);
    for (i, mut ins) in old.into_iter().enumerate() {
        if !keep[i] {
            continue;
        }
        match &mut ins {
            Instr::Jmp(t) => *t = new_pc[*t as usize],
            Instr::Br { t, f: fl, .. } => {
                *t = new_pc[*t as usize];
                *fl = new_pc[*fl as usize];
            }
            _ => {}
        }
        f.code.push(ins);
    }
    // Dropping trailing instructions can leave a fall-through; re-terminate.
    match f.code.last() {
        Some(Instr::Ret(_)) => {}
        _ => f.code.push(Instr::Ret(None)),
    }
    // A former jump-to-end may now target the appended Ret exactly; fix
    // any target still equal to the pre-append length.
    let len = (f.code.len() - 1) as u32;
    for ins in &mut f.code {
        match ins {
            Instr::Jmp(t) if *t > len => *t = len,
            Instr::Br { t, f: fl, .. } => {
                if *t > len {
                    *t = len;
                }
                if *fl > len {
                    *fl = len;
                }
            }
            _ => {}
        }
    }
}

/// Scalar replacement of aggregates: a heap object that is allocated in
/// this function and only ever used as the direct receiver of
/// `GetField`/`PutField` — possibly through single-assignment `Mov`
/// aliases (inlined call arguments) — is replaced by one register per
/// field slot. The translator's inlined constructors initialize every
/// slot at the allocation site, so every read is dominated by a write.
fn sroa(f: &mut Function) {
    use std::collections::HashSet;

    // Write counts per register (to validate single-assignment aliases).
    let mut writes: HashMap<Reg, u32> = HashMap::new();
    for ins in &f.code {
        if let Some(d) = ins.dst() {
            *writes.entry(d).or_insert(0) += 1;
        }
    }

    // Candidate roots: NewObj destinations (single class per register).
    let mut class_of: HashMap<Reg, u32> = HashMap::new();
    let mut bad: HashSet<Reg> = HashSet::new();
    for ins in &f.code {
        if let Instr::NewObj { class, dst } = ins {
            match class_of.get(dst) {
                Some(c) if c != class => {
                    bad.insert(*dst);
                }
                _ => {
                    class_of.insert(*dst, *class);
                }
            }
        }
    }

    // Alias closure: a register written exactly once, by `Mov` from a
    // root or alias, denotes the same object.
    let mut root: HashMap<Reg, Reg> = HashMap::new();
    for &r in class_of.keys() {
        root.insert(r, r);
    }
    // Iterate to a fixed point (alias chains may appear in any order).
    loop {
        let mut changed = false;
        for ins in &f.code {
            if let Instr::Mov(d, src) = ins {
                if d == src {
                    continue;
                }
                if let Some(&r) = root.get(src) {
                    if writes.get(d) == Some(&1) && !root.contains_key(d) {
                        root.insert(*d, r);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Escape analysis: any use of a root/alias other than GetField/
    // PutField receiver or an alias-forming Mov disqualifies the object.
    for ins in &f.code {
        match ins {
            Instr::GetField { obj, dst, .. } => {
                // Receiver use is fine; loading a handle *into* a tracked
                // register would break the alias map.
                let _ = obj;
                if root.contains_key(dst) {
                    if let Some(&r) = root.get(dst) {
                        bad.insert(r);
                    }
                }
            }
            Instr::PutField { obj: _, src, .. } => {
                if let Some(&r) = root.get(src) {
                    bad.insert(r); // handle stored into another object
                }
            }
            Instr::Mov(d, src) => {
                // Alias-forming moves are fine; a move into a multiply
                // written register escapes the object.
                if let Some(&r) = root.get(src) {
                    if root.get(d) != Some(&r) {
                        bad.insert(r);
                    }
                }
            }
            Instr::NewObj { dst, .. } => {
                // Reallocation into an *alias* (not a root) is not handled.
                if let Some(&r) = root.get(dst) {
                    if r != *dst {
                        bad.insert(r);
                    }
                }
            }
            other => {
                other.for_each_source(|u| {
                    if let Some(&r) = root.get(&u) {
                        bad.insert(r);
                    }
                });
                if let Some(d) = other.dst() {
                    if let Some(&r) = root.get(&d) {
                        bad.insert(r);
                    }
                }
            }
        }
    }
    root.retain(|_, r| !bad.contains(r) && class_of.contains_key(r));
    if root.is_empty() {
        return;
    }

    // Slot register types, inferred from accesses.
    let mut slot_ty: HashMap<(Reg, u32), crate::ir::Ty> = HashMap::new();
    for ins in &f.code {
        match ins {
            Instr::PutField { obj, slot, src } => {
                if let Some(&r) = root.get(obj) {
                    slot_ty.entry((r, *slot)).or_insert(f.regs[*src as usize]);
                }
            }
            Instr::GetField { obj, slot, dst } => {
                if let Some(&r) = root.get(obj) {
                    slot_ty.entry((r, *slot)).or_insert(f.regs[*dst as usize]);
                }
            }
            _ => {}
        }
    }

    // Rewrite.
    let mut slot_regs: HashMap<(Reg, u32), Reg> = HashMap::new();
    let old = std::mem::take(&mut f.code);
    for ins in old {
        match ins {
            Instr::NewObj { dst, .. } if root.get(&dst) == Some(&dst) => {
                f.code.push(Instr::Mov(dst, dst)); // keeps pc alignment; DCE removes
            }
            Instr::Mov(d, src) if root.contains_key(&src) && root.get(&d) == root.get(&src) => {
                f.code.push(Instr::Mov(d, d));
            }
            Instr::PutField { obj, slot, src } if root.contains_key(&obj) => {
                let r = root[&obj];
                let ty = slot_ty[&(r, slot)];
                let sr = *slot_regs.entry((r, slot)).or_insert_with(|| {
                    f.regs.push(ty);
                    f.regs.len() as Reg - 1
                });
                f.code.push(Instr::Mov(sr, src));
            }
            Instr::GetField { obj, slot, dst } if root.contains_key(&obj) => {
                let r = root[&obj];
                let ty = slot_ty[&(r, slot)];
                let sr = *slot_regs.entry((r, slot)).or_insert_with(|| {
                    f.regs.push(ty);
                    f.regs.len() as Reg - 1
                });
                f.code.push(Instr::Mov(dst, sr));
            }
            other => f.code.push(other),
        }
    }
}

/// Inline calls to small functions. Because the coding rules forbid
/// recursion, repeated application terminates; we run to a fixed point
/// with a global budget.
fn inline_functions(program: &mut Program, limit: usize) {
    let mut budget = 10_000usize;
    loop {
        let mut did = false;
        for fi in 0..program.funcs.len() {
            // Find an inlinable call site.
            let site = program.funcs[fi].code.iter().position(|ins| {
                if let Instr::Call { func, .. } = ins {
                    let callee = &program.funcs[func.0 as usize];
                    let caller_kind = program.funcs[fi].kind;
                    func.0 as usize != fi
                        && callee.code.len() <= limit
                        && (callee.kind == caller_kind
                            || (caller_kind == FuncKind::Kernel && callee.kind == FuncKind::Device))
                } else {
                    false
                }
            });
            let Some(pc) = site else { continue };
            let (callee_id, args, dst) = match &program.funcs[fi].code[pc] {
                Instr::Call { func, args, dst } => (*func, args.clone(), *dst),
                _ => unreachable!(),
            };
            let callee = Arc::clone(&program.funcs[callee_id.0 as usize]);
            inline_at(program.func_mut(FuncId(fi as u32)), pc, &callee, &args, dst);
            did = true;
            budget = budget.saturating_sub(1);
            if budget == 0 {
                return;
            }
        }
        if !did {
            return;
        }
    }
}

/// Splice `callee` into `caller` at call site `pc`.
fn inline_at(caller: &mut Function, pc: usize, callee: &Function, args: &[Reg], dst: Option<Reg>) {
    let reg_base = caller.regs.len() as Reg;
    caller.regs.extend(callee.regs.iter().copied());

    // Build the inlined body: param moves, remapped code, returns become
    // moves + jumps to the continuation.
    let mut body: Vec<Instr> = Vec::with_capacity(callee.code.len() + args.len() + 1);
    for (i, a) in args.iter().enumerate() {
        body.push(Instr::Mov(reg_base + i as Reg, *a));
    }
    let code_offset = pc as u32 + args.len() as u32; // where remapped callee pc 0 lands
    let map_target = |t: u32| -> u32 { t + code_offset };
    // Continuation pc (after the spliced body) is computed later; first
    // emit with a placeholder and fix up.
    const CONT: u32 = u32::MAX - 1;
    for ins in &callee.code {
        let mut ins = ins.clone();
        // Remap registers.
        remap_regs(&mut ins, reg_base);
        match ins {
            Instr::Ret(Some(r)) => {
                if let Some(d) = dst {
                    body.push(Instr::Mov(d, r));
                }
                body.push(Instr::Jmp(CONT));
            }
            Instr::Ret(None) => {
                body.push(Instr::Jmp(CONT));
            }
            Instr::Jmp(t) => body.push(Instr::Jmp(map_target(t))),
            Instr::Br { cond, t, f } => body.push(Instr::Br {
                cond,
                t: map_target(t),
                f: map_target(f),
            }),
            other => body.push(other),
        }
    }
    let body_len = body.len() as u32;
    // Shift: the single Call instruction is replaced by body_len instrs.
    let delta = body_len as i64 - 1;
    let cont_pc = pc as u32 + body_len;
    for ins in &mut body {
        match ins {
            Instr::Jmp(t) if *t == CONT => *t = cont_pc,
            Instr::Br { t, f, .. } => {
                if *t == CONT {
                    *t = cont_pc;
                }
                if *f == CONT {
                    *f = cont_pc;
                }
            }
            _ => {}
        }
    }
    // Remap all existing jump targets in the caller that point past `pc`.
    for ins in caller.code.iter_mut() {
        match ins {
            Instr::Jmp(t) if *t as usize > pc => {
                *t = (*t as i64 + delta) as u32;
            }
            Instr::Br { t, f, .. } => {
                if *t as usize > pc {
                    *t = (*t as i64 + delta) as u32;
                }
                if *f as usize > pc {
                    *f = (*f as i64 + delta) as u32;
                }
            }
            _ => {}
        }
    }
    caller.code.splice(pc..=pc, body);
}

fn remap_regs(ins: &mut Instr, base: Reg) {
    ins.for_each_source_mut(|r| *r += base);
    if let Some(d) = ins.dst_mut() {
        *d += base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FuncBuilder, Ty};

    fn const_add_program() -> Program {
        // fn f() -> i32 { let a = 2; let b = 3; a + b }
        let mut fb = FuncBuilder::new("f", vec![], Some(Ty::I32), FuncKind::Host);
        let a = fb.reg(Ty::I32);
        let b = fb.reg(Ty::I32);
        let c = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(a, 2));
        fb.emit(Instr::ConstI32(b, 3));
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: c,
            lhs: a,
            rhs: b,
        });
        fb.emit(Instr::Ret(Some(c)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.entry = Some(id);
        p
    }

    #[test]
    fn const_folding_folds_add() {
        let mut p = const_add_program();
        optimize(&mut p, OptConfig::standard());
        // After folding + DCE only the const and ret remain.
        let f = &p.funcs[0];
        assert!(
            f.code.iter().any(|i| matches!(i, Instr::ConstI32(_, 5))),
            "expected folded constant 5 in {:?}",
            f.code
        );
        assert!(
            f.code.len() <= 2,
            "DCE should drop dead consts: {:?}",
            f.code
        );
        p.validate().unwrap();
    }

    #[test]
    fn copy_propagation_forwards_movs() {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let a = fb.reg(Ty::I32);
        let b = fb.reg(Ty::I32);
        let c = fb.reg(Ty::I32);
        fb.emit(Instr::Mov(a, 0));
        fb.emit(Instr::Mov(b, a));
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: c,
            lhs: b,
            rhs: b,
        });
        fb.emit(Instr::Ret(Some(c)));
        let mut p = Program::default();
        p.add_func(fb.finish().unwrap());
        optimize(&mut p, OptConfig::standard());
        let f = &p.funcs[0];
        // The add should now read the parameter register directly.
        let add = f
            .code
            .iter()
            .find(|i| matches!(i, Instr::Bin { .. }))
            .expect("add survives");
        if let Instr::Bin { lhs, rhs, .. } = add {
            assert_eq!((*lhs, *rhs), (0, 0));
        }
        p.validate().unwrap();
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut fb = FuncBuilder::new(
            "f",
            vec![Ty::Arr(crate::ir::ElemTy::F32)],
            None,
            FuncKind::Host,
        );
        let idx = fb.reg(Ty::I32);
        let val = fb.reg(Ty::F32);
        let dead = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(idx, 0));
        fb.emit(Instr::ConstF32(val, 1.0));
        fb.emit(Instr::ConstI32(dead, 42)); // dead
        fb.emit(Instr::StArr {
            arr: 0,
            idx,
            src: val,
        }); // effectful
        fb.emit(Instr::Ret(None));
        let mut p = Program::default();
        p.add_func(fb.finish().unwrap());
        optimize(&mut p, OptConfig::standard());
        let f = &p.funcs[0];
        assert!(f.code.iter().any(|i| matches!(i, Instr::StArr { .. })));
        assert!(!f.code.iter().any(|i| matches!(i, Instr::ConstI32(_, 42))));
        p.validate().unwrap();
    }

    #[test]
    fn dce_remaps_jump_targets() {
        let mut fb = FuncBuilder::new("f", vec![Ty::Bool], Some(Ty::I32), FuncKind::Host);
        let dead = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let two = fb.reg(Ty::I32);
        let t = fb.label();
        let e = fb.label();
        fb.emit(Instr::ConstI32(dead, 99)); // dead
        fb.br(0, t, e);
        fb.bind(t);
        fb.emit(Instr::ConstI32(one, 1));
        fb.emit(Instr::Ret(Some(one)));
        fb.bind(e);
        fb.emit(Instr::ConstI32(two, 2));
        fb.emit(Instr::Ret(Some(two)));
        let mut p = Program::default();
        p.add_func(fb.finish().unwrap());
        optimize(&mut p, OptConfig::standard());
        p.validate().unwrap();
    }

    #[test]
    fn inlining_splices_small_callee() {
        // callee: fn double(x) { x + x }; caller: fn f(a) { double(a) + 1 }
        let mut cb = FuncBuilder::new("double", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let d = cb.reg(Ty::I32);
        cb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: d,
            lhs: 0,
            rhs: 0,
        });
        cb.emit(Instr::Ret(Some(d)));
        let mut p = Program::default();
        let callee = p.add_func(cb.finish().unwrap());

        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let r = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let out = fb.reg(Ty::I32);
        fb.emit(Instr::Call {
            func: callee,
            args: vec![0],
            dst: Some(r),
        });
        fb.emit(Instr::ConstI32(one, 1));
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: out,
            lhs: r,
            rhs: one,
        });
        fb.emit(Instr::Ret(Some(out)));
        p.add_func(fb.finish().unwrap());

        optimize(&mut p, OptConfig::aggressive());
        let f = &p.funcs[1];
        assert!(
            !f.code.iter().any(|i| matches!(i, Instr::Call { .. })),
            "call should be inlined: {f:?}"
        );
        p.validate().unwrap();
    }

    #[test]
    fn optimizer_is_idempotent() {
        let mut p = const_add_program();
        optimize(&mut p, OptConfig::standard());
        let once = format!("{p}");
        optimize(&mut p, OptConfig::standard());
        assert_eq!(once, format!("{p}"));
    }
}
