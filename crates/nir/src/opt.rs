//! NIR optimizer passes — the reproduction's analogue of the external C
//! compiler's work (the `-O3`-ish part of Table 1/Table 2).
//!
//! Passes:
//! * **fold** — const-fold + copy-propagation (per basic block, linear in
//!   the block): replaces arithmetic on known constants, forwards `Mov`
//!   chains, coalesces result moves (`t = op …; x = t` becomes
//!   `x = op …`) and eliminates common subexpressions (a value a register
//!   still holds is read from it);
//! * **dce** — one rebuild of the function that threads jumps through
//!   jumps, removes unreachable code, removes pure instructions whose
//!   results are never used (whole-function liveness), hoists loop
//!   constants into a prefix at pc 0, rotates innermost loops and hoists
//!   their invariant instructions into a preheader, and removes jumps to
//!   the next instruction;
//! * **inline** — splices small callees into their callers, bottom-up:
//!   each function, in `FuncId` order, takes in the final bodies of its
//!   earlier callees (see [`optimize_fn`]), as the paper's C compiler
//!   inlines the flat C that WootinJ emits;
//! * **sroa** — scalar replacement of non-escaping heap objects.
//!
//! [`OptConfig::local`] runs fold and dce together: nothing ships one
//! without the other, and fold leaves self-moves for dce to drop.
//!
//! Every pass sees only the function it rewrites and its callees' final
//! bodies; fold, dce and inline are linear in it. Loop cleanup is what the
//! paper's C compiler does to the flat C: without it every loop
//! iteration reloads its literals, copies each update through a
//! temporary, computes twice what it computed once, recomputes what no
//! iteration changes, and jumps back to its test.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jlang::ast::BinOp;
use jlang::types::PrimKind;

use crate::cfg::{self, Cfg, NONE};
use crate::ir::{ConstVal, FuncKind, Function, Instr, Program, Reg};

/// The revision of what [`optimize`] makes of a program. Artifact cache
/// keys mix it into their fingerprint, so a disk store or `jitd` root
/// filled by another revision misses instead of serving that revision's
/// code. Bump when `compile_path_output_is_pinned` moves. Revision 1 is
/// every optimizer before block-local CSE and loop rotation; its keys
/// carry no revision.
pub const REVISION: u32 = 2;

/// Optimizer configuration; maps onto the compiler-option rows of
/// Tables 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptConfig {
    /// The local passes: `fold` (constant folding, copy propagation,
    /// result-move coalescing, block-local CSE), then `dce`.
    pub local: bool,
    /// Inline callees with at most this many instructions (0 = off).
    pub inline_limit: usize,
    /// Scalar replacement of non-escaping heap objects (models C++ value
    /// semantics for temporaries — the *Template* baseline's stack
    /// objects).
    pub sroa: bool,
}

impl OptConfig {
    /// Everything on, no inlining (`TransConfig::full()`'s passes; the
    /// WootinJ preset adds [`OptConfig::aggressive`]'s inline limit).
    pub fn standard() -> Self {
        OptConfig {
            local: true,
            inline_limit: 0,
            sroa: false,
        }
    }

    /// Everything on plus function inlining and scalar replacement — what
    /// an optimizing C++ compiler does to template code (the *Template* /
    /// *Template w/o virt.* series).
    pub fn aggressive() -> Self {
        OptConfig {
            local: true,
            inline_limit: 128,
            sroa: true,
        }
    }

    /// All passes off (`-O0`).
    pub fn none() -> Self {
        OptConfig {
            local: false,
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
    fn record(pass: &'static str, f: &mut Function, body: impl FnOnce(&mut Function)) -> Self {
        let instrs_before = f.code.len() as u64;
        let start = Instant::now();
        body(f);
        PassProfile {
            pass,
            wall: start.elapsed(),
            instrs_before,
            instrs_after: f.code.len() as u64,
        }
    }
}

/// Run the configured passes over the whole program: [`optimize_fn`] on
/// every function in `FuncId` order. Returns one [`PassProfile`] per
/// pass that did work, aggregated over all functions in canonical
/// [`PASS_ORDER`] (fold/dce include the post-SROA cleanup round). This
/// is the post-pass form of the translator's schedule, which runs the
/// same step on each function as it is lowered.
pub fn optimize(program: &mut Program, config: OptConfig) -> Vec<PassProfile> {
    let mut parts = Vec::new();
    for i in 0..program.funcs.len() {
        let (done, rest) = program.funcs.split_at_mut(i);
        parts.extend(optimize_fn(Arc::make_mut(&mut rest[0]), done, config));
    }
    merge_profiles(parts)
}

/// One step of the bottom-up pipeline: splice into `f` every call to an
/// earlier function of a matching kind ([`kinds_splice`]) whose final
/// body has at most `inline_limit` instructions, then run the local
/// passes. `done` is the program's functions before `f`, already
/// optimized. `FuncId`s are the post-order of lowering and the coding
/// rules forbid recursion, so every callee comes first, and `f`'s
/// optimized body depends only on its own code and its callees' final
/// bodies. That is what lets the incremental query layer store optimized
/// functions and optimize only fresh ones.
pub fn optimize_fn(
    f: &mut Function,
    done: &[Arc<Function>],
    config: OptConfig,
) -> Vec<PassProfile> {
    let mut parts = Vec::new();
    if config.inline_limit > 0 {
        parts.push(PassProfile::record("inline", f, |f| {
            inline_calls(f, done, config.inline_limit)
        }));
    }
    // First round: propagate copies so that spliced argument and result
    // moves dissolve, then drop the dead moves...
    local_round(f, config, &mut parts);
    // ...so scalar replacement sees unaliased temporaries.
    if config.sroa {
        parts.push(PassProfile::record("sroa", f, sroa));
        local_round(f, config, &mut parts);
    }
    merge_profiles(parts)
}

/// `fold`, then `dce`. A rotated loop's test copy ends the body's last
/// block, where `fold` has not looked yet, so a round that rotates runs
/// both once more; the second `dce` finds no loop left to rotate.
fn local_round(f: &mut Function, config: OptConfig, parts: &mut Vec<PassProfile>) {
    if !config.local {
        return;
    }
    for _ in 0..2 {
        parts.push(PassProfile::record("fold", f, local_fold));
        let mut rotated = false;
        parts.push(PassProfile::record("dce", f, |f| rotated = dce(f)));
        if !rotated {
            break;
        }
    }
}

/// May a `caller`-kind function splice a `callee`-kind one? The same
/// kind, or a `__device__` function into a kernel.
pub fn kinds_splice(caller: FuncKind, callee: FuncKind) -> bool {
    callee == caller || (caller == FuncKind::Kernel && callee == FuncKind::Device)
}

/// The callee that `ins`, in `caller`, splices under `limit`: a direct
/// call to an earlier function of a matching kind whose final body has
/// at most `limit` instructions.
fn splices<'a>(
    ins: &Instr,
    caller: FuncKind,
    done: &'a [Arc<Function>],
    limit: usize,
) -> Option<&'a Function> {
    let Instr::Call { func, .. } = ins else {
        return None;
    };
    let callee = done.get(func.0 as usize)?;
    (callee.code.len() <= limit && kinds_splice(caller, callee.kind)).then_some(&**callee)
}

/// Canonical pipeline order of the optimizer passes — the order
/// [`optimize`] executes (and reports) them in.
pub const PASS_ORDER: [&str; 4] = ["inline", "fold", "dce", "sroa"];

/// Aggregate pass profiles: one entry per pass name, durations and
/// instruction counts summed, sorted into canonical [`PASS_ORDER`],
/// zero-work passes dropped. Feeding it the per-function profiles that
/// the translator's lowerer collects as it optimizes each function it
/// adds yields exactly the aggregation [`optimize`] computes over the
/// finished program (only the wall times differ run to run).
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

#[derive(Debug, Clone, Copy, PartialEq)]
enum Known {
    Const(ConstVal),
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

    fn const_of(&self, r: Reg) -> Option<ConstVal> {
        match self.known[r as usize]? {
            Known::Copy(s) => self.const_of(s),
            Known::Const(c) => Some(c),
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
///
/// It also coalesces result moves: `t = op …; x = t` becomes `x = op …`
/// when `t` is a temporary that lives for exactly those two instructions
/// ([`coalesces`]). The emptied `Mov` is left as the self-move `x = x`, so
/// no pc moves here; [`dce`]'s rebuild drops it. And it eliminates common
/// subexpressions within the block ([`Cse`]): a pure instruction that
/// recomputes what a register still holds becomes a `Mov` from that
/// register, which copy propagation forwards and `dce` drops once nothing
/// reads it.
#[allow(clippy::needless_range_loop)] // `pc` indexes both code and leader
fn local_fold(f: &mut Function) {
    // For coalescing, how often each register is written and read,
    // counted in the sweep that finds the leaders. The three commonest
    // instructions are counted in one match (patterns that name every
    // field, so a changed variant fails to compile here); the rest go
    // through the generic operand walk, which dispatches twice.
    let (mut writes, mut reads) = (vec![0u32; f.regs.len()], vec![0u32; f.regs.len()]);
    // For CSE, about how many instructions its table keys (pure
    // intrinsics are counted with the rest), to size the table once.
    let mut keyed = 0;
    let count = |_, ins: &Instr| {
        match *ins {
            Instr::Bin {
                op: _,
                kind: _,
                dst,
                lhs,
                rhs,
            } => {
                writes[dst as usize] += 1;
                reads[lhs as usize] += 1;
                reads[rhs as usize] += 1;
                keyed += 1;
            }
            Instr::ConstI32(d, _)
            | Instr::ConstI64(d, _)
            | Instr::ConstF32(d, _)
            | Instr::ConstF64(d, _)
            | Instr::ConstBool(d, _) => writes[d as usize] += 1,
            Instr::Mov(d, s) => {
                writes[d as usize] += 1;
                reads[s as usize] += 1;
            }
            _ => {
                if let Some(d) = ins.dst() {
                    writes[d as usize] += 1;
                }
                ins.for_each_source(|s| reads[s as usize] += 1);
                keyed += usize::from(matches!(
                    ins,
                    Instr::Neg { .. }
                        | Instr::Not { .. }
                        | Instr::Cast { .. }
                        | Instr::Intrin { .. }
                ));
            }
        }
        Ok(())
    };
    let Ok(leader) = cfg::leaders(&f.code, count, |_, _| ()) else {
        return;
    };

    let mut facts = Facts::new(f.regs.len());
    let mut cse = Cse::new(f.regs.len(), keyed);
    for pc in 0..f.code.len() {
        if leader[pc] {
            facts.start_block();
            cse.start_block(pc);
        }
        // Resolve copies in sources first.
        f.code[pc].for_each_source_mut(|r| *r = facts.resolve(*r));

        // Try folding a binary op on known constants of the kind it
        // names, or a cast of a known constant.
        let folded = match f.code[pc] {
            Instr::Bin {
                op,
                kind,
                dst,
                lhs,
                rhs,
            } => match (facts.const_of(lhs), facts.const_of(rhs)) {
                (Some(l), Some(r)) if l.kind() == kind => {
                    ConstVal::bin(op, l, r).map(|v| v.instr(dst))
                }
                _ => None,
            },
            Instr::Cast { to, dst, src, .. } => facts
                .const_of(src)
                .and_then(|v| v.cast(to))
                .map(|v| v.instr(dst)),
            _ => None,
        };
        if let Some(folded) = folded {
            f.code[pc] = folded;
        }

        // Coalesce before the `Mov` is seen: once it records `x` as a
        // copy of `t`, copy propagation would hand `t` to `x`'s readers.
        // A chain `t = op; u = t; x = u` (a spliced callee's result moved
        // into a temporary, then into a variable) goes link by link: each
        // emptied move is a self-move, a no-op between the two.
        let mut next = pc + 1;
        while !leader[next] {
            let Some(x) = coalesces(f, pc, next, &writes, &reads) else {
                break;
            };
            *f.code[pc].dst_mut().expect("coalesces checked the dst") = x;
            f.code[next] = Instr::Mov(x, x);
            next += 1;
        }

        // A value some register still holds: read it from there.
        cse.visit(pc, &mut f.code[pc], &facts);

        // Update the facts from the (possibly rewritten) instruction.
        match &f.code[pc] {
            Instr::Mov(d, s) => {
                if d != s {
                    let fact = facts.known[*s as usize].unwrap_or(Known::Copy(*s));
                    facts.record(*d, fact);
                }
            }
            other => {
                if let Some(d) = other.dst() {
                    match other.const_val() {
                        Some(v) => facts.record(d, Known::Const(v)),
                        None => facts.forget(d),
                    }
                }
            }
        }
    }
}

/// Is `ins` a pure computation: arithmetic, a cast, a move, a constant,
/// or a pure intrinsic? Such an instruction reads its operands and
/// nothing else, writes its destination and nothing else, and fails only
/// on an operand nothing has written or on an int or long `Div`/`Rem` by
/// zero.
fn is_pure(ins: &Instr) -> bool {
    match ins {
        Instr::Bin { .. }
        | Instr::Neg { .. }
        | Instr::Not { .. }
        | Instr::Cast { .. }
        | Instr::Mov(..) => true,
        Instr::Intrin { op, dst, .. } => op.row().is_some_and(|r| r.pure) && dst.is_some(),
        _ => ins.const_val().is_some(),
    }
}

/// What a pure instruction computes, as a key for [`Cse`]: the operation
/// and its operands, each the register it reads or, when [`Facts`] knows
/// one, the constant that register holds (so `x + k` matches `x + 1`
/// whatever register holds the `1`). Constants themselves are not keys:
/// [`dce`] gathers loop constants into a prefix and merges equal ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Expr {
    Bin(BinOp, PrimKind, Opnd, Opnd),
    Neg(PrimKind, Opnd),
    Not(Opnd),
    Cast(PrimKind, PrimKind, Opnd),
    /// A pure intrinsic; those take at most two operands.
    Intrin(crate::IntrinOp, Option<Opnd>, Option<Opnd>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Opnd {
    Reg(Reg),
    /// A constant's kind and bits ([`ConstVal::bits`]).
    Const(PrimKind, u64),
}

impl Expr {
    fn of(ins: &Instr, facts: &Facts) -> Option<Expr> {
        let o = |r: Reg| match facts.const_of(r) {
            Some(v) => Opnd::Const(v.kind(), v.bits()),
            None => Opnd::Reg(r),
        };
        Some(match *ins {
            Instr::Bin {
                op, kind, lhs, rhs, ..
            } => Expr::Bin(op, kind, o(lhs), o(rhs)),
            Instr::Neg { kind, src, .. } => Expr::Neg(kind, o(src)),
            Instr::Not { src, .. } => Expr::Not(o(src)),
            Instr::Cast { to, from, src, .. } => Expr::Cast(to, from, o(src)),
            Instr::Intrin {
                op,
                ref args,
                dst: Some(_),
            } if op.row().is_some_and(|r| r.pure) && args.len() <= 2 => {
                Expr::Intrin(op, args.first().map(|&a| o(a)), args.get(1).map(|&a| o(a)))
            }
            _ => return None,
        })
    }
}

/// Block-local common subexpressions for [`local_fold`]: which register
/// last computed each [`Expr`], and when. Nothing is ever removed: an
/// entry is checked when it is looked up, and it is stale when it was
/// made before the current block, or its holder or any register operand
/// has been written since. Each write stamps its register, so a check
/// costs the operand count, not the block so far.
struct Cse {
    seen: HashMap<Expr, (Reg, u32), BuildHasherDefault<ExprHasher>>,
    /// By register: one past the pc of its last write (0: none yet).
    stamp: Vec<u32>,
    /// One past the pc of the current block's leader.
    block: u32,
}

impl Cse {
    fn new(regs: usize, keyed: usize) -> Self {
        Cse {
            seen: HashMap::with_capacity_and_hasher(keyed, Default::default()),
            stamp: vec![0; regs],
            block: 0,
        }
    }

    fn start_block(&mut self, pc: usize) {
        self.block = pc as u32 + 1;
    }

    /// `ins`, at `pc`, with `facts` as they stand before it: when a
    /// register still holds what it computes, it becomes a `Mov` from
    /// there; otherwise it is remembered, unless it overwrites one of its
    /// own operands. Either way, what it writes is stamped.
    fn visit(&mut self, pc: usize, ins: &mut Instr, facts: &Facts) {
        let Some(d) = ins.dst() else {
            return;
        };
        if matches!(*ins, Instr::Mov(d, s) if d == s) {
            return;
        }
        let at = pc as u32 + 1;
        if let Some(e) = Expr::of(ins, facts) {
            let mut reads_dst = false;
            ins.for_each_source(|s| reads_dst |= s == d);
            match self.seen.entry(e) {
                Entry::Occupied(mut seen) => {
                    let (h, when) = *seen.get();
                    let mut fresh = when >= self.block && self.stamp[h as usize] == when;
                    ins.for_each_source(|s| {
                        fresh &= facts.const_of(s).is_some() || self.stamp[s as usize] < when;
                    });
                    if fresh {
                        *ins = Instr::Mov(d, h);
                        if d == h {
                            return;
                        }
                    } else if !reads_dst {
                        seen.insert((d, at));
                    }
                }
                Entry::Vacant(slot) => {
                    if !reads_dst {
                        slot.insert((d, at));
                    }
                }
            }
        }
        self.stamp[d as usize] = at;
    }
}

/// A multiply-rotate hasher for [`Cse`]'s keys, which are a few small
/// integers: SipHash's resistance to chosen keys buys nothing for a map
/// filled from the optimizer's own input, and it made `fold` several
/// times slower on long blocks.
#[derive(Default)]
struct ExprHasher(u64);

impl Hasher for ExprHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }
}

/// The register `x` that instruction `pc` may write in place of its
/// temporary `t`, when `next` is `x = t` in the same block with only
/// self-moves between: `t` is not a parameter, is written and read exactly
/// once in the whole function (here and by that `Mov`), and has `x`'s
/// type, and `pc` is a pure computation whose operands are all read
/// before its result is written.
fn coalesces(f: &Function, pc: usize, next: usize, writes: &[u32], reads: &[u32]) -> Option<Reg> {
    let Some(&Instr::Mov(x, t)) = f.code.get(next) else {
        return None;
    };
    let def = &f.code[pc];
    let ok = (matches!(
        def,
        Instr::Bin { .. }
            | Instr::Neg { .. }
            | Instr::Not { .. }
            | Instr::Cast { .. }
            | Instr::LdArr { .. }
            | Instr::ArrLen { .. }
    ) || def.const_val().is_some())
        && def.dst() == Some(t)
        && x != t
        && t as usize >= f.params.len()
        && writes[t as usize] == 1
        && reads[t as usize] == 1
        && f.regs[t as usize] == f.regs[x as usize];
    ok.then_some(x)
}

/// Dead and unreachable code elimination plus the loop cleanups, in one
/// rebuild of the function:
///
/// * **jump threading** — a reachable `Jmp`/`Br` whose target is itself a
///   `Jmp` takes that jump's target instead, at most [`THREAD_HOPS`]
///   times, so a jump cycle terminates;
/// * **unreachable code** — instructions not reachable from pc 0 go
///   (found by the same walk);
/// * **liveness** — pure instructions whose result no kept instruction
///   reads go (flow-insensitive), and so do self-moves;
/// * **loop constants** — see [`loop_constants`]: a constant defined in a
///   loop is defined once in a prefix at pc 0 instead;
/// * **loop rotation and invariant hoisting** — see [`rotations`]: a
///   loop's back `Jmp` becomes a copy of its header test, and invariant
///   instructions of its body's entry block move into a preheader;
/// * **jumps to the next instruction** — a forward `Jmp` whose target is
///   the next kept instruction goes.
///
/// The loop steps are only looked for when a reachable branch goes
/// backward. Every step is linear in the function. Branch targets are
/// remapped once; a target may equal `code.len()`, as
/// [`Program::verify`] allows. Returns whether a loop was rotated: its
/// test copy then ends the body's last block, where another `fold` may
/// find work.
fn dce(f: &mut Function) -> bool {
    let n = f.code.len();
    let (reach, mut changed, backward) = thread_and_reach(&mut f.code);

    // The keep-set is the least fixed point of "kept if reachable and
    // effectful, or if it defines a register some kept instruction reads"
    // (flow-insensitive). Liveness spreads from the effectful roots along
    // a worklist over each register's pure definitions, visiting every
    // instruction at most once.
    //
    // An instruction writes at most one register, so the definitions of a
    // register are a list threaded through the instructions themselves:
    // `last_def[r]` is its newest pure definition, `prev_def[i]` the one
    // before instruction `i`.
    let mut keep = vec![false; n];
    let mut last_def = vec![NONE; f.regs.len()];
    let mut prev_def = vec![NONE; n];
    let mut work = Vec::new();
    for (i, ins) in f.code.iter().enumerate() {
        // Self-moves are pure no-ops (SROA leaves them for pc alignment,
        // coalescing for dce to drop).
        if !reach[i] || matches!(ins, Instr::Mov(d, s) if d == s) {
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

    let blocks = backward.then(|| Blocks::of(f, &keep)).flatten();
    let (hoist, loops) = if let Some(blocks) = blocks {
        let hoist = loop_constants(f, &keep, &blocks);
        for h in &hoist.defs {
            keep[*h as usize] = false;
        }
        let loops = rotations(f, &keep, &blocks);
        (hoist, loops)
    } else {
        (Hoist::default(), Vec::new())
    };
    changed |= !hoist.defs.is_empty() || !loops.is_empty();

    // Where the rotated loops change the instruction count: `extra[i]`
    // instructions land at old pc `i` besides its own — a preheader before
    // a body's first instruction, a test copy in place of a back `Jmp` —
    // and `slot[i]` names the loop (plus one) they belong to.
    let (mut extra, mut slot) = (Vec::new(), Vec::new());
    if !loops.is_empty() {
        extra = vec![0u32; n + 1];
        slot = vec![0u32; n + 1];
        for (r, l) in loops.iter().enumerate() {
            for &p in &l.hoisted {
                keep[p as usize] = false;
            }
            extra[l.body as usize] = l.pre.len() as u32;
            extra[l.latch as usize] = l.test.len() as u32 - 1;
            slot[l.body as usize] = r as u32 + 1;
            slot[l.latch as usize] = r as u32 + 1;
        }
    }

    // Drop forward jumps to the next kept instruction, last to first:
    // `after[i]` counts the instructions emitted at or after `i`, final
    // for every `i` past the jump, and a jump to `t` lands on the next
    // emitted instruction when none is emitted in between and one exists.
    // A backward jump is never dropped: it closes a loop, empty or not.
    let mut after = vec![0u32; n + 1];
    for i in (0..n).rev() {
        if let Instr::Jmp(t) = f.code[i] {
            let next = after[i + 1];
            if keep[i] && t as usize > i && after[t as usize] == next && next > 0 {
                keep[i] = false;
            }
        }
        after[i] = after[i + 1] + u32::from(keep[i]) + extra.get(i).copied().unwrap_or(0);
    }

    let emitted = after[0];
    if !changed && emitted as usize == n {
        return false;
    }
    // Rebuild: the hoisted constants, then every kept instruction with
    // its targets remapped (and, where two hoisted constants merged, its
    // operands renamed). Old pc `t` lands after the prefix and whatever is
    // emitted before it, so a branch to a body's first instruction lands
    // on its preheader; every branch but the loop's guard skips that.
    let Hoist { prefix, rename, .. } = hoist;
    let end = prefix.len() as u32 + emitted;
    let target = |t: u32, from: usize| {
        let mut pc = end - after[t as usize];
        if let Some(&r) = slot.get(t as usize).filter(|&&r| r > 0) {
            let l = &loops[r as usize - 1];
            if l.body == t && l.body as usize != from + 1 {
                pc += l.pre.len() as u32;
            }
        }
        pc
    };
    let rename = |mut ins: Instr| {
        if let Some(rename) = &rename {
            ins.for_each_source_mut(|r| *r = rename[*r as usize]);
        }
        ins
    };
    let old = std::mem::replace(&mut f.code, prefix);
    f.code.reserve(emitted as usize);
    for (i, mut ins) in old.into_iter().enumerate() {
        let l = slot
            .get(i)
            .filter(|&&r| r > 0)
            .map(|&r| &loops[r as usize - 1]);
        if let Some(l) = l.filter(|l| l.body as usize == i) {
            f.code.extend(l.pre.iter().cloned().map(rename));
        }
        if !keep[i] {
            continue;
        }
        ins.for_each_target_mut(|t| *t = target(*t, i));
        match l.filter(|l| l.latch as usize == i) {
            // The back jump becomes the header's test, which branches
            // back past the preheader.
            Some(l) => {
                f.code.extend(l.test.iter().cloned().map(rename));
                let Some(Instr::Br { t, f: fl, .. }) = f.code.last_mut() else {
                    unreachable!("a test copy ends in its header's Br");
                };
                *t = target(l.body, i);
                *fl = target(*fl, i);
            }
            None => f.code.push(rename(ins)),
        }
    }
    // Only input that could already fall off its end can end without a
    // terminator here; give it the one the builder would have.
    if !f.code.last().is_some_and(Instr::ends_block) {
        f.code.push(Instr::Ret(None));
    }
    !loops.is_empty()
}

/// How many jumps one target is threaded through.
const THREAD_HOPS: usize = 8;

/// The longest header test [`rotations`] copies, its `Br` included. A
/// copy grows the function, and the inliner decides by final size, so
/// the bound keeps every splice decision where it was.
const MAX_TEST: usize = 4;

/// Walk the code reachable from pc 0, threading the target of every
/// `Jmp`/`Br` it reaches through jumps (at most [`THREAD_HOPS`] of them)
/// and following the threaded targets. Returns which instructions are
/// reachable, whether a target changed, and whether a reachable branch
/// goes backward (without one there is no loop).
fn thread_and_reach(code: &mut [Instr]) -> (Vec<bool>, bool, bool) {
    let through = |code: &[Instr], mut t: u32| {
        for _ in 0..THREAD_HOPS {
            match code.get(t as usize) {
                Some(Instr::Jmp(u)) if *u != t => t = *u,
                _ => break,
            }
        }
        t
    };
    let n = code.len();
    let mut reach = vec![false; n];
    let (mut changed, mut backward) = (false, false);
    let mut work = vec![0usize];
    while let Some(mut pc) = work.pop() {
        // Walk the straight line from `pc`, queueing branch targets.
        while pc < n && !reach[pc] {
            reach[pc] = true;
            match code[pc] {
                Instr::Jmp(t) => {
                    let u = through(code, t);
                    if u != t {
                        code[pc] = Instr::Jmp(u);
                        changed = true;
                    }
                    backward |= u as usize <= pc;
                    pc = u as usize;
                }
                Instr::Br { cond, t, f } => {
                    let (u, v) = (through(code, t), through(code, f));
                    if (u, v) != (t, f) {
                        code[pc] = Instr::Br { cond, t: u, f: v };
                        changed = true;
                    }
                    backward |= u as usize <= pc || v as usize <= pc;
                    work.push(v as usize);
                    pc = u as usize;
                }
                Instr::Ret(_) => break,
                _ => pc += 1,
            }
        }
    }
    (reach, changed, backward)
}

/// The basic blocks of a function, and the registers whose value is
/// local to one block among the kept instructions.
struct Blocks {
    cfg: Cfg,
    /// By register: the pc of its only kept definition when it is not a
    /// parameter and every kept read of it comes later in that
    /// definition's block; [`NONE`] otherwise. Such a register holds, at
    /// every read, what that definition computed in the same pass through
    /// the block — no dominator tree needed.
    local: Vec<u32>,
}

impl Blocks {
    fn of(f: &Function, keep: &[bool]) -> Option<Blocks> {
        let code = &f.code;
        let cfg = Cfg::of(code).ok()?;
        let block = &cfg.block;

        // One pass in pc order: a read before its register's (first)
        // definition or in another block, or a second definition,
        // disqualifies the register.
        let mut local = vec![NONE; f.regs.len()];
        let mut bad = vec![false; f.regs.len()];
        bad[..f.params.len()].fill(true);
        for (pc, ins) in code.iter().enumerate() {
            if !keep[pc] {
                continue;
            }
            ins.for_each_source(|s| {
                let d = local[s as usize];
                if d == NONE || block[d as usize] != block[pc] {
                    bad[s as usize] = true;
                }
            });
            if let Some(d) = ins.dst() {
                let d = d as usize;
                bad[d] |= local[d] != NONE;
                local[d] = pc as u32;
            }
        }
        for (l, bad) in local.iter_mut().zip(bad) {
            if bad {
                *l = NONE;
            }
        }
        Some(Blocks { cfg, local })
    }
}

/// The constants [`dce`] hoists into a prefix at pc 0.
#[derive(Default)]
struct Hoist {
    /// One constant per distinct kind and bit pattern, in pc order.
    prefix: Vec<Instr>,
    /// Pcs of the definitions that move into the prefix.
    defs: Vec<u32>,
    /// By register: the register that now holds its value, when two
    /// hoisted constants merged (`None` when none did).
    rename: Option<Vec<Reg>>,
}

/// Find the loop constants among the kept instructions: [`Blocks::local`]
/// registers defined by a `Const*` in a basic block on a cycle of the
/// control-flow graph (a strongly connected component of more than one
/// block, or a block with a self edge). Such a register holds its
/// constant wherever it is read, so defining it once at pc 0 changes no
/// value anyone reads. The same-block rule needs no dominator tree: a
/// read in another block may see the register before the loop first
/// defines it, or after something else did.
fn loop_constants(f: &Function, keep: &[bool], blocks: &Blocks) -> Hoist {
    let on_cycle = blocks.cfg.on_cycles();
    let mut hoist = Hoist::default();
    let mut merged: HashMap<(PrimKind, u64), Reg> = HashMap::new();
    for (pc, ins) in f.code.iter().enumerate() {
        let Some(d) = ins.dst().filter(|d| {
            keep[pc]
                && blocks.local[*d as usize] == pc as u32
                && on_cycle[blocks.cfg.block[pc] as usize]
        }) else {
            continue;
        };
        let Some(v) = ins.const_val() else {
            continue;
        };
        hoist.defs.push(pc as u32);
        match merged.entry((v.kind(), v.bits())) {
            Entry::Occupied(e) => {
                let rename = hoist
                    .rename
                    .get_or_insert_with(|| (0..f.regs.len() as Reg).collect());
                rename[d as usize] = *e.get();
            }
            Entry::Vacant(e) => {
                e.insert(d);
                hoist.prefix.push(ins.clone());
            }
        }
    }
    hoist
}

/// One loop [`dce`] rotates: the header ends in `Br { t: body, .. }` at
/// `body - 1`, the loop's guard once rotated, and the back `Jmp` at
/// `latch` closes it.
struct Rotation {
    body: u32,
    latch: u32,
    /// Pcs of the invariant instructions that move into the preheader.
    hoisted: Vec<u32>,
    /// Those instructions, in pc order.
    pre: Vec<Instr>,
    /// What replaces the back `Jmp`: the header's instructions that are
    /// not invariant, then its `Br` (targets remapped when emitted).
    test: Vec<Instr>,
}

/// The loops [`dce`] rotates, and what each hoists. A loop qualifies when
/// a kept back `Jmp` at `e` closes the contiguous range `h..=e`, and
///
/// * it is innermost: no other kept branch in the range goes backward
///   (so a header's last back jump is also its first);
/// * its header `h..=k` is straight-line, pure ([`is_pure`]) up to a
///   `Br` whose true edge falls into the body at `k + 1` and whose false
///   edge leaves the range — the header's one exit;
/// * it has one entry: no branch from outside the range lands in
///   `h + 1..=e`, and no branch at all lands inside the header;
/// * its test copy — the header's `Br` and its instructions that are
///   not invariant — is at most [`MAX_TEST`] long.
///
/// The header then runs once as the loop's guard, and each iteration
/// ends in the copy, which branches back to the body: one instruction
/// fewer per iteration, and a zero-trip loop runs what it ran before.
/// Innermost loops are disjoint, so finding them all is linear.
///
/// An instruction is invariant when it is pure and no instruction of the
/// loop writes its operands. An invariant header instruction whose
/// destination the loop writes only there is left out of the copy: the
/// guard computed the value every iteration reads. An invariant
/// instruction of the body's entry block moves into a preheader that
/// runs between the guard and the body when, besides,
///
/// * it cannot fail — no int or long `Div`/`Rem` (`LdArr`, `ArrLen`,
///   calls and yields are not pure to begin with);
/// * its destination is [`Blocks::local`] to it, so the loop writes it
///   nowhere else and reads it only after it in the entry block;
/// * no side-effecting instruction comes before it in the entry block,
///   so a program that fails there still fails after the same output.
///
/// The preheader runs only when the body would, and before any read.
/// Hoisted values feed later invariant instructions of the same block.
fn rotations(f: &Function, keep: &[bool], blocks: &Blocks) -> Vec<Rotation> {
    let code = &f.code;
    let n = code.len();
    // By target: the lowest and highest pc of a kept branch to it; by
    // header, the last kept back jump to it; and by pc, the first kept
    // backward branch at or after it.
    let (mut lo, mut hi) = (vec![NONE; n + 1], vec![0u32; n + 1]);
    let mut latch = vec![NONE; n];
    let mut next_back = vec![NONE; n + 1];
    for (pc, ins) in code.iter().enumerate().rev() {
        next_back[pc] = next_back[pc + 1];
        if !keep[pc] {
            continue;
        }
        let mut edge = |t: u32| {
            lo[t as usize] = lo[t as usize].min(pc as u32);
            hi[t as usize] = hi[t as usize].max(pc as u32);
            if t as usize <= pc {
                next_back[pc] = pc as u32;
            }
        };
        ins.for_each_target(&mut edge);
        if let Instr::Jmp(t) = *ins {
            if (t as usize) < pc && latch[t as usize] == NONE {
                latch[t as usize] = pc as u32;
            }
        }
    }

    // By register: the last loop (numbered by header) that writes it,
    // and how often it does; `NONE` again once it is left out of the test
    // copy or hoisted, since the rotated loop no longer writes it.
    let mut written = vec![NONE; f.regs.len()];
    let mut writes = vec![0u32; f.regs.len()];
    let mut loops = Vec::new();
    // Innermost loops are disjoint, so what follows scans each pc once.
    for (h, &e) in latch.iter().enumerate() {
        if e == NONE || next_back[h] != e {
            continue;
        }
        let e = e as usize;
        let Some(k) = (h..e).find(|&pc| keep[pc] && code[pc].ends_block()) else {
            continue;
        };
        let Instr::Br { t, f: exit, .. } = code[k] else {
            continue;
        };
        let one_exit = t as usize == k + 1 && ((exit as usize) < h || exit as usize > e);
        let one_entry = one_exit
            && (h + 1..=e)
                .all(|pc| lo[pc] == NONE || pc > k && lo[pc] as usize >= h && hi[pc] as usize <= e);
        if !one_entry {
            continue;
        }

        let id = h as u32;
        for pc in h..=e {
            if let Some(d) = code[pc].dst().filter(|_| keep[pc]) {
                if written[d as usize] != id {
                    written[d as usize] = id;
                    writes[d as usize] = 0;
                }
                writes[d as usize] += 1;
            }
        }
        let invariant = |ins: &Instr, written: &[u32]| {
            let mut inv = is_pure(ins);
            ins.for_each_source(|s| inv &= written[s as usize] != id);
            inv
        };

        let mut test = Vec::new();
        for pc in (h..k).filter(|&pc| keep[pc]) {
            let ins = &code[pc];
            match ins.dst() {
                Some(d) if invariant(ins, &written) && writes[d as usize] == 1 => {
                    written[d as usize] = NONE;
                }
                _ => test.push(ins.clone()),
            }
        }
        test.push(code[k].clone());
        let pure = test.iter().rev().skip(1).all(is_pure);
        if !pure || test.len() > MAX_TEST {
            continue;
        }

        let (mut hoisted, mut pre) = (Vec::new(), Vec::new());
        let block = &blocks.cfg.block;
        for pc in (k + 1..e).take_while(|&pc| block[pc] == block[k + 1]) {
            let ins = &code[pc];
            if !keep[pc] {
                continue;
            }
            if ins.has_side_effects() {
                break;
            }
            let can_fail = matches!(
                ins,
                Instr::Bin {
                    op: BinOp::Div | BinOp::Rem,
                    kind: PrimKind::Int | PrimKind::Long,
                    ..
                }
            );
            match ins.dst() {
                Some(d)
                    if !can_fail
                        && invariant(ins, &written)
                        && blocks.local[d as usize] == pc as u32 =>
                {
                    written[d as usize] = NONE;
                    hoisted.push(pc as u32);
                    pre.push(ins.clone());
                }
                _ => {}
            }
        }
        loops.push(Rotation {
            body: k as u32 + 1,
            latch: e as u32,
            hoisted,
            pre,
            test,
        });
    }
    loops
}

/// Scalar replacement of aggregates: a heap object that is allocated in
/// this function and only ever used as the direct receiver of
/// `GetField`/`PutField` — possibly through single-assignment `Mov`
/// aliases (inlined call arguments) — is replaced by one register per
/// field slot. The shaped modes initialize every slot at the allocation
/// site; a Virtual-mode constructor leaves an unassigned field at the
/// heap's zero, so a read of a slot that no `PutField` writes is that
/// zero (or, for a reference or array slot, the unwritten register), and
/// a primitive slot that a read may reach before any write (a
/// constructor that reads a field it assigns later) is zeroed where its
/// object is allocated.
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

    // Slot register types, inferred from accesses, and the written slots.
    let mut slot_ty: HashMap<(Reg, u32), crate::ir::Ty> = HashMap::new();
    let mut written: HashSet<(Reg, u32)> = HashSet::new();
    for ins in &f.code {
        match ins {
            Instr::PutField { obj, slot, src } => {
                if let Some(&r) = root.get(obj) {
                    slot_ty.entry((r, *slot)).or_insert(f.regs[*src as usize]);
                    written.insert((r, *slot));
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
    let mut allocs: Vec<(usize, Reg)> = Vec::new();
    let old = std::mem::take(&mut f.code);
    for ins in old {
        match ins {
            Instr::NewObj { dst, .. } if root.get(&dst) == Some(&dst) => {
                allocs.push((f.code.len(), dst));
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
                // An unwritten slot gets its register too, so a function
                // whose read of it is dead keeps its register count.
                let sr = *slot_regs.entry((r, slot)).or_insert_with(|| {
                    f.regs.push(ty);
                    f.regs.len() as Reg - 1
                });
                match ty.prim() {
                    Some(k) if !written.contains(&(r, slot)) => {
                        f.code.push(ConstVal::zero(k).instr(dst))
                    }
                    _ => f.code.push(Instr::Mov(dst, sr)),
                }
            }
            other => f.code.push(other),
        }
    }

    // Zero each slot register that a read may reach unwritten, before
    // every allocation of its object: one register per check, until every
    // read is definitely assigned (or the one left is no slot's). The
    // checker sees each placeholder self-move, which DCE drops, as the
    // write it stands in for rather than as a read.
    let rewritten = std::mem::take(&mut f.code);
    let mut zeroed: Vec<(Reg, Instr)> = Vec::new();
    loop {
        f.code = insert_before(&rewritten, |pc| {
            let at = allocs.iter().find(|(a, _)| *a == pc).map(|(_, r)| *r);
            (zeroed.iter())
                .filter(move |(r, _)| Some(*r) == at)
                .map(|(_, ins)| ins.clone())
        });
        let mut probe = f.clone();
        for ins in &mut probe.code {
            if let Instr::Mov(d, s) = *ins {
                if d == s {
                    *ins = Instr::ConstI32(d, 0);
                }
            }
        }
        let Ok(cfg) = Cfg::of(&probe.code) else {
            return;
        };
        let Err((_, reg)) = crate::verify::definitely_assigned(&probe, &cfg) else {
            return;
        };
        let slot = slot_regs.iter().find(|(_, sr)| **sr == reg);
        let (Some((&(r, _), _)), Some(k)) = (slot, f.regs[reg as usize].prim()) else {
            return;
        };
        if zeroed.iter().any(|(_, ins)| ins.dst() == Some(reg)) {
            return;
        }
        zeroed.push((r, ConstVal::zero(k).instr(reg)));
    }
}

/// `code` with `extra(pc)`, which holds no branch, inserted before each
/// pc, and branch targets remapped so that a jump to a pc runs what was
/// inserted before it.
fn insert_before<I: Iterator<Item = Instr>>(
    code: &[Instr],
    mut extra: impl FnMut(usize) -> I,
) -> Vec<Instr> {
    let mut new_pc = Vec::with_capacity(code.len() + 1);
    let mut out = Vec::with_capacity(code.len());
    for (pc, ins) in code.iter().enumerate() {
        new_pc.push(out.len() as u32);
        out.extend(extra(pc));
        out.push(ins.clone());
    }
    new_pc.push(out.len() as u32);
    for ins in &mut out {
        ins.for_each_target_mut(|t| *t = new_pc[*t as usize]);
    }
    out
}

/// How `callee` splices: whether its parameters need copies (only when
/// it writes one; otherwise the call's arguments stand in for them),
/// where each of its instructions lands relative to the splice start, and
/// the spliced length. A `Ret` becomes a `Mov` of the result (when the
/// call has a destination) and a `Jmp` to the continuation; the final
/// `Ret` falls through instead, so its `Mov` stays in the caller's block
/// for copy propagation to remove. A splice therefore never retires more
/// instructions than the `Call` and `Ret` it replaces.
fn splice_layout(callee: &Function, has_dst: bool) -> (bool, Vec<u32>, u32) {
    let params = callee.params.len() as Reg;
    let copies = callee
        .code
        .iter()
        .any(|ins| ins.dst().is_some_and(|d| d < params));
    let mut at = Vec::with_capacity(callee.code.len() + 1);
    let mut cur = if copies { params } else { 0 };
    for (pc, ins) in callee.code.iter().enumerate() {
        at.push(cur);
        cur += match ins {
            Instr::Ret(r) => {
                u32::from(has_dst && r.is_some()) + u32::from(pc + 1 != callee.code.len())
            }
            _ => 1,
        };
    }
    at.push(cur);
    (copies, at, cur)
}

/// Splice every call that [`splices`] accepts, in one pass over `f`: the
/// new pc of every instruction is computed once, then the code is
/// rebuilt with each branch target remapped once.
fn inline_calls(f: &mut Function, done: &[Arc<Function>], limit: usize) {
    let kind = f.kind;
    let site = |ins: &Instr| splices(ins, kind, done, limit);
    if !f.code.iter().any(|ins| site(ins).is_some()) {
        return;
    }
    let mut new_pc = Vec::with_capacity(f.code.len() + 1);
    let mut cur = 0u32;
    for ins in &f.code {
        new_pc.push(cur);
        cur += match (ins, site(ins)) {
            (Instr::Call { dst, .. }, Some(callee)) => splice_layout(callee, dst.is_some()).2,
            _ => 1,
        };
    }
    new_pc.push(cur);

    let old = std::mem::replace(&mut f.code, Vec::with_capacity(cur as usize));
    for (pc, ins) in old.into_iter().enumerate() {
        match (site(&ins), ins) {
            (Some(callee), Instr::Call { args, dst, .. }) => {
                let (copies, at, _) = splice_layout(callee, dst.is_some());
                let base = f.regs.len() as Reg;
                f.regs.extend(&callee.regs);
                let reg = |r: Reg| match args.get(r as usize) {
                    Some(&a) if !copies => a,
                    _ => base + r,
                };
                if copies {
                    for (i, a) in args.iter().enumerate() {
                        f.code.push(Instr::Mov(base + i as Reg, *a));
                    }
                }
                let start = new_pc[pc];
                for (cpc, ins) in callee.code.iter().enumerate() {
                    let mut ins = ins.clone();
                    ins.for_each_source_mut(|r| *r = reg(*r));
                    if let Some(d) = ins.dst_mut() {
                        *d = reg(*d);
                    }
                    ins.for_each_target_mut(|t| *t = start + at[*t as usize]);
                    match ins {
                        Instr::Ret(r) => {
                            if let (Some(d), Some(r)) = (dst, r) {
                                f.code.push(Instr::Mov(d, r));
                            }
                            if cpc + 1 != callee.code.len() {
                                f.code.push(Instr::Jmp(new_pc[pc + 1]));
                            }
                        }
                        other => f.code.push(other),
                    }
                }
            }
            (_, mut other) => {
                other.for_each_target_mut(|t| *t = new_pc[*t as usize]);
                f.code.push(other);
            }
        }
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
        p.verify().unwrap();
    }

    #[test]
    fn sroa_reads_zero_from_a_slot_no_put_writes() {
        // A Virtual-mode constructor, spliced: `o = new C; o.0 = p;
        // return o.0 + o.1`, where slot 1 keeps the heap's zero.
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let o = fb.reg(Ty::Obj);
        let a = fb.reg(Ty::I32);
        let b = fb.reg(Ty::I32);
        let c = fb.reg(Ty::I32);
        fb.emit(Instr::NewObj { class: 0, dst: o });
        fb.emit(Instr::PutField {
            obj: o,
            slot: 0,
            src: 0,
        });
        fb.emit(Instr::GetField {
            obj: o,
            slot: 0,
            dst: a,
        });
        fb.emit(Instr::GetField {
            obj: o,
            slot: 1,
            dst: b,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: c,
            lhs: a,
            rhs: b,
        });
        fb.emit(Instr::Ret(Some(c)));
        let mut p = Program::default();
        p.classes.push(crate::ClassMeta {
            name: "C".into(),
            field_count: 2,
            vtable: Vec::new(),
        });
        p.add_func(fb.finish().unwrap());
        optimize(&mut p, OptConfig::aggressive());
        let f = &p.funcs[0];
        assert!(
            !(f.code.iter()).any(|i| matches!(i, Instr::NewObj { .. } | Instr::GetField { .. })),
            "the object is scalar-replaced: {:?}",
            f.code
        );
        p.verify().unwrap();
    }

    #[test]
    fn sroa_zeroes_a_slot_read_before_its_write() {
        // A Virtual-mode constructor that reads a field it assigns later,
        // in a loop: `o = new C; do { a = o.0; o.0 = a + p; } while (a
        // == 0); return a`. The first read is the heap's zero.
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let o = fb.reg(Ty::Obj);
        let a = fb.reg(Ty::I32);
        let b = fb.reg(Ty::I32);
        let zero = fb.reg(Ty::I32);
        let again = fb.reg(Ty::Bool);
        fb.emit(Instr::NewObj { class: 0, dst: o });
        fb.emit(Instr::GetField {
            obj: o,
            slot: 0,
            dst: a,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: b,
            lhs: a,
            rhs: 0,
        });
        fb.emit(Instr::PutField {
            obj: o,
            slot: 0,
            src: b,
        });
        fb.emit(Instr::ConstI32(zero, 0));
        fb.emit(Instr::Bin {
            op: BinOp::Eq,
            kind: PrimKind::Int,
            dst: again,
            lhs: a,
            rhs: zero,
        });
        fb.emit(Instr::Br {
            cond: again,
            t: 1,
            f: 7,
        });
        fb.emit(Instr::Ret(Some(a)));
        let mut p = Program::default();
        p.classes.push(crate::ClassMeta {
            name: "C".into(),
            field_count: 1,
            vtable: Vec::new(),
        });
        p.add_func(fb.finish().unwrap());
        p.verify().unwrap();
        optimize(&mut p, OptConfig::aggressive());
        let f = &p.funcs[0];
        assert!(
            !(f.code.iter()).any(|i| matches!(i, Instr::NewObj { .. } | Instr::GetField { .. })),
            "the object is scalar-replaced: {:?}",
            f.code
        );
        p.verify()
            .unwrap_or_else(|e| panic!("{e}: {:?}", p.funcs[0].code));
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
        p.verify().unwrap();
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
        p.verify().unwrap();
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
        p.verify().unwrap();
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
        p.verify().unwrap();
    }

    fn bin(op: BinOp, dst: Reg, lhs: Reg, rhs: Reg) -> Instr {
        Instr::Bin {
            op,
            kind: PrimKind::Int,
            dst,
            lhs,
            rhs,
        }
    }

    #[test]
    fn cse_reads_a_recomputed_value_from_its_holder() {
        // fn f(x, y) { (x * y) + (x * y) }
        let mut fb = FuncBuilder::new("f", vec![Ty::I32; 2], Some(Ty::I32), FuncKind::Host);
        let (a, b, c) = (fb.reg(Ty::I32), fb.reg(Ty::I32), fb.reg(Ty::I32));
        fb.emit(bin(BinOp::Mul, a, 0, 1));
        fb.emit(bin(BinOp::Mul, b, 0, 1));
        fb.emit(bin(BinOp::Add, c, a, b));
        fb.emit(Instr::Ret(Some(c)));
        let mut p = Program::default();
        p.add_func(fb.finish().unwrap());
        optimize(&mut p, OptConfig::standard());
        let want = [
            bin(BinOp::Mul, a, 0, 1),
            bin(BinOp::Add, c, a, a),
            Instr::Ret(Some(c)),
        ];
        assert_eq!(p.funcs[0].code, want);
    }

    /// `fn f(x, n, a) { acc = 0; for (i = 0; i < bound; i++) acc += x * x; }`
    /// where `bound` is `n`, or with `pad` > 0 the last of `k1 = i + n`,
    /// `k2 = k1 + n`, …, so `pad` lengthens the test without making it
    /// invariant; with `reads_len` it is `a.length`.
    fn counted_loop(pad: usize, reads_len: bool) -> Program {
        let mut params = vec![Ty::I32; 2];
        params.push(Ty::Arr(crate::ir::ElemTy::I32));
        let mut fb = FuncBuilder::new("f", params, Some(Ty::I32), FuncKind::Host);
        let r: Vec<Reg> = (0..4).map(|_| fb.reg(Ty::I32)).collect();
        let (acc, i, one, t, c) = (r[0], r[1], r[2], r[3], fb.reg(Ty::Bool));
        fb.emit(Instr::ConstI32(acc, 0));
        fb.emit(Instr::ConstI32(i, 0));
        fb.emit(Instr::ConstI32(one, 1));
        let (head, body, exit) = (fb.label(), fb.label(), fb.label());
        fb.bind(head);
        let mut bound = 1;
        if reads_len {
            bound = fb.reg(Ty::I32);
            fb.emit(Instr::ArrLen { arr: 2, dst: bound });
        }
        for k in 0..pad {
            let next = fb.reg(Ty::I32);
            fb.emit(bin(BinOp::Add, next, if k == 0 { i } else { bound }, 1));
            bound = next;
        }
        fb.emit(bin(BinOp::Lt, c, i, bound));
        fb.br(c, body, exit);
        fb.bind(body);
        fb.emit(bin(BinOp::Mul, t, 0, 0));
        fb.emit(bin(BinOp::Add, acc, acc, t));
        fb.emit(bin(BinOp::Add, i, i, one));
        fb.jmp(head);
        fb.bind(exit);
        fb.emit(Instr::Ret(Some(acc)));
        let mut p = Program::default();
        p.add_func(fb.finish().unwrap());
        p
    }

    /// The pcs of `f`'s backward `Jmp`s and `Br`s.
    fn back_edges(f: &Function) -> (Vec<usize>, Vec<usize>) {
        let (mut jmps, mut brs) = (Vec::new(), Vec::new());
        for (pc, ins) in f.code.iter().enumerate() {
            match *ins {
                Instr::Jmp(t) if t as usize <= pc => jmps.push(pc),
                Instr::Br { t, .. } if t as usize <= pc => brs.push(pc),
                _ => {}
            }
        }
        (jmps, brs)
    }

    #[test]
    fn rotation_copies_the_test_to_the_back_edge_and_hoists_invariants() {
        let mut p = counted_loop(0, false);
        optimize(&mut p, OptConfig::standard());
        let f = &p.funcs[0];
        let (jmps, brs) = back_edges(f);
        assert!(jmps.is_empty() && brs.len() == 1, "{p}");
        let Instr::Br { t: body, .. } = f.code[brs[0]] else {
            unreachable!()
        };
        // The loop is `acc += t; i += 1; test`: `x * x` runs before it.
        assert_eq!(brs[0] + 1 - body as usize, 4, "{p}");
        let mul = f
            .code
            .iter()
            .position(|i| matches!(i, Instr::Bin { op: BinOp::Mul, .. }));
        assert!(mul.is_some_and(|pc| pc < body as usize), "{p}");
        p.verify().unwrap();
    }

    #[test]
    fn a_test_longer_than_max_test_is_not_copied() {
        for pad in [MAX_TEST - 2, MAX_TEST - 1] {
            let mut p = counted_loop(pad, false);
            optimize(&mut p, OptConfig::standard());
            let (jmps, brs) = back_edges(&p.funcs[0]);
            // The test is `pad` adds, the compare and the `Br`.
            let copied = pad + 2 <= MAX_TEST;
            assert_eq!(
                (jmps.len(), brs.len()),
                (1 - copied as usize, copied as usize),
                "{p}"
            );
        }
    }

    #[test]
    fn a_header_that_reads_memory_is_not_rotated() {
        let mut p = counted_loop(0, true);
        optimize(&mut p, OptConfig::standard());
        let (jmps, brs) = back_edges(&p.funcs[0]);
        assert_eq!((jmps.len(), brs.len()), (1, 0), "{p}");
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

/// [`local_fold`] against a second implementation written the slow,
/// obvious way, sharing no table or helper with it: facts in a `HashMap`
/// that every write scans whole (the pass `fold` replaced when it became
/// linear), result-move coalescing decided by counting a temporary's
/// writes and reads across the whole function, and common subexpressions
/// found by scanning the block back for the newest instruction that
/// computed the same value. Constants are evaluated by [`ConstVal`], which
/// `tests/const_exprs.rs` checks against the `jvm`. The shipped pass must
/// match it instruction for instruction, constants bit for bit.
#[cfg(test)]
mod fold_reference {
    use std::collections::HashMap;
    use std::time::Instant;

    use jlang::ast::BinOp;
    use jlang::types::PrimKind;

    use super::local_fold;
    use crate::ir::{ConstVal, FuncKind, Function, Instr, Reg, Ty};

    #[derive(Debug, Clone, Copy)]
    enum Known {
        Const(ConstVal),
        Copy(Reg),
    }

    /// An operand of a computation: the constant its register is known to
    /// hold (kind and bits), or else the register.
    #[derive(Debug, Clone, PartialEq)]
    enum Operand {
        Reg(Reg),
        Const(PrimKind, u64),
    }

    /// What a pure computation computes: the instruction with its
    /// destination and operands blanked, and its operands.
    #[derive(Debug, Clone, PartialEq)]
    struct Key(Instr, Vec<Operand>);

    /// The register `ins` writes, if any.
    fn dst_of(ins: &mut Instr) -> Option<&mut Reg> {
        match ins {
            Instr::ConstI32(d, _)
            | Instr::ConstI64(d, _)
            | Instr::ConstF32(d, _)
            | Instr::ConstF64(d, _)
            | Instr::ConstBool(d, _)
            | Instr::Mov(d, _) => Some(d),
            Instr::Bin { dst, .. }
            | Instr::Neg { dst, .. }
            | Instr::Not { dst, .. }
            | Instr::Cast { dst, .. }
            | Instr::NewObj { dst, .. }
            | Instr::GetField { dst, .. }
            | Instr::NewArr { dst, .. }
            | Instr::LdArr { dst, .. }
            | Instr::ArrLen { dst, .. }
            | Instr::SharedAlloc { dst, .. } => Some(dst),
            Instr::Call { dst, .. }
            | Instr::CallHost { dst, .. }
            | Instr::CallVirt { dst, .. }
            | Instr::Intrin { dst, .. } => dst.as_mut(),
            Instr::Jmp(_)
            | Instr::Br { .. }
            | Instr::Ret(_)
            | Instr::PutField { .. }
            | Instr::StArr { .. }
            | Instr::FreeArr { .. }
            | Instr::Launch { .. }
            | Instr::Sync => None,
        }
    }

    /// The registers `ins` reads, one entry per read.
    fn reads_of(ins: &mut Instr) -> Vec<&mut Reg> {
        match ins {
            Instr::Mov(_, s) => vec![s],
            Instr::Bin { lhs, rhs, .. } => vec![lhs, rhs],
            Instr::Neg { src, .. } | Instr::Not { src, .. } | Instr::Cast { src, .. } => vec![src],
            Instr::Br { cond, .. } => vec![cond],
            Instr::Ret(r) => r.iter_mut().collect(),
            Instr::Call { args, .. }
            | Instr::CallHost { args, .. }
            | Instr::Intrin { args, .. } => args.iter_mut().collect(),
            Instr::CallVirt { recv, args, .. } => std::iter::once(recv).chain(args).collect(),
            Instr::GetField { obj, .. } => vec![obj],
            Instr::PutField { obj, src, .. } => vec![obj, src],
            Instr::NewArr { len, .. } | Instr::SharedAlloc { len, .. } => vec![len],
            Instr::LdArr { arr, idx, .. } => vec![arr, idx],
            Instr::StArr { arr, idx, src } => vec![arr, idx, src],
            Instr::ArrLen { arr, .. } | Instr::FreeArr { arr } => vec![arr],
            Instr::Launch {
                grid, block, args, ..
            } => grid.iter_mut().chain(block).chain(args).collect(),
            Instr::ConstI32(..)
            | Instr::ConstI64(..)
            | Instr::ConstF32(..)
            | Instr::ConstF64(..)
            | Instr::ConstBool(..)
            | Instr::Jmp(_)
            | Instr::NewObj { .. }
            | Instr::Sync => Vec::new(),
        }
    }

    fn dst(ins: &Instr) -> Option<Reg> {
        dst_of(&mut ins.clone()).copied()
    }

    fn reads(ins: &Instr) -> Vec<Reg> {
        reads_of(&mut ins.clone()).into_iter().map(|r| *r).collect()
    }

    fn constant(ins: &Instr) -> Option<ConstVal> {
        Some(match *ins {
            Instr::ConstI32(_, v) => ConstVal::I32(v),
            Instr::ConstI64(_, v) => ConstVal::I64(v),
            Instr::ConstF32(_, v) => ConstVal::F32(v),
            Instr::ConstF64(_, v) => ConstVal::F64(v),
            Instr::ConstBool(_, v) => ConstVal::Bool(v),
            _ => return None,
        })
    }

    fn is_self_move(ins: &Instr) -> bool {
        matches!(ins, Instr::Mov(d, s) if d == s)
    }

    fn resolve(known: &HashMap<Reg, Known>, r: Reg) -> Reg {
        let mut cur = r;
        let mut hops = 0;
        while let Some(Known::Copy(s)) = known.get(&cur) {
            cur = *s;
            hops += 1;
            if hops > 32 {
                break;
            }
        }
        cur
    }

    fn const_of(known: &HashMap<Reg, Known>, r: Reg) -> Option<ConstVal> {
        match *known.get(&r)? {
            Known::Copy(s) => const_of(known, s),
            Known::Const(v) => Some(v),
        }
    }

    /// `d` was written: forget every register recorded as a copy of it.
    fn forget_copies_of(known: &mut HashMap<Reg, Known>, d: Reg) {
        let stale: Vec<Reg> = (known.iter())
            .filter(|(_, k)| matches!(k, Known::Copy(s) if *s == d))
            .map(|(r, _)| *r)
            .collect();
        for r in stale {
            known.remove(&r);
        }
    }

    /// May `pc` write `x` in place of `t`, dropping the `x = t` after it?
    /// When `pc` is a pure computation of `t`, a constant, an array load or
    /// an array length; `t` is no parameter, has `x`'s type and is written
    /// once and read once in the whole function as it was handed in.
    fn may_coalesce(f: &Function, input: &[Instr], pc: usize, x: Reg, t: Reg) -> bool {
        let def = &f.code[pc];
        let computes = matches!(
            def,
            Instr::Bin { .. }
                | Instr::Neg { .. }
                | Instr::Not { .. }
                | Instr::Cast { .. }
                | Instr::LdArr { .. }
                | Instr::ArrLen { .. }
        ) || constant(def).is_some();
        let writes = input.iter().filter(|i| dst(i) == Some(t)).count();
        let read: usize = (input.iter())
            .map(|i| reads(i).into_iter().filter(|&r| r == t).count())
            .sum();
        computes
            && dst(def) == Some(t)
            && x != t
            && t as usize >= f.params.len()
            && writes == 1
            && read == 1
            && f.regs[t as usize] == f.regs[x as usize]
    }

    /// The [`Key`] of `ins` under `known`, when it is a pure computation:
    /// arithmetic, a cast, or a pure intrinsic of at most two operands
    /// that writes a register.
    fn key(ins: &Instr, known: &HashMap<Reg, Known>) -> Option<Key> {
        let pure = match ins {
            Instr::Bin { .. } | Instr::Neg { .. } | Instr::Not { .. } | Instr::Cast { .. } => true,
            Instr::Intrin {
                op,
                args,
                dst: Some(_),
            } => op.row().is_some_and(|r| r.pure) && args.len() <= 2,
            _ => false,
        };
        if !pure {
            return None;
        }
        let operands = (reads(ins).into_iter())
            .map(|r| match const_of(known, r) {
                Some(v) => Operand::Const(v.kind(), v.bits()),
                None => Operand::Reg(r),
            })
            .collect();
        let mut blank = ins.clone();
        for r in reads_of(&mut blank) {
            *r = 0;
        }
        *dst_of(&mut blank).expect("a pure computation writes") = 0;
        Some(Key(blank, operands))
    }

    /// How often the reference folded a constant, coalesced a move and
    /// reused a value, so a test can check its functions exercise each.
    #[derive(Debug, Default, Clone, Copy)]
    struct Seen {
        folded: usize,
        coalesced: usize,
        reused: usize,
    }

    /// What `fold` makes of `f`, worked out slowly.
    fn reference(f: &mut Function) -> Seen {
        let input = f.code.clone();
        let n = f.code.len();
        // A block starts at pc 0, at a branch target and after a branch or
        // a return.
        let targets: Vec<usize> = (input.iter())
            .flat_map(|ins| match *ins {
                Instr::Jmp(t) => vec![t as usize],
                Instr::Br { t, f, .. } => vec![t as usize, f as usize],
                _ => Vec::new(),
            })
            .collect();
        let starts_block = |pc: usize| {
            pc == 0
                || targets.contains(&pc)
                || matches!(
                    input[pc - 1],
                    Instr::Jmp(_) | Instr::Br { .. } | Instr::Ret(_)
                )
        };

        let mut seen = Seen::default();
        let mut known: HashMap<Reg, Known> = HashMap::new();
        // By pc: what the instruction there computed, when it may hold it
        // for a later one: it was not itself replaced by a `Mov` and does
        // not read what it writes.
        let mut computed: Vec<Option<Key>> = vec![None; n];
        let mut block = 0;
        for pc in 0..n {
            if starts_block(pc) {
                known.clear();
                block = pc;
            }
            for r in reads_of(&mut f.code[pc]) {
                *r = resolve(&known, *r);
            }

            let folded = match f.code[pc] {
                Instr::Bin {
                    op,
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => match (const_of(&known, lhs), const_of(&known, rhs)) {
                    (Some(l), Some(r)) if l.kind() == kind => {
                        ConstVal::bin(op, l, r).map(|v| v.instr(dst))
                    }
                    _ => None,
                },
                Instr::Cast { to, dst, src, .. } => const_of(&known, src)
                    .and_then(|v| v.cast(to))
                    .map(|v| v.instr(dst)),
                _ => None,
            };
            if let Some(folded) = folded {
                f.code[pc] = folded;
                seen.folded += 1;
            }

            let mut next = pc + 1;
            while next < n && !starts_block(next) {
                let Instr::Mov(x, t) = f.code[next] else {
                    break;
                };
                if !may_coalesce(f, &input, pc, x, t) {
                    break;
                }
                *dst_of(&mut f.code[pc]).expect("coalesced") = x;
                f.code[next] = Instr::Mov(x, x);
                next += 1;
                seen.coalesced += 1;
            }

            let ins = f.code[pc].clone();
            if let (Some(d), Some(key)) = (dst(&ins), key(&ins, &known)) {
                let srcs = reads(&ins);
                let written = |r: Reg, from: usize| {
                    (from..pc).any(|i| dst(&f.code[i]) == Some(r) && !is_self_move(&f.code[i]))
                };
                // Only the newest: `fold` remembers one holder per value,
                // and an older one is never consulted.
                let newest = (block..pc)
                    .rev()
                    .find(|&j| computed[j].as_ref() == Some(&key));
                let holder = newest.and_then(|j| {
                    let h = dst(&f.code[j]).expect("a computation writes");
                    let fresh = !written(h, j + 1)
                        && (srcs.iter()).all(|&s| const_of(&known, s).is_some() || !written(s, j));
                    fresh.then_some(h)
                });
                match holder {
                    Some(h) => {
                        f.code[pc] = Instr::Mov(d, h);
                        seen.reused += 1;
                    }
                    None if !srcs.contains(&d) => computed[pc] = Some(key),
                    None => {}
                }
            }

            let ins = &f.code[pc];
            match *ins {
                Instr::Mov(d, s) if d == s => {}
                Instr::Mov(d, s) => {
                    let k = known.get(&s).copied().unwrap_or(Known::Copy(s));
                    known.insert(d, k);
                    forget_copies_of(&mut known, d);
                }
                _ => {
                    if let Some(d) = dst(ins) {
                        match constant(ins) {
                            Some(v) => known.insert(d, Known::Const(v)),
                            None => known.remove(&d),
                        };
                        forget_copies_of(&mut known, d);
                    }
                }
            }
        }
        seen
    }

    /// The same instructions, constants compared bit for bit (so a NaN
    /// equals itself and `0.0` is not `-0.0`).
    fn same(a: &[Instr], b: &[Instr]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| match (constant(x), constant(y)) {
                    (Some(u), Some(v)) => {
                        dst(x) == dst(y) && u.kind() == v.kind() && u.bits() == v.bits()
                    }
                    _ => x == y,
                })
    }

    /// Fold `f` with the shipped pass and with [`reference`].
    fn assert_matches_reference(f: &Function, what: &str) -> Seen {
        let mut want = f.clone();
        let seen = reference(&mut want);
        let mut got = f.clone();
        local_fold(&mut got);
        assert!(
            same(&got.code, &want.code),
            "{what}: folded\n{:?}\ninto\n{:?}\nreference\n{:?}",
            f.code,
            got.code,
            want.code
        );
        seen
    }

    /// Deterministic xorshift64* PRNG — same sequence on every run.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed.max(1))
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        /// Uniform-ish value in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }

        fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
            lo + (self.next_u64() % (hi - lo) as u64) as i32
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }
    }

    /// A function over `regs` registers: fold looks at operand numbers,
    /// constants and (to coalesce) whether two registers' types match, so
    /// the generator is free to reuse a small pool and make facts collide.
    fn fold_subject(regs: Vec<Ty>, code: Vec<Instr>) -> Function {
        Function {
            name: "f".into(),
            params: vec![Ty::I32],
            ret: Some(Ty::I32),
            regs,
            code,
            kind: FuncKind::Host,
        }
    }

    const KINDS: [PrimKind; 4] = [
        PrimKind::Int,
        PrimKind::Long,
        PrimKind::Float,
        PrimKind::Double,
    ];

    /// A pure computation into `dst` over the pool: arithmetic of every
    /// numeric kind, a negation, a cast from `int` or `long`, or a pure
    /// intrinsic.
    fn computation(rng: &mut Rng, dst: Reg, regs: usize) -> Instr {
        let mut r = || rng.below(regs) as Reg;
        let (a, b) = (r(), r());
        match rng.below(5) {
            0 | 1 => Instr::Bin {
                op: rng.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Rem,
                    BinOp::Lt,
                    BinOp::Shl,
                ]),
                kind: rng.pick(&KINDS),
                dst,
                lhs: a,
                rhs: b,
            },
            2 => Instr::Neg {
                kind: rng.pick(&KINDS),
                dst,
                src: a,
            },
            3 => Instr::Cast {
                to: rng.pick(&KINDS),
                from: rng.pick(&[PrimKind::Int, PrimKind::Long]),
                dst,
                src: a,
            },
            _ => Instr::Intrin {
                op: crate::IntrinOp::MaxI32,
                args: vec![a, b],
                dst: Some(dst),
            },
        }
    }

    /// A constant of a random kind into `d`; a `long` is sometimes
    /// 2^60 + 2^36 + 1, which a `float` cast must round once.
    fn load(rng: &mut Rng, d: Reg) -> Instr {
        match rng.below(6) {
            0 | 1 => Instr::ConstI32(d, rng.range_i32(-9, 9)),
            2 => Instr::ConstI64(
                d,
                rng.pick(&[(1 << 60) + (1 << 36) + 1, -3, 0, 7, i64::MIN]),
            ),
            3 => Instr::ConstF32(d, rng.pick(&[0.5, -0.0, 3.0, f32::NAN])),
            4 => Instr::ConstF64(d, rng.pick(&[0.25, 0.0, -7.5, f64::INFINITY])),
            _ => Instr::ConstBool(d, rng.below(2) == 0),
        }
    }

    /// Shapes the translator rarely produces: a small register pool
    /// written over and over, `Mov` chains past the 32-hop cap, a source
    /// redefined under its copies, `Mov(d, s)` with `s` already a copy of
    /// `d`, self-moves, constants and arithmetic of every numeric kind
    /// (operands of another kind than the operator names included),
    /// result moves (a parameter's among them), a computation repeated
    /// after its holder or an operand may have been written, and branches
    /// that land in the middle of a chain so a block starts with the facts
    /// of another.
    fn random_fold_function(rng: &mut Rng) -> Function {
        const TEMPS: usize = 8;
        let regs = rng.pick(&[3, 6, 12, 80]);
        let r = |rng: &mut Rng| rng.below(regs) as Reg;
        let mut code = Vec::new();
        let mut jumps = Vec::new();
        for _ in 0..1 + rng.below(12) {
            match rng.below(15) {
                0 => {
                    // A chain d1 = d0, d2 = d1, ... sometimes longer than the cap.
                    let len = 1 + rng.below(if regs > 40 { 48 } else { regs });
                    let start = r(rng);
                    for i in 0..len as Reg {
                        code.push(Instr::Mov(
                            (start + i + 1) % regs as Reg,
                            (start + i) % regs as Reg,
                        ));
                    }
                }
                1 => {
                    // Copies of `a`, then `a` redefined.
                    let a = r(rng);
                    for _ in 0..1 + rng.below(3) {
                        code.push(Instr::Mov(r(rng), a));
                    }
                    code.push(Instr::ConstI32(a, rng.range_i32(-9, 9)));
                }
                2 => {
                    // `s` becomes a copy of `d`, then `d` is moved from `s`.
                    let (d, s) = (r(rng), r(rng));
                    code.push(Instr::Mov(s, d));
                    code.push(Instr::Mov(d, s));
                }
                3 => {
                    let a = r(rng);
                    code.push(Instr::Mov(a, a));
                }
                4 | 5 => {
                    let d = r(rng);
                    code.push(load(rng, d));
                }
                6 => {
                    let d = r(rng);
                    code.push(computation(rng, d, regs));
                }
                7 => {
                    // A result moved on, through a temporary or two: one
                    // of the registers past the pool, which nothing else
                    // names, or the parameter, or any register.
                    let temp = |rng: &mut Rng| match rng.below(8) {
                        0 => 0,
                        1 => r(rng),
                        _ => (regs + rng.below(TEMPS)) as Reg,
                    };
                    let t = temp(rng);
                    code.push(match rng.below(4) {
                        0 => load(rng, t),
                        1 => Instr::LdArr {
                            arr: r(rng),
                            idx: r(rng),
                            dst: t,
                        },
                        2 => Instr::ArrLen {
                            arr: r(rng),
                            dst: t,
                        },
                        _ => computation(rng, t, regs),
                    });
                    let mut from = t;
                    if rng.below(2) == 0 {
                        let u = temp(rng);
                        code.push(Instr::Mov(u, t));
                        from = u;
                    }
                    let x = r(rng);
                    code.push(Instr::Mov(x, from));
                }
                8 => {
                    // A computation, maybe a write to its holder, an
                    // operand or any register, and the computation again.
                    let d = r(rng);
                    let first = computation(rng, d, regs);
                    let mut again = first.clone();
                    *dst_of(&mut again).expect("a computation writes") = r(rng);
                    let mut touched = reads(&first);
                    touched.push(dst(&first).expect("a computation writes"));
                    code.push(first);
                    if rng.below(2) == 0 {
                        let w = if rng.below(3) == 0 {
                            r(rng)
                        } else {
                            rng.pick(&touched)
                        };
                        code.push(load(rng, w));
                    }
                    code.push(again);
                }
                9 => {
                    // Constants, then a computation that may read them.
                    for _ in 0..2 {
                        let d = r(rng);
                        code.push(load(rng, d));
                    }
                    let (a, b, d) = (code.len() - 2, code.len() - 1, r(rng));
                    let mut ins = computation(rng, d, regs);
                    let loaded = [dst(&code[a]), dst(&code[b])].map(|r| r.expect("a load writes"));
                    for (r, &l) in reads_of(&mut ins).into_iter().zip(&loaded) {
                        *r = l;
                    }
                    code.push(ins);
                }
                10 => code.push(Instr::Intrin {
                    op: crate::IntrinOp::MaxI32,
                    args: vec![r(rng), r(rng)],
                    dst: (rng.below(2) == 0).then(|| r(rng)),
                }),
                11 => code.push(Instr::StArr {
                    arr: r(rng),
                    idx: r(rng),
                    src: r(rng),
                }),
                12 => {
                    jumps.push(code.len());
                    code.push(Instr::Br {
                        cond: r(rng),
                        t: 0,
                        f: 0,
                    });
                }
                _ => {
                    jumps.push(code.len());
                    code.push(Instr::Jmp(0));
                }
            }
        }
        code.push(Instr::Ret(Some(r(rng))));
        for pc in jumps {
            let (a, b) = (rng.below(code.len()) as u32, rng.below(code.len()) as u32);
            match &mut code[pc] {
                Instr::Jmp(t) => *t = a,
                Instr::Br { t, f, .. } => (*t, *f) = (a, b),
                _ => unreachable!(),
            }
        }
        // Mostly ints, so that temporaries and their targets often match.
        let types =
            (0..regs + TEMPS).map(|_| rng.pick(&[Ty::I32, Ty::I32, Ty::I32, Ty::I64, Ty::F32]));
        fold_subject(types.collect(), code)
    }

    #[test]
    fn fold_matches_the_reference_on_register_reusing_functions() {
        let mut rng = Rng::new(0x0707_0019);
        let mut total = Seen::default();
        for case in 0..2000 {
            let f = random_fold_function(&mut rng);
            let seen = assert_matches_reference(&f, &format!("case {case}"));
            total.folded += seen.folded;
            total.coalesced += seen.coalesced;
            total.reused += seen.reused;
        }
        // Every rewrite is exercised, not only checked when it happens.
        assert!(
            total.folded >= 100 && total.coalesced >= 100 && total.reused >= 100,
            "{total:?}"
        );
    }

    /// Many small blocks over many registers: what a block costs to start
    /// must be what the previous block recorded, and the facts of one block
    /// must not leak into the next. Each block copies a register the previous
    /// block defined and defines one for the next.
    #[test]
    fn fold_matches_the_reference_on_a_thousand_two_instruction_blocks() {
        let mut code = Vec::new();
        for b in 0..1000u32 {
            code.push(Instr::Mov(2 * b + 1, 2 * b));
            code.push(Instr::Br {
                cond: 2 * b + 1,
                t: 2 * b + 2,
                f: 2 * b + 2,
            });
        }
        code.push(Instr::Ret(Some(1999)));
        assert_matches_reference(&fold_subject(vec![Ty::I32; 2000], code), "1000 blocks");
    }

    /// One straight-line block in which every fact stays live: each group
    /// copies the parameter into a fresh register, loads a constant and adds
    /// the two. A pass that scans its facts on every write takes time
    /// quadratic in the block (64× for 8× the instructions); a linear one
    /// takes 8×. Best of three at each size, and a bar of 24×, so neither a
    /// descheduled run nor the larger working set can fail it.
    #[test]
    fn fold_is_linear() {
        let block = |groups: u32| {
            let mut code = Vec::new();
            for g in 0..groups {
                let (copy, k, sum) = (3 * g + 1, 3 * g + 2, 3 * g + 3);
                code.push(Instr::Mov(copy, 0));
                code.push(Instr::ConstI32(k, g as i32));
                code.push(Instr::Bin {
                    op: BinOp::Add,
                    kind: PrimKind::Int,
                    dst: sum,
                    lhs: copy,
                    rhs: k,
                });
            }
            code.push(Instr::Ret(Some(3 * groups)));
            fold_subject(vec![Ty::I32; 3 * groups as usize + 1], code)
        };
        let best_of_3 = |f: &Function| {
            (0..3)
                .map(|_| {
                    let mut f = f.clone();
                    let start = Instant::now();
                    local_fold(&mut f);
                    let wall = start.elapsed();
                    assert!(matches!(f.code[2], Instr::Bin { lhs: 0, .. }));
                    wall
                })
                .min()
                .unwrap()
        };
        let small = best_of_3(&block(4_000 / 3));
        let large = best_of_3(&block(32_000 / 3));
        assert!(
            large < small * 24,
            "fold took {small:?} on 4k instructions and {large:?} on 32k"
        );
    }
}
