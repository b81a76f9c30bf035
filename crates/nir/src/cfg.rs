//! A function's control-flow graph, the one the verifier and the
//! optimizer read. A block starts at a leader: pc 0, every branch target
//! and every instruction after a `ret`, `jmp` or `br`. A branch may target
//! `code.len()`, the function's end; an edge there leaves the function.

use crate::ir::Instr;

/// "No block" in [`Cfg::succs`]; also "no instruction" or "no register"
/// in the optimizer's index tables.
pub(crate) const NONE: u32 = u32::MAX;

/// Block leaders by pc, one past the end included. `each` sees every
/// instruction in the same sweep, before its targets are checked, and
/// its error stops the sweep; so does a branch past `code.len()`, with
/// `past(pc, target)` for its first such target.
pub(crate) fn leaders<E>(
    code: &[Instr],
    mut each: impl FnMut(usize, &Instr) -> Result<(), E>,
    past: impl FnOnce(usize, u32) -> E,
) -> Result<Vec<bool>, E> {
    let mut leader = vec![false; code.len() + 1];
    leader[0] = true;
    for (pc, ins) in code.iter().enumerate() {
        each(pc, ins)?;
        if ins.ends_block() {
            let mut out = None;
            ins.for_each_target(|t| match leader.get_mut(t as usize) {
                Some(l) => *l = true,
                None => out = out.or(Some(t)),
            });
            if let Some(t) = out {
                return Err(past(pc, t));
            }
            leader[pc + 1] = true;
        }
    }
    Ok(leader)
}

/// The basic blocks of a function and the edges between them.
#[derive(Debug)]
pub(crate) struct Cfg {
    /// By pc: its block, numbered in pc order.
    pub block: Vec<u32>,
    /// By block: its first pc; one past the last block, `code.len()`.
    pub starts: Vec<u32>,
    /// By block: where control goes after it, [`NONE`] for no edge (a
    /// `ret`, a branch to the function's end, or falling off it).
    pub succs: Vec<[u32; 2]>,
}

impl Cfg {
    /// The graph of `code`, or (pc, target) of its first branch past the end.
    pub fn of(code: &[Instr]) -> Result<Cfg, (usize, u32)> {
        leaders(code, |_, _| Ok(()), |pc, t| (pc, t)).map(|leader| Cfg::new(code, &leader))
    }

    /// The graph of `code`, whose [`leaders`] are `leader`.
    pub fn new(code: &[Instr], leader: &[bool]) -> Cfg {
        let n = code.len();
        let mut starts: Vec<u32> = (leader[..n].iter().enumerate())
            .filter_map(|(pc, &l)| l.then_some(pc as u32))
            .collect();
        starts.push(n as u32);
        let mut block = Vec::with_capacity(n);
        for (b, w) in starts.windows(2).enumerate() {
            block.extend(std::iter::repeat_n(b as u32, (w[1] - w[0]) as usize));
        }
        let to = |t: u32| block.get(t as usize).copied().unwrap_or(NONE);
        let mut succs = vec![[NONE; 2]; starts.len() - 1];
        for (s, w) in succs.iter_mut().zip(starts.windows(2)) {
            let (last, mut i) = (&code[w[1] as usize - 1], 0);
            let mut edge = |t: u32| {
                s[i] = to(t);
                i += 1;
            };
            if last.ends_block() {
                last.for_each_target(edge);
            } else {
                edge(w[1]);
            }
        }
        Cfg {
            block,
            starts,
            succs,
        }
    }

    /// By block: is it on a cycle, i.e. in a strongly connected component
    /// of more than one block, or its own successor? Tarjan's algorithm
    /// from the entry block, iteratively (the recursion would be as deep as
    /// the function is long).
    pub fn on_cycles(&self) -> Vec<bool> {
        let nb = self.starts.len() - 1;
        let mut on_cycle = vec![false; nb];
        if nb == 0 {
            return on_cycle;
        }
        let mut index = vec![NONE; nb];
        let mut low = vec![0u32; nb];
        let mut on_stack = vec![false; nb];
        let mut stack: Vec<u32> = vec![0];
        // The explicit call stack: (block, next successor slot to visit).
        let mut calls: Vec<(u32, u8)> = vec![(0, 0)];
        index[0] = 0;
        on_stack[0] = true;
        let mut next = 1;
        while let Some(top) = calls.last_mut() {
            let (b, slot) = *top;
            let bu = b as usize;
            if slot < 2 {
                top.1 += 1;
                let s = self.succs[bu][slot as usize];
                if s == NONE {
                    continue;
                }
                let su = s as usize;
                if s == b {
                    on_cycle[bu] = true;
                } else if index[su] == NONE {
                    index[su] = next;
                    low[su] = next;
                    next += 1;
                    stack.push(s);
                    on_stack[su] = true;
                    calls.push((s, 0));
                } else if on_stack[su] {
                    low[bu] = low[bu].min(index[su]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(parent, _)) = calls.last() {
                low[parent as usize] = low[parent as usize].min(low[bu]);
            }
            if low[bu] == index[bu] {
                // `b` roots a component: everything above it on the stack.
                let root = stack
                    .iter()
                    .rposition(|&m| m == b)
                    .expect("a component's root is on the stack");
                let cycle = stack.len() - root > 1;
                for &m in &stack[root..] {
                    on_stack[m as usize] = false;
                    on_cycle[m as usize] |= cycle;
                }
                stack.truncate(root);
            }
        }
        on_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u32 = NONE;

    fn op() -> Instr {
        Instr::ConstI32(0, 0)
    }

    fn br(t: u32, f: u32) -> Instr {
        Instr::Br { cond: 0, t, f }
    }

    fn ret() -> Instr {
        Instr::Ret(None)
    }

    /// `Cfg::of(code)`, checked against the expected block of each pc,
    /// successors of each block and blocks on a cycle; `starts` must be
    /// where `block` changes.
    fn check(code: &[Instr], block: &[u32], succs: &[[u32; 2]], on_cycles: &[bool]) {
        let cfg = Cfg::of(code).unwrap();
        let mut starts: Vec<u32> = (0..code.len() as u32)
            .filter(|&pc| pc == 0 || block[pc as usize] != block[pc as usize - 1])
            .collect();
        starts.push(code.len() as u32);
        assert_eq!(cfg.block, block, "block of {code:?}");
        assert_eq!(cfg.starts, starts, "starts of {code:?}");
        assert_eq!(cfg.succs, succs, "succs of {code:?}");
        assert_eq!(cfg.on_cycles(), on_cycles, "on_cycles of {code:?}");
    }

    #[test]
    fn straight_line_is_one_block() {
        check(&[op(), op(), ret()], &[0, 0, 0], &[[N, N]], &[false]);
    }

    #[test]
    fn if_else_joins_by_a_jump_and_a_fall_through() {
        // b0: br b1 b2; b1: op, jmp b3; b2: op (falls into b3); b3: ret
        let code = [br(1, 3), op(), Instr::Jmp(4), op(), ret()];
        let succs = [[1, 2], [3, N], [3, N], [N, N]];
        check(&code, &[0, 1, 1, 2, 3], &succs, &[false; 4]);
    }

    #[test]
    fn a_while_loop_is_a_cycle_its_exit_is_not() {
        // b0: op; b1: br b2 b3; b2: op, jmp b1; b3: ret
        let code = [op(), br(2, 4), op(), Instr::Jmp(1), ret()];
        let succs = [[1, N], [2, 3], [1, N], [N, N]];
        check(&code, &[0, 1, 2, 2, 3], &succs, &[false, true, true, false]);
    }

    #[test]
    fn nested_loops_put_every_block_between_on_the_cycle() {
        // The outer loop b1..=b5 holds the inner one b3..=b4. Its back
        // edge is b5 -> b1, yet b2 (no back edge's end) is on it too.
        let code = [
            op(),
            br(2, 8),
            op(),
            br(4, 6),
            op(),
            Instr::Jmp(3),
            op(),
            Instr::Jmp(1),
            ret(),
        ];
        let succs = [[1, N], [2, 6], [3, N], [4, 5], [3, N], [1, N], [N, N]];
        let cycles = [false, true, true, true, true, true, false];
        check(&code, &[0, 1, 2, 3, 4, 4, 5, 5, 6], &succs, &cycles);
    }

    #[test]
    fn a_block_that_branches_to_itself_is_on_a_cycle() {
        let code = [op(), op(), br(1, 3), ret()];
        check(
            &code,
            &[0, 1, 1, 2],
            &[[1, N], [1, 2], [N, N]],
            &[false, true, false],
        );
    }

    #[test]
    fn an_irreducible_two_entry_cycle_is_found() {
        // b0 enters the cycle b1 <-> b2 at either block.
        let code = [br(1, 3), op(), Instr::Jmp(3), op(), br(1, 5), ret()];
        let succs = [[1, 2], [2, N], [1, 3], [N, N]];
        check(
            &code,
            &[0, 1, 1, 2, 2, 3],
            &succs,
            &[false, true, true, false],
        );
    }

    #[test]
    fn code_after_a_ret_starts_a_block_and_an_unreachable_cycle_is_none() {
        // pc 1 leads a block only because a `ret` ends the one before;
        // b2 loops on itself but no path from pc 0 reaches it.
        let code = [ret(), op(), op(), Instr::Jmp(2)];
        let succs = [[N, N], [2, N], [2, N]];
        check(&code, &[0, 1, 2, 2], &succs, &[false; 3]);
    }

    #[test]
    fn a_branch_to_the_end_leaves_the_function() {
        check(&[br(1, 2), ret()], &[0, 1], &[[1, N], [N, N]], &[false; 2]);
        check(&[op(), Instr::Jmp(2)], &[0, 0], &[[N, N]], &[false]);
        // Falling off the end has no successor either.
        check(&[op(), op()], &[0, 0], &[[N, N]], &[false]);
    }

    #[test]
    fn a_branch_past_the_end_is_its_pc_and_first_such_target() {
        let err = |code: &[Instr]| Cfg::of(code).unwrap_err();
        assert_eq!(err(&[op(), br(5, 2), ret()]), (1, 5));
        assert_eq!(err(&[Instr::Jmp(7)]), (0, 7));
        assert_eq!(err(&[br(0, 9)]), (0, 9));
        assert_eq!(err(&[br(8, 9)]), (0, 8));
        // The sweep stops there: `each` sees nothing after the branch.
        let mut seen = 0;
        let each = |_, _: &Instr| {
            seen += 1;
            Ok(())
        };
        let past = leaders(&[op(), Instr::Jmp(9), op()], each, |pc, t| (pc, t));
        assert_eq!((past, seen), (Err((1, 9)), 2));
    }

    #[test]
    fn empty_code_has_no_block() {
        check(&[], &[], &[], &[]);
    }
}
