//! MPI-sim collectives and messaging edge cases: broadcast, max-reduce,
//! mixed collectives, an early return at a barrier, FIFO ordering, tag
//! separation, and cost-model monotonicity.

use exec::{ArrStore, Val};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use mpi_sim::{CostModel, SimError, World, WorldRun};
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, Instr, IntrinOp, Program, Ty};

/// Every rank calls bcastF(buf, 0, 4, root=1) and returns buf[0]. Rank 1
/// pre-fills its buffer; everyone must end up with rank 1's data.
fn bcast_program() -> (Program, FuncId) {
    let mut fb = FuncBuilder::new(
        "bc",
        vec![Ty::Arr(ElemTy::F32)],
        Some(Ty::F32),
        FuncKind::Host,
    );
    let zero = fb.reg(Ty::I32);
    let four = fb.reg(Ty::I32);
    let one = fb.reg(Ty::I32);
    let out = fb.reg(Ty::F32);
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(four, 4));
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiBcastF32,
        args: vec![0, zero, four, one],
        dst: None,
    });
    fb.emit(Instr::LdArr {
        arr: 0,
        idx: zero,
        dst: out,
    });
    fb.emit(Instr::Ret(Some(out)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.verify().unwrap();
    (p, id)
}

#[test]
fn broadcast_distributes_the_roots_buffer() {
    let (p, entry) = bcast_program();
    let world = World::new(&p, 4);
    let run = world
        .run(entry, |r, machine| {
            let v = if r == 1 { 42.5 } else { r as f32 };
            Ok(vec![Val::Arr(machine.mem.alloc(ArrStore::F32(vec![v; 4])))])
        })
        .unwrap();
    for (r, out) in run.ranks.iter().enumerate() {
        assert_eq!(out.result, Some(Val::F32(42.5)), "rank {r}");
    }
    // The payload's cost is communication like the rest of the wait.
    assert_clocks_add_up(&run);
}

/// Every rank's clock is its compute plus its communication, nothing else.
fn assert_clocks_add_up(run: &WorldRun) {
    for (r, out) in run.ranks.iter().enumerate() {
        assert_eq!(
            out.vclock,
            out.compute_cycles + out.comm_cycles,
            "rank {r}: vclock vs compute {} + comm {}",
            out.compute_cycles,
            out.comm_cycles
        );
    }
}

/// `r = MPI.rank()`; rank 0 runs what `zero_arm` emits, every other rank
/// what `rest_arm` emits, then each returns its rank.
fn split_program(
    name: &str,
    zero_arm: fn(&mut FuncBuilder),
    rest_arm: fn(&mut FuncBuilder),
) -> (Program, FuncId) {
    let mut fb = FuncBuilder::new(name, vec![], Some(Ty::I32), FuncKind::Host);
    let rank = fb.reg(Ty::I32);
    let zero = fb.reg(Ty::I32);
    let cond = fb.reg(Ty::Bool);
    let (first, rest, done) = (fb.label(), fb.label(), fb.label());
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRank,
        args: vec![],
        dst: Some(rank),
    });
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::Bin {
        op: BinOp::Eq,
        kind: PrimKind::Int,
        dst: cond,
        lhs: rank,
        rhs: zero,
    });
    fb.br(cond, first, rest);
    fb.bind(first);
    zero_arm(&mut fb);
    fb.jmp(done);
    fb.bind(rest);
    rest_arm(&mut fb);
    fb.jmp(done);
    fb.bind(done);
    fb.emit(Instr::Ret(Some(rank)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.verify().unwrap();
    (p, id)
}

fn barrier(fb: &mut FuncBuilder) {
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiBarrier,
        args: vec![],
        dst: None,
    });
}

fn allreduce_one(fb: &mut FuncBuilder) {
    let (v, sum) = (fb.reg(Ty::F64), fb.reg(Ty::F64));
    fb.emit(Instr::ConstF64(v, 1.0));
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiAllreduceSumF64,
        args: vec![v],
        dst: Some(sum),
    });
}

/// A collective completes only when every live rank waits at the same
/// kind: a barrier and an allreduce never meet, whatever their count.
#[test]
fn mixed_collectives_deadlock_with_each_rank_named() {
    let (p, entry) = split_program("mixed", barrier, allreduce_one);
    let e = World::new(&p, 4).run(entry, |_, _| Ok(vec![])).unwrap_err();
    let SimError::Deadlock { report } = &e else {
        panic!("expected a deadlock, got {e}");
    };
    assert!(report.contains("rank 0: blocked on Barrier"), "{report}");
    assert!(report.contains("rank 3: blocked on Allreduce"), "{report}");
}

/// A rank that returns before a barrier does not hold it back: the
/// barrier completes over the ranks still running (DESIGN §6's caveat).
#[test]
fn a_rank_that_returned_does_not_hold_a_barrier_back() {
    let (p, entry) = split_program("early", |_| {}, barrier);
    let run = World::new(&p, 4).run(entry, |_, _| Ok(vec![])).unwrap();
    for (r, out) in run.ranks.iter().enumerate() {
        assert_eq!(out.result, Some(Val::I32(r as i32)), "rank {r}");
    }
    assert_clocks_add_up(&run);
}

/// `allreduce<op>(5.0)`.
fn allreduce_five(fb: &mut FuncBuilder, op: IntrinOp) {
    let (v, out) = (fb.reg(Ty::F64), fb.reg(Ty::F64));
    fb.emit(Instr::ConstF64(v, 5.0));
    fb.emit(Instr::Intrin {
        op,
        args: vec![v],
        dst: Some(out),
    });
}

/// `buf = new float[4]; buf[3] = 9; bcastF(buf, 0, count, root)`.
fn bcast_into_four(fb: &mut FuncBuilder, count: i32, root: i32) {
    let buf = fb.reg(Ty::Arr(ElemTy::F32));
    let (four, three, nine) = (fb.reg(Ty::I32), fb.reg(Ty::I32), fb.reg(Ty::F32));
    let (zero, n, at) = (fb.reg(Ty::I32), fb.reg(Ty::I32), fb.reg(Ty::I32));
    fb.emit(Instr::ConstI32(four, 4));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: four,
        dst: buf,
    });
    fb.emit(Instr::ConstI32(three, 3));
    fb.emit(Instr::ConstF32(nine, 9.0));
    fb.emit(Instr::StArr {
        arr: buf,
        idx: three,
        src: nine,
    });
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(n, count));
    fb.emit(Instr::ConstI32(at, root));
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiBcastF32,
        args: vec![buf, zero, n, at],
        dst: None,
    });
}

/// An allreduce or broadcast whose ranks disagree is an erroneous MPI
/// program: refused typed, naming every rank and what it passed, where
/// it used to complete under the first rank's op, root or count.
#[test]
fn collectives_whose_ranks_disagree_are_refused_naming_each_rank() {
    type Arm = fn(&mut FuncBuilder);
    let cases: [(&str, Arm, Arm, &[&str]); 3] = [
        (
            "ops",
            |fb| allreduce_five(fb, IntrinOp::MpiAllreduceSumF64),
            |fb| allreduce_five(fb, IntrinOp::MpiAllreduceMaxF64),
            &[
                "ranks disagree at an allreduce",
                "rank 0 passed mpi.allreduceSumD",
                "rank 1 passed mpi.allreduceMaxD",
            ],
        ),
        (
            "counts",
            |fb| bcast_into_four(fb, 4, 0),
            |fb| bcast_into_four(fb, 2, 0),
            &[
                "ranks disagree at a broadcast",
                "rank 0 passed root 0, count 4",
                "rank 1 passed root 0, count 2",
            ],
        ),
        (
            "roots",
            |fb| bcast_into_four(fb, 4, 0),
            |fb| bcast_into_four(fb, 4, 1),
            &[
                "rank 0 passed root 0, count 4",
                "rank 1 passed root 1, count 4",
            ],
        ),
    ];
    for (name, zero_arm, rest_arm, want) in cases {
        let (p, entry) = split_program(name, zero_arm, rest_arm);
        let e = World::new(&p, 2).run(entry, |_, _| Ok(vec![])).unwrap_err();
        let SimError::World { message } = &e else {
            panic!("{name}: expected a world error, got {e}");
        };
        for w in want {
            assert!(message.contains(w), "{name}: {message}");
        }
    }
    // Ranks that agree still complete.
    let agree: Arm = |fb| bcast_into_four(fb, 4, 0);
    let (p, entry) = split_program("agree", agree, agree);
    World::new(&p, 2).run(entry, |_, _| Ok(vec![])).unwrap();
}

fn allreduce_max_program() -> (Program, FuncId) {
    let mut fb = FuncBuilder::new("mx", vec![Ty::F64], Some(Ty::F64), FuncKind::Host);
    let out = fb.reg(Ty::F64);
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiAllreduceMaxF64,
        args: vec![0],
        dst: Some(out),
    });
    fb.emit(Instr::Ret(Some(out)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    (p, id)
}

#[test]
fn allreduce_max_takes_the_maximum() {
    let (p, entry) = allreduce_max_program();
    let world = World::new(&p, 5);
    let run = world
        .run(entry, |r, _| Ok(vec![Val::F64((r as f64 - 2.0) * 3.0)]))
        .unwrap();
    for out in &run.ranks {
        assert_eq!(out.result, Some(Val::F64(6.0))); // rank 4: (4-2)*3
    }
}

/// Rank 0 sends two messages with the same tag; rank 1 receives twice and
/// must get them in order (FIFO per (src, dest, tag)).
fn fifo_program() -> (Program, FuncId) {
    let mut fb = FuncBuilder::new("fifo", vec![], Some(Ty::F32), FuncKind::Host);
    let rank = fb.reg(Ty::I32);
    let zero = fb.reg(Ty::I32);
    let one = fb.reg(Ty::I32);
    let n = fb.reg(Ty::I32);
    let buf = fb.reg(Ty::Arr(ElemTy::F32));
    let v1 = fb.reg(Ty::F32);
    let v2 = fb.reg(Ty::F32);
    let cond = fb.reg(Ty::Bool);
    let out = fb.reg(Ty::F32);
    let sender = fb.label();
    let receiver = fb.label();
    let done = fb.label();
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRank,
        args: vec![],
        dst: Some(rank),
    });
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::ConstI32(n, 1));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: n,
        dst: buf,
    });
    fb.emit(Instr::ConstF32(out, 0.0));
    fb.emit(Instr::Bin {
        op: BinOp::Eq,
        kind: PrimKind::Int,
        dst: cond,
        lhs: rank,
        rhs: zero,
    });
    fb.br(cond, sender, receiver);
    fb.bind(sender);
    // send 10.0 then 20.0, same tag
    fb.emit(Instr::ConstF32(v1, 10.0));
    fb.emit(Instr::StArr {
        arr: buf,
        idx: zero,
        src: v1,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendF32,
        args: vec![buf, zero, n, one, zero],
        dst: None,
    });
    fb.emit(Instr::ConstF32(v2, 20.0));
    fb.emit(Instr::StArr {
        arr: buf,
        idx: zero,
        src: v2,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendF32,
        args: vec![buf, zero, n, one, zero],
        dst: None,
    });
    fb.jmp(done);
    fb.bind(receiver);
    // recv twice: out = first + 0.001 * second
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRecvF32,
        args: vec![buf, zero, n, zero, zero],
        dst: None,
    });
    fb.emit(Instr::LdArr {
        arr: buf,
        idx: zero,
        dst: v1,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRecvF32,
        args: vec![buf, zero, n, zero, zero],
        dst: None,
    });
    fb.emit(Instr::LdArr {
        arr: buf,
        idx: zero,
        dst: v2,
    });
    fb.emit(Instr::ConstF32(out, 0.001));
    fb.emit(Instr::Bin {
        op: BinOp::Mul,
        kind: PrimKind::Float,
        dst: v2,
        lhs: v2,
        rhs: out,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Float,
        dst: out,
        lhs: v1,
        rhs: v2,
    });
    fb.jmp(done);
    fb.bind(done);
    fb.emit(Instr::Ret(Some(out)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.verify().unwrap();
    (p, id)
}

#[test]
fn same_tag_messages_arrive_in_fifo_order() {
    let (p, entry) = fifo_program();
    let world = World::new(&p, 2);
    let run = world.run(entry, |_, _| Ok(vec![])).unwrap();
    // receiver: 10.0 + 0.001 * 20.0
    assert_eq!(run.ranks[1].result, Some(Val::F32(10.0 + 0.001 * 20.0)));
}

/// Messages with different tags match the receive with the same tag, not
/// arrival order.
fn tag_program() -> (Program, FuncId) {
    let mut fb = FuncBuilder::new("tags", vec![], Some(Ty::F32), FuncKind::Host);
    let rank = fb.reg(Ty::I32);
    let zero = fb.reg(Ty::I32);
    let one = fb.reg(Ty::I32);
    let seven = fb.reg(Ty::I32);
    let n = fb.reg(Ty::I32);
    let buf = fb.reg(Ty::Arr(ElemTy::F32));
    let v = fb.reg(Ty::F32);
    let cond = fb.reg(Ty::Bool);
    let out = fb.reg(Ty::F32);
    let sender = fb.label();
    let receiver = fb.label();
    let done = fb.label();
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRank,
        args: vec![],
        dst: Some(rank),
    });
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::ConstI32(seven, 7));
    fb.emit(Instr::ConstI32(n, 1));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: n,
        dst: buf,
    });
    fb.emit(Instr::ConstF32(out, 0.0));
    fb.emit(Instr::Bin {
        op: BinOp::Eq,
        kind: PrimKind::Int,
        dst: cond,
        lhs: rank,
        rhs: zero,
    });
    fb.br(cond, sender, receiver);
    fb.bind(sender);
    // send tag 0 = 1.0 first, then tag 7 = 2.0
    fb.emit(Instr::ConstF32(v, 1.0));
    fb.emit(Instr::StArr {
        arr: buf,
        idx: zero,
        src: v,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendF32,
        args: vec![buf, zero, n, one, zero],
        dst: None,
    });
    fb.emit(Instr::ConstF32(v, 2.0));
    fb.emit(Instr::StArr {
        arr: buf,
        idx: zero,
        src: v,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendF32,
        args: vec![buf, zero, n, one, seven],
        dst: None,
    });
    fb.jmp(done);
    fb.bind(receiver);
    // receive tag 7 FIRST: must get 2.0 even though tag-0 arrived first
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRecvF32,
        args: vec![buf, zero, n, zero, seven],
        dst: None,
    });
    fb.emit(Instr::LdArr {
        arr: buf,
        idx: zero,
        dst: out,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRecvF32,
        args: vec![buf, zero, n, zero, zero],
        dst: None,
    });
    fb.jmp(done);
    fb.bind(done);
    fb.emit(Instr::Ret(Some(out)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.verify().unwrap();
    (p, id)
}

#[test]
fn tags_select_matching_messages() {
    let (p, entry) = tag_program();
    let world = World::new(&p, 2);
    let run = world.run(entry, |_, _| Ok(vec![])).unwrap();
    assert_eq!(run.ranks[1].result, Some(Val::F32(2.0)));
}

#[test]
fn collective_cost_scales_with_world_size() {
    let (p, entry) = allreduce_max_program();
    let t = |size: u32| {
        World::new(&p, size)
            .with_cost(CostModel {
                alpha: 1000,
                beta: 0.5,
                collective_alpha: 5000,
            })
            .run(entry, |_, _| Ok(vec![Val::F64(1.0)]))
            .unwrap()
            .vtime
    };
    // log2(size) latency term: more ranks, later completion.
    assert!(t(16) > t(2), "t(16)={} t(2)={}", t(16), t(2));
}

#[test]
fn rank_out_of_range_is_an_error() {
    // sendF to rank 9 in a world of 2.
    let mut fb = FuncBuilder::new("bad", vec![], None, FuncKind::Host);
    let zero = fb.reg(Ty::I32);
    let n = fb.reg(Ty::I32);
    let nine = fb.reg(Ty::I32);
    let buf = fb.reg(Ty::Arr(ElemTy::F32));
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(n, 1));
    fb.emit(Instr::ConstI32(nine, 9));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: n,
        dst: buf,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendF32,
        args: vec![buf, zero, n, nine, zero],
        dst: None,
    });
    fb.emit(Instr::Ret(None));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    let world = World::new(&p, 2);
    let e = world.run(id, |_, _| Ok(vec![])).unwrap_err();
    assert!(matches!(e, mpi_sim::SimError::Rank { rank: 0, .. }), "{e}");
    assert!(e.to_string().contains("out of range"), "{e}");
}
