//! Written-only checkpoint capture is invisible in the bytes: every chain
//! link built from the cached array sections equals, byte for byte, the
//! link built from sections that re-encode every array.
//!
//! The program writes heap arrays through every path there is — `StArr`,
//! `ArrayCopyF32`, a sendrecv receive, a host function's `&mut MemSpace`,
//! a GPU copy-back, `NewArr`/`FreeArr` mid-run — and the seeded crashes
//! make it write again after restores — half of them one link deeper
//! than the chain head, so a restore lands on a state older than the
//! last capture. A pool wrapper checks each
//! capture against the rank's live arrays and feeds two chain encoders:
//! one the sections as captured (unchanged arrays are the same shared
//! allocation), one freshly re-encoded sections (no allocation shared).

use exec::ckpt::chain::{ChainState, Section};
use exec::{
    ArrStore, CkptError, Draw, Fate, FaultConfig, HostRegistry, Machine, ResilienceStats, Val,
};
use gpu_sim::GpuConfig;
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use mpi_sim::{
    CheckpointPolicy, DeviceOutcome, LocalPool, RankCtl, RankOutcome, RankPool, RankSnapshot,
    RankYield, SimError, World, WorldBody, WorldRun,
};
use nir::codec::Wire;
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, HostFnSig, Instr, IntrinOp, Program, Reg, Ty};

const RANKS: u32 = 3;
const STEPS: i32 = 14;
const N: i32 = 8;
const MESH: i32 = 256;

/// One float array register, allocated with `len` (a register) elements.
fn new_f32(fb: &mut FuncBuilder, len: Reg) -> Reg {
    let dst = fb.reg(Ty::Arr(ElemTy::F32));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len,
        dst,
    });
    dst
}

fn konst(fb: &mut FuncBuilder, v: i32) -> Reg {
    let r = fb.reg(Ty::I32);
    fb.emit(Instr::ConstI32(r, v));
    r
}

fn intrin(fb: &mut FuncBuilder, op: IntrinOp, args: Vec<Reg>, dst: Option<Reg>) {
    fb.emit(Instr::Intrin { op, args, dst });
}

fn bin(fb: &mut FuncBuilder, op: BinOp, kind: PrimKind, dst: Reg, lhs: Reg, rhs: Reg) {
    fb.emit(Instr::Bin {
        op,
        kind,
        dst,
        lhs,
        rhs,
    });
}

/// A ring step per iteration, ending at an allreduce (a checkpoint):
///
/// ```text
/// mesh[0] = rank; sbuf[0] = rank                     // mesh: written once
/// for s in 0..STEPS:
///   sendrecv(sbuf -> dest, rbuf <- src)              // receive
///   arraycopy(rbuf, 0, copy, 0, N)                   // copy: ArrayCopyF32 only
///   sbuf[0] = rbuf[0] + 1                            // StArr
///   fill(host, s)                                    // host: host call only
///   if s % 3 == 0: sparse[0] = s                     // now and then
///   dev = toGpu(sbuf); fromGpu(back, dev); free(dev) // back: copy-back only
///   tmp = new float[N]; tmp[1] = sbuf[0]             // live at this checkpoint
///   acc = allreduce(sbuf[0])
///   free(tmp)                                        // freed at the next one
/// return acc
/// ```
fn program() -> (Program, FuncId) {
    let mut fb = FuncBuilder::new("writes", vec![], Some(Ty::F32), FuncKind::Host);
    let rank = fb.reg(Ty::I32);
    let size = fb.reg(Ty::I32);
    intrin(&mut fb, IntrinOp::MpiRank, vec![], Some(rank));
    intrin(&mut fb, IntrinOp::MpiSize, vec![], Some(size));
    let zero = konst(&mut fb, 0);
    let one = konst(&mut fb, 1);
    let n = konst(&mut fb, N);
    let tag = konst(&mut fb, 9);
    let steps = konst(&mut fb, STEPS);
    let mesh_len = konst(&mut fb, MESH);
    let s = konst(&mut fb, 0);
    let sbuf = new_f32(&mut fb, n);
    let rbuf = new_f32(&mut fb, n);
    let copy = new_f32(&mut fb, n);
    let host = new_f32(&mut fb, n);
    let back = new_f32(&mut fb, n);
    let sparse = new_f32(&mut fb, n);
    let mesh = new_f32(&mut fb, mesh_len);
    let frank = fb.reg(Ty::F32);
    fb.emit(Instr::Cast {
        to: PrimKind::Float,
        from: PrimKind::Int,
        dst: frank,
        src: rank,
    });
    for arr in [mesh, sbuf] {
        fb.emit(Instr::StArr {
            arr,
            idx: zero,
            src: frank,
        });
    }
    let dest = fb.reg(Ty::I32);
    let src = fb.reg(Ty::I32);
    bin(&mut fb, BinOp::Add, PrimKind::Int, dest, rank, one);
    bin(&mut fb, BinOp::Rem, PrimKind::Int, dest, dest, size);
    bin(&mut fb, BinOp::Add, PrimKind::Int, src, rank, size);
    bin(&mut fb, BinOp::Sub, PrimKind::Int, src, src, one);
    bin(&mut fb, BinOp::Rem, PrimKind::Int, src, src, size);

    let cond = fb.reg(Ty::Bool);
    let v = fb.reg(Ty::F32);
    let fone = fb.reg(Ty::F32);
    fb.emit(Instr::ConstF32(fone, 1.0));
    let acc = fb.reg(Ty::F32);
    fb.emit(Instr::ConstF32(acc, 0.0));
    let dev = fb.reg(Ty::Arr(ElemTy::F32));
    let (head, body, done) = (fb.label(), fb.label(), fb.label());
    fb.bind(head);
    bin(&mut fb, BinOp::Lt, PrimKind::Int, cond, s, steps);
    fb.br(cond, body, done);
    fb.bind(body);
    intrin(
        &mut fb,
        IntrinOp::MpiSendRecvF32,
        vec![sbuf, zero, n, dest, rbuf, zero, src, tag],
        None,
    );
    intrin(
        &mut fb,
        IntrinOp::ArrayCopyF32,
        vec![rbuf, zero, copy, zero, n],
        None,
    );
    fb.emit(Instr::LdArr {
        arr: rbuf,
        idx: zero,
        dst: v,
    });
    bin(&mut fb, BinOp::Add, PrimKind::Float, v, v, fone);
    fb.emit(Instr::StArr {
        arr: sbuf,
        idx: zero,
        src: v,
    });
    fb.emit(Instr::CallHost {
        host: 0,
        args: vec![host, s],
        dst: None,
    });
    let three = konst(&mut fb, 3);
    let phase = fb.reg(Ty::I32);
    bin(&mut fb, BinOp::Rem, PrimKind::Int, phase, s, three);
    bin(&mut fb, BinOp::Eq, PrimKind::Int, cond, phase, zero);
    let (write, skip) = (fb.label(), fb.label());
    fb.br(cond, write, skip);
    fb.bind(write);
    let fs = fb.reg(Ty::F32);
    fb.emit(Instr::Cast {
        to: PrimKind::Float,
        from: PrimKind::Int,
        dst: fs,
        src: s,
    });
    fb.emit(Instr::StArr {
        arr: sparse,
        idx: zero,
        src: fs,
    });
    fb.bind(skip);
    intrin(&mut fb, IntrinOp::CopyToGpu, vec![sbuf], Some(dev));
    intrin(&mut fb, IntrinOp::CopyFromGpu, vec![back, dev], None);
    intrin(&mut fb, IntrinOp::GpuFree, vec![dev], None);
    let tmp = new_f32(&mut fb, n);
    fb.emit(Instr::StArr {
        arr: tmp,
        idx: one,
        src: v,
    });
    let total = fb.reg(Ty::F32);
    intrin(&mut fb, IntrinOp::MpiAllreduceSumF32, vec![v], Some(total));
    bin(&mut fb, BinOp::Add, PrimKind::Float, acc, acc, total);
    fb.emit(Instr::FreeArr { arr: tmp });
    bin(&mut fb, BinOp::Add, PrimKind::Int, s, s, one);
    fb.jmp(head);
    fb.bind(done);
    fb.emit(Instr::Ret(Some(acc)));
    let mut p = Program::default();
    p.host_fns.push(HostFnSig {
        name: "fill".into(),
        params: vec![Ty::Arr(ElemTy::F32), Ty::I32],
        ret: None,
    });
    let id = p.add_func(fb.finish().unwrap());
    p.verify().unwrap();
    (p, id)
}

/// `fill(host, s)`: `host[s % N] = s`, written through the host call's
/// `&mut MemSpace`.
fn registry() -> HostRegistry {
    let mut host = HostRegistry::new();
    host.register("fill", |args, mem| {
        let s = args[1].as_i32()?;
        let arr = mem.arr_mut(args[0].as_arr()?)?;
        arr.set((s % N) as usize, Val::F32(s as f32))?;
        Ok(Val::Unit)
    });
    host
}

/// Per-rank chain encoders and what the check saw.
#[derive(Default)]
struct Seen {
    cached: Vec<ChainState>,
    fresh: Vec<ChainState>,
    captures: Vec<u64>,
    links: u64,
    /// Array sections handed out again by pointer, capture to capture.
    shared: u64,
    /// ... and right after a restore, the very sections it decoded.
    shared_after_restore: u64,
    restores: u64,
    /// Restores refused to send the world one link deeper.
    refused: u64,
    restored: Vec<Option<Vec<Section>>>,
    last: Vec<Vec<Section>>,
}

/// A [`LocalPool`] whose every capture is checked (see the module docs).
struct Checked<'p, 'a> {
    inner: LocalPool<'p, 'a>,
    seen: Seen,
    /// Refuse the first restore of every restart: the scheduler then
    /// drops the chain head and restores from its parent.
    deepen: bool,
    refuse_next: bool,
    /// Cut every capture to its first section, as a short `Capture`
    /// reply off a remote rank's wire would be.
    short_capture: bool,
}

impl Checked<'_, '_> {
    fn check(&mut self, r: u32, snap: &RankSnapshot) {
        let seen = &mut self.seen;
        let r = r as usize;
        if seen.cached.len() <= r {
            let ranks = r + 1;
            seen.cached.resize_with(ranks, ChainState::new);
            seen.fresh.resize_with(ranks, ChainState::new);
            seen.captures.resize(ranks, 0);
            seen.restored.resize(ranks, None);
            seen.last.resize(ranks, Vec::new());
        }
        let machine: &Machine = self
            .inner
            .machine(r as u32)
            .expect("a captured rank is live");
        let reencoded: Vec<Section> = machine
            .mem
            .arrays()
            .iter()
            .map(|a: &ArrStore| a.to_wire().into())
            .collect();
        let arrays = &snap.sections[1..1 + reencoded.len()];
        for (i, (got, want)) in arrays.iter().zip(&reencoded).enumerate() {
            assert_eq!(got[..], want[..], "rank {r} array {i} is stale");
        }
        let count_shared = |before: &[Section]| {
            before
                .iter()
                .zip(arrays)
                .filter(|(a, b)| Section::ptr_eq(a, b))
                .count() as u64
        };
        seen.shared += count_shared(&seen.last[r]);
        if let Some(restored) = seen.restored[r].take() {
            seen.shared_after_restore += count_shared(&restored);
        }
        seen.last[r] = arrays.to_vec();

        // Every section copied into its own allocation, arrays re-encoded.
        let mut fresh: Vec<Section> = vec![Section::from(&snap.sections[0][..])];
        fresh.extend(reencoded);
        fresh.extend(
            snap.sections[1 + arrays.len()..]
                .iter()
                .map(|s| Section::from(&s[..])),
        );
        let base = seen.captures[r].is_multiple_of(5);
        seen.captures[r] += 1;
        let got = seen.cached[r].push(snap.sections.clone(), base);
        let want = seen.fresh[r].push(fresh, base);
        assert_eq!(got.bytes, want.bytes, "rank {r} link {}", got.seq);
        seen.links += 1;
    }
}

impl RankPool for Checked<'_, '_> {
    fn wrap_run(&mut self, run: &mut WorldBody<'_>) -> Result<WorldRun, SimError> {
        run(self)
    }
    fn reinit(&mut self) -> Result<(), SimError> {
        self.inner.reinit()
    }
    fn prepare_resume(&mut self) -> Result<(), SimError> {
        self.refuse_next = self.deepen;
        self.inner.prepare_resume()
    }
    fn run_slices(
        &mut self,
        ranks: &[u32],
        slice: u64,
    ) -> Result<Vec<(u32, RankYield, u64)>, SimError> {
        self.inner.run_slices(ranks, slice)
    }
    fn resume(&mut self, r: u32, v: Val) -> Result<(), SimError> {
        self.inner.resume(r, v)
    }
    fn service_device(&mut self, r: u32) -> Result<DeviceOutcome, SimError> {
        self.inner.service_device(r)
    }
    fn service_host(&mut self, r: u32) -> Result<u64, SimError> {
        self.inner.service_host(r)
    }
    fn read_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        count: usize,
    ) -> Result<Vec<f32>, SimError> {
        self.inner.read_floats(r, buf, off, count)
    }
    fn write_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        payload: &[f32],
    ) -> Result<(), SimError> {
        self.inner.write_floats(r, buf, off, payload)
    }
    fn location(&mut self, r: u32) -> Option<(String, u32)> {
        self.inner.location(r)
    }
    fn draw(&mut self, r: u32, kind: Draw) -> Result<Fate, SimError> {
        self.inner.draw(r, kind)
    }
    fn capture_rank(&mut self, r: u32) -> Result<RankSnapshot, SimError> {
        let mut snap = self.inner.capture_rank(r)?;
        if self.short_capture {
            snap.sections.truncate(1);
            return Ok(snap);
        }
        self.check(r, &snap);
        Ok(snap)
    }
    fn restore_rank(&mut self, r: u32, snap: RankSnapshot) -> Result<(), CkptError> {
        if std::mem::take(&mut self.refuse_next) {
            self.seen.refused += 1;
            return Err(CkptError::Corrupt {
                offset: 0,
                message: "refused: restore one link deeper".into(),
            });
        }
        let arrays = snap.n_arrays().map(|n| snap.sections[1..1 + n].to_vec());
        self.inner.restore_rank(r, snap)?;
        self.seen.restores += 1;
        if let Some(slot) = self.seen.restored.get_mut(r as usize) {
            *slot = arrays;
        }
        Ok(())
    }
    fn reseed(&mut self, r: u32, attempt: u64) -> Result<(), SimError> {
        self.inner.reseed(r, attempt)
    }
    fn stats(&mut self, r: u32) -> Result<ResilienceStats, SimError> {
        self.inner.stats(r)
    }
    fn finish(&mut self, ctls: &[RankCtl]) -> Result<Vec<RankOutcome>, SimError> {
        self.inner.finish(ctls)
    }
}

/// Run the program under checkpointing (and seeded crashes, restored one
/// link deeper when `deepen`), every capture checked; the per-rank
/// results and what the check saw.
fn run_checked(
    p: &Program,
    entry: FuncId,
    crash: Option<u64>,
    deepen: bool,
) -> (Vec<Option<Val>>, Seen) {
    let host = registry();
    let mut world = World::new(p, RANKS)
        .with_gpu(GpuConfig::default())
        .with_host(&host);
    if let Some(seed) = crash {
        world = world.with_faults(FaultConfig {
            crash: 0.004,
            ..FaultConfig::seeded(seed)
        });
    }
    let mut no_args = |_: u32, _: &mut Machine| Ok(vec![]);
    let mut pool = Checked {
        inner: LocalPool::new(&world, entry, &mut no_args),
        seen: Seen::default(),
        deepen,
        refuse_next: false,
        short_capture: false,
    };
    let policy = CheckpointPolicy::every(1).with_rebase_every(4);
    let run = world
        .run_on(&mut pool, Some((&policy, 64)))
        .expect("the checkpointed run completes");
    let results = run.ranks.into_iter().map(|r| r.result).collect();
    (results, pool.seen)
}

#[test]
fn cached_capture_links_equal_reencoded_links_on_every_write_path() {
    let (p, entry) = program();
    let (clean, seen) = run_checked(&p, entry, None, false);
    assert!(clean.iter().all(Option::is_some), "{clean:?}");
    assert_eq!(seen.links, RANKS as u64 * STEPS as u64);
    assert!(seen.shared > 0, "no array section was ever reused");

    let (mut restores, mut refused, mut shared_after_restore) = (0, 0, 0);
    for seed in 1..=16u64 {
        let (results, seen) = run_checked(&p, entry, Some(seed), seed.is_multiple_of(2));
        assert_eq!(results, clean, "seed {seed}: recovery changed the answer");
        restores += seen.restores;
        refused += seen.refused;
        shared_after_restore += seen.shared_after_restore;
    }
    assert!(refused > 0, "no restore went one link deeper");
    assert!(
        restores > 0,
        "no seed crashed: nothing was written after a restore"
    );
    assert!(
        shared_after_restore > 0,
        "a restore never seeded the capture cache"
    );
}

#[test]
fn a_capture_too_short_for_its_layout_is_a_typed_world_error() {
    let (p, entry) = program();
    let host = registry();
    let world = World::new(&p, RANKS)
        .with_gpu(GpuConfig::default())
        .with_host(&host);
    let mut no_args = |_: u32, _: &mut Machine| Ok(vec![]);
    let mut pool = Checked {
        inner: LocalPool::new(&world, entry, &mut no_args),
        seen: Seen::default(),
        deepen: false,
        refuse_next: false,
        short_capture: true,
    };
    let policy = CheckpointPolicy::every(1);
    match world.run_on(&mut pool, Some((&policy, 4))) {
        Err(SimError::World { message }) => {
            assert!(message.contains("rank 0 captured 1 sections"), "{message}")
        }
        Err(e) => panic!("expected a typed world error, got {e}"),
        Ok(_) => panic!("a world checkpointed from short captures completed"),
    }
}

/// `fn hold(a: float[], b: float[]) -> int { return 0 }`: a rank whose
/// two arrays come from its entry arguments.
fn hold_program() -> (Program, FuncId) {
    let f32s = Ty::Arr(ElemTy::F32);
    let mut fb = FuncBuilder::new("hold", vec![f32s, f32s], Some(Ty::I32), FuncKind::Host);
    let zero = konst(&mut fb, 0);
    fb.emit(Instr::Ret(Some(zero)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    (p, id)
}

fn copy_of(snap: &RankSnapshot) -> RankSnapshot {
    RankSnapshot {
        last_cycles: snap.last_cycles,
        has_gpu: snap.has_gpu,
        sections: snap.sections.clone(),
    }
}

/// Where array `h` of rank 0 keeps its elements, and what they are.
fn elements(pool: &LocalPool<'_, '_>, h: usize) -> (*const f32, Vec<f32>) {
    match &pool.machine(0).expect("rank 0 is live").mem.arrays()[h] {
        ArrStore::F32(v) => (v.as_ptr(), v.clone()),
        other => panic!("array {h} is {other}"),
    }
}

/// A rollback keeps every live array that still holds its snapshot
/// section (its cache unwritten and the very allocation restored from)
/// and decodes the rest: array `b`, untouched since the capture, keeps
/// its storage, while `a`, written since, comes back as the snapshot's
/// bytes. A restore that fails to decode leaves the live arrays alone.
#[test]
fn a_rollback_decodes_written_arrays_and_keeps_the_rest() {
    let (p, entry) = hold_program();
    let world = World::new(&p, 1);
    let mut args = |_: u32, m: &mut Machine| {
        let a = m.mem.alloc(ArrStore::F32(vec![1.0; 64]));
        let b = m.mem.alloc(ArrStore::F32(vec![2.0; 64]));
        Ok(vec![Val::Arr(a), Val::Arr(b)])
    };
    let mut pool = LocalPool::new(&world, entry, &mut args);
    pool.reinit().unwrap();
    let snap = pool.capture_rank(0).unwrap();
    let (b_at, _) = elements(&pool, 1);
    // What a crashed attempt leaves behind: `a` written, `b` not.
    pool.write_floats(0, 0, 0, &[7.0; 64]).unwrap();

    // A snapshot whose `a` section, or whose machine section after the
    // arrays, does not decode is refused whole.
    for at in [1, 3] {
        let mut bad = copy_of(&snap);
        bad.sections[at] = Section::from(&b"\x02\xff\xff\xff\xff"[..]);
        assert!(pool.restore_rank(0, bad).is_err(), "section {at}");
        assert_eq!(elements(&pool, 0).1, vec![7.0; 64], "section {at}");
        assert_eq!(elements(&pool, 1), (b_at, vec![2.0; 64]), "section {at}");
    }

    pool.restore_rank(0, copy_of(&snap)).unwrap();
    assert_eq!(
        elements(&pool, 0).1,
        vec![1.0; 64],
        "a: the snapshot's bytes"
    );
    assert_eq!(
        elements(&pool, 1),
        (b_at, vec![2.0; 64]),
        "b: kept, not decoded"
    );
    // Both sections stay cached: the next capture hands back the
    // snapshot's own allocations.
    let again = pool.capture_rank(0).unwrap();
    for i in [1, 2] {
        assert!(
            Section::ptr_eq(&again.sections[i], &snap.sections[i]),
            "section {i}"
        );
    }
}
