//! Checkpoint serialization for interpreter state.
//!
//! Everything a resumable execution context owns — call stack (pc, locals,
//! return plumbing), heap arrays, object heap, globals, captured output,
//! work counters, and the fault-plan PRNG cursor — round-trips through the
//! sealed `nir::codec` container. Checkpoints are sealed as container
//! **version 3** (`WJAR` magic, version byte 3, `nir::hash::digest64_words`
//! over the payload): the artifact framing with a digest that absorbs a
//! word per step in four independent lanes, because a checkpoint is
//! sealed at every collective and verified on every rollback. The
//! payload is written in place into its container ([`begin`] /
//! [`finish`]). A version-1 or version-2 container — an artifact, or a
//! `.wckpt` written before the four-lane digest — is
//! [`CkptError::VersionSkew`].
//!
//! Every record ([`Val`], [`ArrStore`], [`Counters`], the fault plan)
//! declares its layout once through `nir::codec::Wire`; numeric arrays
//! move as one little-endian block. [`Machine::snapshot`] /
//! [`Machine::restore`] cover a single context; the `write_*` / `read_*`
//! functions over whole machines and threads are public so the MPI
//! scheduler can compose whole-world checkpoints out of them.
//!
//! Decoding is total: truncation, corruption, and version skew all surface
//! as a typed [`CkptError`], never a panic — callers degrade to a cold
//! restart.

use crate::{ArrStore, Counters, Encoded, Frame, Machine, MemSpace, ObjHeap, Thread, Val};
use chain::Section;
use nir::codec::{unseal_ckpt, CodecError, Reader, Sealer, Wire, Writer};
use nir::{FuncId, Program};

/// Version byte of the checkpoint payload (inside the sealed container,
/// independent of the container's own version). It versions every
/// record this crate declares a wire layout for — `Val`, `ArrStore`,
/// `FaultConfig`, `ResilienceStats`, `FaultPlan`, ... — and the `dist`
/// and `jitd` protocol versions embed it as their low byte, so a layout
/// change here (one more counter, say) is this one bump. Older snapshots
/// degrade to a cold restart by design.
pub const CKPT_VERSION: u8 = 5;

/// Payload kind: a single [`Machine`] snapshot.
pub const TAG_MACHINE: u8 = 0xA1;
/// Payload kind: a whole-world checkpoint (written by `mpi-sim`).
pub const TAG_WORLD: u8 = 0xB7;
/// Payload kind: the base link of a delta checkpoint chain.
pub const TAG_CHAIN_BASE: u8 = 0xC1;
/// Payload kind: a delta link encoded against its parent in the chain.
pub const TAG_CHAIN_DELTA: u8 = 0xC3;

#[path = "ckpt_chain.rs"]
pub mod chain;

/// Why a checkpoint failed to decode. Mirrors `nir::codec::CodecError`
/// so checkpoint consumers never need to name the lower layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The byte stream ended mid-record.
    Truncated { offset: usize },
    /// Not a sealed checkpoint container at all.
    BadMagic,
    /// Container or checkpoint format version mismatch.
    VersionSkew { found: u8, expected: u8 },
    /// Checksum failure or structurally invalid content.
    Corrupt { offset: usize, message: String },
    /// A delta-chain link does not connect to its parent (wrong parent
    /// digest or out-of-order sequence number).
    ChainBroken { seq: u64, message: String },
    /// The checkpoint belongs to a different platform namespace (its
    /// fingerprint salt does not match the restoring world's) — a `dist`
    /// chain must never restore into an `mpi-sim` world, and vice versa.
    ScopeMismatch { expected: u64, found: u64 },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Truncated { offset } => {
                write!(f, "checkpoint truncated at byte {offset}")
            }
            CkptError::BadMagic => write!(f, "not a checkpoint container"),
            CkptError::VersionSkew { found, expected } => {
                write!(f, "checkpoint version {found}, expected {expected}")
            }
            CkptError::Corrupt { offset, message } => {
                write!(f, "corrupt checkpoint at byte {offset}: {message}")
            }
            CkptError::ChainBroken { seq, message } => {
                write!(f, "checkpoint chain broken at link {seq}: {message}")
            }
            CkptError::ScopeMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to platform namespace {found:#018x}, \
                 this world restores only {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<CodecError> for CkptError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { offset } => CkptError::Truncated { offset },
            CodecError::BadMagic => CkptError::BadMagic,
            CodecError::VersionSkew { found, expected } => {
                CkptError::VersionSkew { found, expected }
            }
            CodecError::Corrupt { offset, message } => CkptError::Corrupt { offset, message },
        }
    }
}

/// Start a checkpoint payload of the given kind, written in place into
/// its sealed container.
pub fn begin(tag: u8) -> Sealer {
    begin_sized(tag, 0)
}

/// [`begin`] with room for a payload of `payload_len` bytes, version and
/// kind included, so a payload whose size is known never regrows.
pub(crate) fn begin_sized(tag: u8, payload_len: usize) -> Sealer {
    let mut w = Sealer::new(payload_len);
    w.u8(CKPT_VERSION);
    w.u8(tag);
    w
}

/// Seal a finished checkpoint payload: its container bytes.
pub fn finish(w: Sealer) -> Vec<u8> {
    w.seal_ckpt()
}

/// Unseal container bytes and check the payload version: a reader
/// positioned at the kind byte, and the seal digest that vouched for
/// every byte of the payload.
fn open_payload(bytes: &[u8]) -> Result<(Reader<'_>, u64), CkptError> {
    let (payload, seal_digest) = unseal_ckpt(bytes)?;
    let mut r = Reader::new(payload);
    let found = r.u8()?;
    if found != CKPT_VERSION {
        return Err(CkptError::VersionSkew {
            found,
            expected: CKPT_VERSION,
        });
    }
    Ok((r, seal_digest))
}

/// Unseal container bytes and position a reader past the version/kind
/// header, verifying both.
pub fn open(bytes: &[u8], tag: u8) -> Result<Reader<'_>, CkptError> {
    let (mut r, _) = open_payload(bytes)?;
    let kind = r.u8()?;
    if kind != tag {
        return Err(r
            .corrupt(format!("checkpoint kind {kind:#04x}, expected {tag:#04x}"))
            .into());
    }
    Ok(r)
}

nir::wire_enum!(Val {
    0 = I32(x),
    1 = I64(x),
    2 = F32(x),
    3 = F64(x),
    4 = Bool(x),
    5 = Arr(handle),
    6 = Obj(handle),
    7 = Unit,
});
nir::wire_enum!(ArrStore {
    0 = I32(v),
    1 = I64(v),
    2 = F32(v),
    3 = F64(v),
    4 = Bool(v),
    5 = Freed,
});
nir::wire_struct!(Counters { instrs, cycles });
// Crosses the `dist` wire when a worker's restore fails.
nir::wire_enum!(CkptError {
    0 = Truncated { offset },
    1 = BadMagic,
    2 = VersionSkew { found, expected },
    3 = Corrupt { offset, message },
    4 = ChainBroken { seq, message },
    5 = ScopeMismatch { expected, found },
});

/// Serialize one machine (memory, object heap, globals, output, counters,
/// fault stream) into an open payload.
pub fn write_machine(w: &mut Writer, m: &Machine) {
    m.mem.arrays.put(w);
    write_machine_rest(w, m);
}

/// One standalone payload per heap array — the unit of delta encoding
/// for checkpoint chains (each array becomes its own chain section, so
/// an untouched mesh costs nothing in a delta link).
///
/// Only arrays written since the last capture are encoded again; every
/// other section is the same shared allocation the last capture (or the
/// restore that built this machine) returned, which is what lets
/// [`chain::ChainState::push`] skip it by pointer.
pub fn machine_array_sections(m: &mut Machine) -> Vec<Section> {
    let mem = &mut m.mem;
    mem.arrays
        .iter()
        .zip(&mut mem.encoded)
        .map(|(store, e)| match &e.bytes {
            Some(bytes) if !e.written => bytes.clone(),
            _ => {
                let bytes: Section = store.to_wire().into();
                *e = Encoded {
                    written: false,
                    bytes: Some(bytes.clone()),
                };
                bytes
            }
        })
        .collect()
}

/// The heap arrays of one machine, decoded from their
/// [`machine_array_sections`]. Each section stays cached as its array's
/// encoding, so a capture right after a restore re-encodes nothing: the
/// array decoder is strict (tags, lengths, bool bytes and trailing bytes
/// are all checked), so an accepted section is exactly what encoding
/// its array writes.
pub fn mem_from_sections<'a>(
    sections: impl IntoIterator<Item = &'a Section>,
) -> Result<MemSpace, CkptError> {
    let mut mem = MemSpace::new();
    for bytes in sections {
        mem.arrays.push(Wire::from_wire(bytes)?);
        mem.encoded.push(Encoded {
            written: false,
            bytes: Some(bytes.clone()),
        });
    }
    Ok(mem)
}

/// Everything in [`write_machine`] except the heap arrays: object heap,
/// globals, captured output, counters, and the fault-stream cursor.
pub fn write_machine_rest(w: &mut Writer, m: &Machine) {
    m.objs.objects.put(w);
    m.globals.put(w);
    m.output.put(w);
    m.counters.put(w);
    m.fault.put(w);
}

pub fn read_machine(r: &mut Reader) -> Result<Machine, CkptError> {
    let mut mem = MemSpace::new();
    for store in Vec::<ArrStore>::get(r)? {
        mem.alloc(store);
    }
    read_machine_rest(r, mem)
}

/// Inverse of [`write_machine_rest`], reassembling the machine around
/// separately decoded heap arrays.
pub fn read_machine_rest(r: &mut Reader, mem: MemSpace) -> Result<Machine, CkptError> {
    Ok(Machine {
        mem,
        objs: ObjHeap {
            objects: Wire::get(r)?,
        },
        globals: Wire::get(r)?,
        output: Wire::get(r)?,
        counters: Wire::get(r)?,
        fault: Wire::get(r)?,
        gpu_coords: None,
    })
}

/// Serialize a resumable call stack of `program` into an open payload.
/// Each register goes out tagged by its declared type, a never-written
/// one as that type's zero.
pub fn write_thread(w: &mut Writer, t: &Thread, program: &Program) {
    w.len(t.frames.len());
    for (i, f) in t.frames.iter().enumerate() {
        w.u32(f.func.0);
        w.u32(f.pc);
        let regs = t.frame_regs(i);
        w.len(regs.len());
        for (word, ty) in regs.iter().zip(&program.func(f.func).regs) {
            Val::of_word(*word, *ty).put(w);
        }
        f.ret_to.put(w);
    }
    t.pending.map(|(r, _)| r).put(w);
    w.bool(t.done);
}

/// Read a call stack back, validating every frame against `program` so a
/// checkpoint from a different program surfaces as [`CkptError::Corrupt`]
/// rather than an interpreter panic: each register must hold a value of
/// its declared type, or `Unit` (never written, read as 0).
pub fn read_thread(r: &mut Reader, program: &Program) -> Result<Thread, CkptError> {
    let n_frames = r.len()?;
    let mut frames = Vec::with_capacity(n_frames);
    let mut stack = Vec::new();
    for _ in 0..n_frames {
        let func = r.u32()?;
        let pc = r.u32()?;
        let regs: Vec<Val> = Wire::get(r)?;
        let ret_to = Wire::get(r)?;
        let Some(f) = program.funcs.get(func as usize) else {
            return Err(r
                .corrupt(format!("frame references unknown func {func}"))
                .into());
        };
        if regs.len() != f.regs.len() {
            return Err(r
                .corrupt(format!(
                    "frame of `{}` has {} regs, expected {}",
                    f.name,
                    regs.len(),
                    f.regs.len()
                ))
                .into());
        }
        if pc as usize > f.code.len() {
            return Err(r
                .corrupt(format!("frame pc {pc} past end of `{}`", f.name))
                .into());
        }
        frames.push(Frame {
            func: FuncId(func),
            pc,
            base: stack.len(),
            ret_to,
        });
        for (i, (v, ty)) in regs.into_iter().zip(&f.regs).enumerate() {
            match (v, v.to_word(*ty)) {
                (_, Some(word)) => stack.push(word),
                (Val::Unit, None) => stack.push(0),
                (v, None) => {
                    return Err(r
                        .corrupt(format!(
                            "register r{i} of `{}` holds {v:?}, declared {ty:?}",
                            f.name
                        ))
                        .into())
                }
            }
        }
    }
    let pending_dst: Option<u32> = Wire::get(r)?;
    let pending = match (pending_dst, frames.last()) {
        (None, _) => None,
        (Some(d), Some(top)) => match program.func(top.func).regs.get(d as usize) {
            Some(ty) => Some((d, *ty)),
            None => {
                return Err(r
                    .corrupt(format!("pending register r{d} out of range"))
                    .into())
            }
        },
        (Some(d), None) => {
            return Err(r
                .corrupt(format!("pending register r{d} without a frame"))
                .into())
        }
    };
    let done = r.bool()?;
    Ok(Thread {
        frames,
        stack,
        pending,
        misfit: None,
        done,
    })
}

impl Machine {
    /// Capture the full machine state into sealed, checksummed bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = begin(TAG_MACHINE);
        write_machine(&mut w, self);
        finish(w)
    }

    /// Rebuild a machine from [`Machine::snapshot`] bytes. Corruption,
    /// truncation, and version skew come back as a typed [`CkptError`].
    pub fn restore(bytes: &[u8]) -> Result<Machine, CkptError> {
        let mut r = open(bytes, TAG_MACHINE)?;
        let m = read_machine(&mut r)?;
        if !r.is_at_end() {
            return Err(r.corrupt("trailing bytes after machine state").into());
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan};

    fn busy_machine() -> Machine {
        let mut m = Machine::new();
        m.mem.alloc(ArrStore::F32(vec![1.5, -2.25, 3.0]));
        m.mem.alloc(ArrStore::I64(vec![i64::MIN, 0, i64::MAX]));
        let freed = m.mem.alloc(ArrStore::Bool(vec![true, false]));
        m.mem.free(freed).unwrap();
        let obj = m.objs.alloc(7, 2);
        m.objs.set(obj, 0, Val::F64(0.1 + 0.2)).unwrap();
        m.objs.set(obj, 1, Val::Arr(0)).unwrap();
        m.globals = vec![Val::I32(-9), Val::Unit, Val::Obj(obj)];
        m.output = vec!["hello".into(), "42".into()];
        m.counters = Counters {
            instrs: 1234,
            cycles: 56789,
        };
        let mut plan = FaultPlan::for_rank(
            FaultConfig {
                crash: 0.25,
                ..FaultConfig::seeded(99)
            },
            3,
        );
        for _ in 0..17 {
            plan.crash_at_yield();
        }
        m.fault = Some(plan);
        m
    }

    fn assert_machines_eq(a: &Machine, b: &Machine) {
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.objs.objects, b.objs.objects);
        assert_eq!(a.globals, b.globals);
        assert_eq!(a.output, b.output);
        assert_eq!(a.counters.instrs, b.counters.instrs);
        assert_eq!(a.counters.cycles, b.counters.cycles);
        assert_eq!(a.fault, b.fault);
    }

    #[test]
    fn machine_round_trips_bit_identical() {
        let m = busy_machine();
        let bytes = m.snapshot();
        let back = Machine::restore(&bytes).expect("restore");
        assert_machines_eq(&m, &back);
        assert_eq!(bytes, back.snapshot(), "snapshot must be deterministic");
    }

    #[test]
    fn restored_fault_stream_continues_from_cursor() {
        let m = busy_machine();
        let mut back = Machine::restore(&m.snapshot()).unwrap();
        let mut orig = m;
        let a = orig.fault.as_mut().unwrap();
        let b = back.fault.as_mut().unwrap();
        for _ in 0..50 {
            assert_eq!(a.crash_at_yield(), b.crash_at_yield());
        }
    }

    #[test]
    fn truncation_and_corruption_are_typed_never_panics() {
        let bytes = busy_machine().snapshot();
        for cut in 0..bytes.len().min(64) {
            assert!(Machine::restore(&bytes[..cut]).is_err());
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            // Every single-bit flip must fail (digest) — never panic.
            assert!(Machine::restore(&bad).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn wrong_kind_and_version_rejected() {
        let m = busy_machine();
        let mut w = begin(TAG_WORLD);
        write_machine(&mut w, &m);
        let as_world = finish(w);
        assert!(matches!(
            Machine::restore(&as_world),
            Err(CkptError::Corrupt { .. })
        ));

        let mut w = Sealer::new(0);
        w.u8(CKPT_VERSION + 1);
        w.u8(TAG_MACHINE);
        write_machine(&mut w, &m);
        let skewed = finish(w);
        assert!(matches!(
            Machine::restore(&skewed),
            Err(CkptError::VersionSkew { found, expected })
                if found == CKPT_VERSION + 1 && expected == CKPT_VERSION
        ));
    }

    #[test]
    fn thread_round_trips_through_payload() {
        use nir::{FuncBuilder, FuncKind, Instr, Ty};
        let mut fb = FuncBuilder::new("f", vec![], Some(Ty::I32), FuncKind::Host);
        let a = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(a, 5));
        fb.emit(Instr::Ret(Some(a)));
        let mut p = Program::default();
        let entry = p.add_func(fb.finish().unwrap());

        let t = Thread::new(&p, entry, &[]).unwrap();
        let mut w = begin(TAG_WORLD);
        write_thread(&mut w, &t, &p);
        let bytes = finish(w);
        let mut r = open(&bytes, TAG_WORLD).unwrap();
        let back = read_thread(&mut r, &p).unwrap();
        assert_eq!(back.depth(), t.depth());
        assert_eq!(back.frame_location(), t.frame_location());
        assert_eq!(back.is_done(), t.is_done());
    }
}
