//! Stable, versioned, checksummed binary (de)serialization of NIR
//! programs — the on-disk half of the persistent JIT artifact store.
//!
//! The paper's generated C/CUDA source is a durable artifact: compile it
//! once, run it for hours. Our [`Program`] was, until this module, an
//! in-memory value that died with the process. The codec here makes it a
//! durable, shareable object:
//!
//! * **Hand-rolled, dependency-free** — like the JSON in `bench::series`,
//!   this builds on network-isolated hosts with no external crates.
//! * **Versioned** — a sealed container starts with the `WJAR` magic and a
//!   format version byte; decoding a container written under a different
//!   version fails with [`CodecError::VersionSkew`] instead of
//!   misinterpreting bytes.
//! * **Checksummed** — the payload is followed by a xorshift64\*-based
//!   content digest; any bit flip fails with [`CodecError::Corrupt`], and
//!   truncation fails with [`CodecError::Truncated`]. Decode never panics
//!   on hostile input: every discriminant is checked and every length is
//!   bounded by the remaining input.
//!
//! The container layout is:
//!
//! ```text
//! "WJAR" | version: u8 | payload_len: u64 LE | payload | digest(payload): u64 LE
//! ```
//!
//! and two versions of it are written, told apart by what the payload is,
//! never by an option:
//!
//! | version | payload | digest | written / read by |
//! |---|---|---|---|
//! | 1 (retired) | `.wjar` artifacts with pass profiles | [`digest64`] | — (version skew) |
//! | [`VERSION`] = 2 | `.wjar` artifacts | [`digest64`], a byte per step | [`seal`] / [`unseal`] |
//! | 2 (retired) | checkpoints | `digest64_words` in one lane | — (version skew in [`unseal_ckpt`]) |
//! | [`CKPT_CONTAINER_VERSION`] = 3 | checkpoints | [`digest64_words`], eight bytes per step in four lanes | [`seal_ckpt`] / [`unseal_ckpt`] |
//!
//! Version 1 artifacts also carried the optimizer's per-pass wall times,
//! so no two translations encoded alike; version 2 holds only what
//! translation decided. The committed `golden.wjar` pins version 2 byte
//! for byte and `golden_v1.wjar` the retired layout. A retired
//! checkpoint container relabelled as an artifact fails the byte digest
//! ([`CodecError::Corrupt`]). Both go through one framing routine,
//! [`Sealer`], which writes the payload in place behind a reserved header
//! and appends the digest: no regrowth when the size is known, no second
//! copy.
//!
//! All multi-byte integers are little-endian; floats are stored as their
//! IEEE-754 bit patterns, so encode→decode→encode is bit-identical (the
//! golden-fixture property the artifact tests pin down).
//!
//! The same [`Writer`]/[`Reader`] pair carries every payload: `.wjar`
//! artifacts, checkpoint records, `dist` and `jitd` frames. Each record
//! declares its layout once, through [`Wire`] and the `wire_struct!` /
//! `wire_enum!` / `counters!` macros below; a [`Program`]'s layout is
//! declared in this module, the artifact envelope around it in
//! `translator::artifact`.

use std::fmt;
use std::sync::Arc;

use jlang::ast::BinOp;
use jlang::types::{ClassId, PrimKind};

use crate::intrin::{IntrinOp, Intrinsic};
use crate::ir::{
    ClassMeta, ConstVal, ElemTy, FuncId, FuncKind, Function, Global, HostFnSig, Instr, Program, Ty,
};
use crate::opt::OptConfig;

/// Magic prefix of a sealed artifact container.
pub const MAGIC: [u8; 4] = *b"WJAR";

/// Current artifact format version. Bump on any layout change: decoders
/// reject other versions with [`CodecError::VersionSkew`] rather than
/// guessing. Version 1 artifacts carried pass profiles.
pub const VERSION: u8 = 2;

/// Typed decode failure. `Truncated`/`BadMagic`/`VersionSkew` are
/// structural (the container is not a complete current-version artifact);
/// `Corrupt` means the container framing was fine but the content was not
/// (digest mismatch, unknown discriminant, invalid UTF-8, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the decoder got what the format promised.
    Truncated { offset: usize },
    /// The input does not start with the `WJAR` magic.
    BadMagic,
    /// The container was written by a different format version.
    VersionSkew { found: u8, expected: u8 },
    /// Digest mismatch or malformed content inside a well-framed payload.
    Corrupt { offset: usize, message: String },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset } => {
                write!(f, "artifact truncated at byte {offset}")
            }
            CodecError::BadMagic => write!(f, "not a WJAR artifact (bad magic)"),
            CodecError::VersionSkew { found, expected } => write!(
                f,
                "artifact format version {found}, this build reads version {expected}"
            ),
            CodecError::Corrupt { offset, message } => {
                write!(f, "artifact corrupt at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

pub type CodecResult<T> = Result<T, CodecError>;

pub use crate::hash::digest64;
use crate::hash::digest64_words;

/// Container version of checkpoint payloads (`exec::ckpt`: machine
/// snapshots and `.wckpt` chain links). Same framing as [`VERSION`],
/// closed by [`digest64_words`] instead of [`digest64`]: a checkpoint is
/// sealed at every collective and verified link by link on every
/// rollback, so its digest has to run at memory speed, while artifacts
/// keep the byte digest their containers have always had. Version 2 sealed with
/// the one-lane form of the word digest; its containers are now version
/// skew, which every restore path degrades to a cold start.
pub const CKPT_CONTAINER_VERSION: u8 = 3;

/// Seed of the container checksum, every version.
const SEAL_SEED: u64 = 0x57_4A_41_52_00_00_00_01; // "WJAR" | 1

/// A container's payload digest, by version.
type SealDigest = fn(&[u8], u64) -> u64;

/// Bytes before the payload: magic, version, payload length.
const HEADER_LEN: usize = MAGIC.len() + 1 + 8;

/// Bytes a container adds to its payload: the header and the digest.
pub const CONTAINER_OVERHEAD: usize = HEADER_LEN + 8;

/// Wrap an artifact payload in the artifact container ([`VERSION`]).
pub fn seal(payload: &[u8]) -> Vec<u8> {
    Sealer::with_payload(payload).seal()
}

/// Verify an artifact container's framing and checksum; return the
/// payload slice.
pub fn unseal(bytes: &[u8]) -> CodecResult<&[u8]> {
    unseal_with(VERSION, digest64, bytes).map(|(payload, _)| payload)
}

/// Wrap a checkpoint payload in the checkpoint container.
pub fn seal_ckpt(payload: &[u8]) -> Vec<u8> {
    Sealer::with_payload(payload).seal_ckpt()
}

/// Verify a checkpoint container's framing and checksum; return the
/// payload slice and the digest that vouched for it (the container's
/// last eight bytes — what a checkpoint chain links a child to).
pub fn unseal_ckpt(bytes: &[u8]) -> CodecResult<(&[u8], u64)> {
    unseal_with(CKPT_CONTAINER_VERSION, digest64_words, bytes)
}

/// A payload written straight into its container: the header is reserved
/// up front, the payload goes in place behind it (through the [`Writer`]
/// it dereferences to), and [`Sealer::seal`] / [`Sealer::seal_ckpt`]
/// patch the header and append the digest. A payload whose size is known
/// ahead is written into a buffer that never regrows, and nothing is
/// copied a second time.
pub struct Sealer(Writer);

impl Sealer {
    /// An empty payload with room for `payload_len` bytes (a hint: more
    /// still fits) and the digest.
    pub fn new(payload_len: usize) -> Sealer {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload_len + 8);
        buf.resize(HEADER_LEN, 0);
        Sealer(Writer { buf })
    }

    fn with_payload(payload: &[u8]) -> Sealer {
        let mut s = Sealer::new(payload.len());
        s.bytes(payload);
        s
    }

    /// Close the payload as an artifact container ([`VERSION`]).
    pub fn seal(self) -> Vec<u8> {
        self.seal_with(VERSION, digest64)
    }

    /// Close the payload as a checkpoint container.
    pub fn seal_ckpt(self) -> Vec<u8> {
        self.seal_with(CKPT_CONTAINER_VERSION, digest64_words)
    }

    /// The one framing routine: every container is
    /// `MAGIC | version | payload_len | payload | digest(payload)`.
    fn seal_with(self, version: u8, digest: SealDigest) -> Vec<u8> {
        let mut out = self.0.buf;
        let payload_len = (out.len() - HEADER_LEN) as u64;
        out[..MAGIC.len()].copy_from_slice(&MAGIC);
        out[MAGIC.len()] = version;
        out[MAGIC.len() + 1..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let d = digest(&out[HEADER_LEN..], SEAL_SEED);
        out.extend_from_slice(&d.to_le_bytes());
        out
    }
}

impl std::ops::Deref for Sealer {
    type Target = Writer;
    fn deref(&self) -> &Writer {
        &self.0
    }
}

impl std::ops::DerefMut for Sealer {
    fn deref_mut(&mut self) -> &mut Writer {
        &mut self.0
    }
}

/// Inverse of [`Sealer`]'s framing: the payload and its verified digest, or the
/// first thing wrong with the container.
fn unseal_with(version: u8, digest: SealDigest, bytes: &[u8]) -> CodecResult<(&[u8], u64)> {
    if bytes.len() < MAGIC.len() {
        return Err(CodecError::Truncated {
            offset: bytes.len(),
        });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let Some(&found) = bytes.get(MAGIC.len()) else {
        return Err(CodecError::Truncated {
            offset: bytes.len(),
        });
    };
    if found != version {
        return Err(CodecError::VersionSkew {
            found,
            expected: version,
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            offset: bytes.len(),
        });
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&bytes[MAGIC.len() + 1..HEADER_LEN]);
    let payload_len = u64::from_le_bytes(len8) as usize;
    let Some(total) = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
    else {
        return Err(CodecError::Corrupt {
            offset: MAGIC.len() + 1,
            message: "payload length overflows".into(),
        });
    };
    if bytes.len() < total {
        return Err(CodecError::Truncated {
            offset: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(CodecError::Corrupt {
            offset: total,
            message: format!("{} trailing bytes after the digest", bytes.len() - total),
        });
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    let mut dig8 = [0u8; 8];
    dig8.copy_from_slice(&bytes[HEADER_LEN + payload_len..total]);
    let stored = u64::from_le_bytes(dig8);
    let actual = digest(payload, SEAL_SEED);
    if stored != actual {
        return Err(CodecError::Corrupt {
            offset: HEADER_LEN,
            message: format!("content digest mismatch: stored {stored:#x}, computed {actual:#x}"),
        });
    }
    Ok((payload, stored))
}

/// Append-only byte sink for artifact payloads.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A collection length (u32; artifact payloads never need more).
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw bytes, unframed — the caller writes its own length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked cursor over an artifact payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn offset(&self) -> usize {
        self.pos
    }

    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub fn corrupt(&self, message: impl Into<String>) -> CodecError {
        CodecError::Corrupt {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError::Truncated {
                offset: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.corrupt(format!("bool byte {other}"))),
        }
    }

    pub fn u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn i32(&mut self) -> CodecResult<i32> {
        Ok(self.u32()? as i32)
    }

    pub fn i64(&mut self) -> CodecResult<i64> {
        Ok(self.u64()? as i64)
    }

    pub fn f32(&mut self) -> CodecResult<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A collection length, sanity-bounded by the remaining input so a
    /// corrupt length cannot trigger a huge allocation.
    #[allow(clippy::len_without_is_empty)] // reads a length prefix; not a container
    pub fn len(&mut self) -> CodecResult<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(self.corrupt(format!(
                "length {n} exceeds the {} remaining bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    /// Raw bytes, unframed — pairs with [`Writer::bytes`].
    pub fn bytes(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        self.take(n)
    }

    pub fn str(&mut self) -> CodecResult<String> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError::Corrupt {
            offset: self.pos,
            message: format!("invalid UTF-8 in string: {e}"),
        })
    }
}

// ---- Wire: one declaration per record ----------------------------------

/// A value with one wire layout, written and read by the same field list.
///
/// Records that cross a process boundary (`dist` and `jitd` payloads,
/// checkpoint records) implement this once — by [`wire_struct!`],
/// [`wire_enum!`] or [`counters!`] in the crate that owns the type — and
/// every protocol that embeds the record reuses that one layout.
///
/// [`wire_struct!`]: crate::wire_struct
/// [`wire_enum!`]: crate::wire_enum
/// [`counters!`]: crate::counters
pub trait Wire: Sized {
    fn put(&self, w: &mut Writer);

    fn get(r: &mut Reader<'_>) -> CodecResult<Self>;

    /// The items of a `Vec<Self>`, after its length prefix.
    fn put_all(items: &[Self], w: &mut Writer) {
        for item in items {
            item.put(w);
        }
    }

    /// `n` items of a `Vec<Self>`; `n` came through [`Reader::len`], which
    /// bounds it by the remaining input, so pre-sizing is safe.
    fn get_n(r: &mut Reader<'_>, n: usize) -> CodecResult<Vec<Self>> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::get(r)?);
        }
        Ok(out)
    }

    /// The value as a whole payload.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put(&mut w);
        w.into_bytes()
    }

    /// Decode a whole payload; bytes left over are [`CodecError::Corrupt`].
    fn from_wire(bytes: &[u8]) -> CodecResult<Self> {
        let mut r = Reader::new(bytes);
        let value = Self::get(&mut r)?;
        if !r.is_at_end() {
            return Err(r.corrupt(format!(
                "{} trailing bytes after the payload",
                bytes.len() - r.offset()
            )));
        }
        Ok(value)
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.bool(*self);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        r.bool()
    }
}

/// Fixed-width numbers. A `Vec` of them — a heap array in a checkpoint, a
/// buffer in a `dist` frame — moves as one block of little-endian bytes,
/// the same bytes the per-element default would write.
macro_rules! wire_num {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut Writer) {
                w.$t(*self);
            }
            fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
                r.$t()
            }
            fn put_all(items: &[$t], w: &mut Writer) {
                const N: usize = std::mem::size_of::<$t>();
                let start = w.buf.len();
                w.buf.resize(start + items.len() * N, 0);
                for (dst, v) in w.buf[start..].chunks_exact_mut(N).zip(items) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
            fn get_n(r: &mut Reader<'_>, n: usize) -> CodecResult<Vec<$t>> {
                const N: usize = std::mem::size_of::<$t>();
                let Some(total) = n.checked_mul(N) else {
                    return Err(r.corrupt(format!("{n} {N}-byte items overflow")));
                };
                // Checked against the input before anything is allocated.
                let raw = r.bytes(total)?;
                Ok(raw
                    .chunks_exact(N)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunks_exact(N)")))
                    .collect())
            }
        }
    )*};
}

wire_num!(u32, u64, i32, i64, f32, f64);

impl Wire for u8 {
    fn put(&self, w: &mut Writer) {
        w.u8(*self);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        r.u8()
    }
    // Program images and checkpoint sections are `Vec<u8>`: one copy, not
    // a push per byte.
    fn put_all(items: &[u8], w: &mut Writer) {
        w.bytes(items);
    }
    fn get_n(r: &mut Reader<'_>, n: usize) -> CodecResult<Vec<u8>> {
        Ok(r.bytes(n)?.to_vec())
    }
}

impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(r.u64()? as usize)
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        r.str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.len(self.len());
        T::put_all(self, w);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        let n = r.len()?;
        T::get_n(r, n)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(Box::new(T::get(r)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Intrinsics cross the wire as their row's tag and axis; a pair no row
/// has fails typed. An op with no row (a coordinate axis past `z`, which
/// [`crate::Program::verify`] refuses) is written as a tag no row has.
impl Wire for IntrinOp {
    fn put(&self, w: &mut Writer) {
        let (tag, axis) = self.row().map_or((u8::MAX, 0), |r| (r.tag, r.axis));
        w.u8(tag);
        w.u8(axis);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        let tag = r.u8()?;
        let axis = r.u8()?;
        Intrinsic::by_wire(tag, axis)
            .map(|row| row.op)
            .ok_or_else(|| r.corrupt(format!("intrinsic tag {tag} with axis {axis}")))
    }
}

/// `impl Wire` for a struct: the listed fields, in the listed order, in
/// both directions. Invoke it in the crate that declares the struct.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $name {
            fn put(&self, w: &mut $crate::codec::Writer) {
                $($crate::codec::Wire::put(&self.$field, w);)*
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> $crate::codec::CodecResult<Self> {
                $(let $field = $crate::codec::Wire::get(r)?;)*
                Ok($name { $($field),* })
            }
        }
    };
}

/// `impl Wire` for an enum: a `u8` tag, then the variant's fields in the
/// listed order. Unit, struct and tuple variants are all
/// `tag = Variant`, `tag = Variant { a, b }`, `tag = Variant(a, b)` (the
/// tuple names are only binders). Tags are append-only: changing one is a
/// layout change; an unknown tag decodes as [`CodecError::Corrupt`].
///
/// Both directions are `#[inline]`, so a `Vec<Instr>` loop inlines each
/// instruction's arm and a tag-only field (`PrimKind`, `BinOp`) inlines
/// into that arm. Out of line, decoding a program ran 20–45 % slower
/// than the hand-written decoder it replaced.
///
/// [`CodecError::Corrupt`]: crate::codec::CodecError::Corrupt
#[macro_export]
macro_rules! wire_enum {
    ($name:ident {
        $($tag:literal = $v:ident $({ $($f:ident),* $(,)? })? $(( $($p:ident),* ))?),* $(,)?
    }) => {
        impl $crate::codec::Wire for $name {
            #[inline]
            fn put(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $($name::$v $({ $($f),* })? $(( $($p),* ))? => {
                        w.u8($tag);
                        $($($crate::codec::Wire::put($f, w);)*)?
                        $($($crate::codec::Wire::put($p, w);)*)?
                    })*
                }
            }
            #[inline]
            fn get(r: &mut $crate::codec::Reader<'_>) -> $crate::codec::CodecResult<Self> {
                Ok(match r.u8()? {
                    $($tag => {
                        $($(let $f = $crate::codec::Wire::get(r)?;)*)?
                        $($(let $p = $crate::codec::Wire::get(r)?;)*)?
                        $name::$v $({ $($f),* })? $(( $($p),* ))?
                    })*
                    other => {
                        return Err(r.corrupt(format!(concat!(stringify!($name), " tag {}"), other)))
                    }
                })
            }
        }
    };
}

/// A stats struct of `pub u64` counters, declared once. Every struct
/// gets `fields()` (each counter's name and value, in declaration order)
/// and a one-line `Display` (`name value` pairs joined by ` · `). The
/// bracketed list names what else to generate from the same field list:
/// `merge` (add another set in), `since` (subtract an earlier snapshot),
/// `wire` (a [`wire_struct!`] over every field, in the `fields()` order).
///
/// [`wire_struct!`]: crate::wire_struct
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident [$($gen:ident),*] {
            $($(#[$fmeta:meta])* $field:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)*
        }
        impl $name {
            /// Every counter's name and value, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),*].into_iter()
            }
        }
        impl ::std::fmt::Display for $name {
            /// `name value` for every counter, joined by ` · `.
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                for (i, (name, value)) in self.fields().enumerate() {
                    if i > 0 {
                        f.write_str(" · ")?;
                    }
                    write!(f, "{name} {value}")?;
                }
                Ok(())
            }
        }
        $crate::counters!(@each $name ($($field),*) $($gen)*);
    };
    (@each $name:ident $fields:tt) => {};
    (@each $name:ident $fields:tt $gen:ident $($rest:ident)*) => {
        $crate::counters!(@$gen $name $fields);
        $crate::counters!(@each $name $fields $($rest)*);
    };
    (@merge $name:ident ($($field:ident),*)) => {
        impl $name {
            /// Add every counter of `other` into `self`.
            pub fn merge(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }
        }
    };
    (@since $name:ident ($($field:ident),*)) => {
        impl $name {
            /// Field-wise `self - before` (counters are monotone).
            pub fn since(&self, before: &$name) -> $name {
                $name { $($field: self.$field - before.$field),* }
            }
        }
    };
    (@wire $name:ident ($($field:ident),*)) => {
        $crate::wire_struct!($name { $($field),* });
    };
}

// ---- the program layout -------------------------------------------------
//
// `.wjar` payloads start with a whole [`Program`]. Every tag below is
// append-only: changing one is a format change (bump VERSION); appending
// a variant is backwards-compatible for writers (old readers reject it as
// Corrupt).

impl Wire for FuncId {
    fn put(&self, w: &mut Writer) {
        w.u32(self.0);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(FuncId(r.u32()?))
    }
}

impl Wire for ClassId {
    fn put(&self, w: &mut Writer) {
        w.u32(self.0);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(ClassId(r.u32()?))
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(Arc::new(T::get(r)?))
    }
}

/// Shared bytes (a checkpoint section) move exactly as a `Vec<u8>` does.
impl Wire for Arc<[u8]> {
    fn put(&self, w: &mut Writer) {
        w.len(self.len());
        w.bytes(self);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        let n = r.len()?;
        Ok(r.bytes(n)?.into())
    }
}

/// `N` items with no length prefix (`Launch`'s grid and block).
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn put(&self, w: &mut Writer) {
        T::put_all(self, w);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::get(r)?;
        }
        Ok(out)
    }
}

wire_enum!(PrimKind { 0 = Int, 1 = Long, 2 = Float, 3 = Double, 4 = Boolean });
wire_enum!(ElemTy { 0 = I32, 1 = I64, 2 = F32, 3 = F64, 4 = Bool });
wire_enum!(Ty { 0 = I32, 1 = I64, 2 = F32, 3 = F64, 4 = Bool, 5 = Arr(elem), 6 = Obj });
wire_enum!(BinOp {
    0 = Add, 1 = Sub, 2 = Mul, 3 = Div, 4 = Rem, 5 = Lt, 6 = Le, 7 = Gt, 8 = Ge, 9 = Eq,
    10 = Ne, 11 = And, 12 = Or, 13 = BitAnd, 14 = BitOr, 15 = BitXor, 16 = Shl, 17 = Shr,
});
wire_enum!(Instr {
    0 = ConstI32(d, v),
    1 = ConstI64(d, v),
    2 = ConstF32(d, v),
    3 = ConstF64(d, v),
    4 = ConstBool(d, v),
    5 = Mov(d, s),
    6 = Bin { op, kind, dst, lhs, rhs },
    7 = Neg { kind, dst, src },
    8 = Not { dst, src },
    9 = Cast { to, from, dst, src },
    10 = Jmp(t),
    11 = Br { cond, t, f },
    12 = Ret(v),
    13 = Call { func, args, dst },
    14 = CallHost { host, args, dst },
    15 = NewObj { class, dst },
    16 = GetField { obj, slot, dst },
    17 = PutField { obj, slot, src },
    18 = CallVirt { selector, recv, args, dst },
    19 = NewArr { elem, len, dst },
    20 = LdArr { arr, idx, dst },
    21 = StArr { arr, idx, src },
    22 = ArrLen { arr, dst },
    23 = FreeArr { arr },
    24 = Intrin { op, args, dst },
    25 = Launch { kernel, grid, block, args },
    26 = SharedAlloc { elem, len, dst },
    27 = Sync,
});
wire_enum!(FuncKind { 0 = Host, 1 = Kernel, 2 = Device });
wire_enum!(ConstVal { 0 = I32(x), 1 = I64(x), 2 = F32(x), 3 = F64(x), 4 = Bool(x) });
wire_struct!(Function {
    name,
    params,
    ret,
    regs,
    code,
    kind
});
wire_struct!(Global { name, ty, value });
wire_struct!(ClassMeta {
    name,
    field_count,
    vtable
});
wire_struct!(HostFnSig { name, params, ret });
// Structural soundness (register ranges, jump targets, arities) is *not*
// re-checked by `Program::get`: run `Program::verify` on the result
// before executing it, as `Translated::decode` and the `dist` worker do.
wire_struct!(Program {
    funcs,
    globals,
    classes,
    selectors,
    host_fns,
    entry
});
wire_struct!(OptConfig {
    const_fold,
    copy_prop,
    dce,
    inline_limit,
    sroa
});

/// Digest of `p`'s encoding under `seed`: the same for two programs that
/// encode alike (code, registers, globals, classes, host signatures,
/// entry) and, but for a 64-bit collision, different otherwise. What
/// scopes a checkpoint to the program it was captured from: a frame's
/// saved pc means something only in that code.
pub fn program_digest(p: &Program, seed: u64) -> u64 {
    digest64_words(&p.to_wire(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::FuncBuilder;

    fn sample_program() -> Program {
        let mut p = Program::default();
        // A host function exercising most scalar instructions.
        let mut fb = FuncBuilder::new(
            "main",
            vec![Ty::I32, Ty::Arr(ElemTy::F32)],
            Some(Ty::F32),
            FuncKind::Host,
        );
        let c = fb.reg(Ty::F32);
        let acc = fb.reg(Ty::F32);
        fb.emit(Instr::ConstF32(c, 1.5));
        fb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Float,
            dst: acc,
            lhs: c,
            rhs: c,
        });
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiAllreduceSumF32,
            args: vec![acc],
            dst: Some(acc),
        });
        fb.emit(Instr::Ret(Some(acc)));
        let main = p.add_func(fb.finish().unwrap());

        // A kernel with CUDA registers and shared memory.
        let mut kb = FuncBuilder::new("k", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
        let x = kb.reg(Ty::I32);
        let sh = kb.reg(Ty::Arr(ElemTy::F32));
        kb.emit(Instr::Intrin {
            op: IntrinOp::ThreadIdx(0),
            args: vec![],
            dst: Some(x),
        });
        kb.emit(Instr::SharedAlloc {
            elem: ElemTy::F32,
            len: x,
            dst: sh,
        });
        kb.emit(Instr::Sync);
        kb.emit(Instr::Ret(None));
        p.add_func(kb.finish().unwrap());

        p.globals.push(Global {
            name: "G".into(),
            ty: Ty::F64,
            value: ConstVal::F64(-0.25),
        });
        p.classes.push(ClassMeta {
            name: "C".into(),
            field_count: 2,
            vtable: vec![(0, main)],
        });
        p.selectors.push("run".into());
        p.host_fns.push(HostFnSig {
            name: "ext.hypot".into(),
            params: vec![Ty::F64, Ty::F64],
            ret: Some(Ty::F64),
        });
        p.entry = Some(main);
        p
    }

    #[test]
    fn program_roundtrips_bit_identically() {
        let p = sample_program();
        let bytes = p.to_wire();
        let back = Program::from_wire(&bytes).unwrap();
        assert_eq!(back.to_wire(), bytes, "encode(decode(x)) == x");
        assert_eq!(back.funcs.len(), p.funcs.len());
        assert_eq!(back.funcs[0].code, p.funcs[0].code);
        assert_eq!(back.entry, p.entry);
        back.verify().expect("decoded program is valid");
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"the artifact payload".to_vec();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
    }

    #[test]
    fn artifact_seal_bytes_are_pinned() {
        // Artifacts on disk: `seal` must keep writing exactly this. Only
        // the version byte (byte 4) differs from a version-1 container.
        let hex: String = seal(b"the artifact payload")
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "574a4152021400000000000000746865206172746966616374207061796c6f61641a2a3947eb512b28"
        );
    }

    #[test]
    fn container_versions_share_the_framing_and_reject_each_other() {
        let payload = b"payload bytes here";
        let (v1, v2) = (seal(payload), seal_ckpt(payload));
        assert_eq!(v1.len(), v2.len());
        assert_eq!((v1[4], v2[4]), (VERSION, CKPT_CONTAINER_VERSION));
        assert_eq!(v1[..4], v2[..4]);
        assert_eq!(v1[5..v1.len() - 8], v2[5..v2.len() - 8]);
        let (back, digest) = unseal_ckpt(&v2).unwrap();
        assert_eq!(back, payload);
        assert_eq!(digest.to_le_bytes(), v2[v2.len() - 8..]);
        assert_eq!(
            unseal_ckpt(&v1),
            Err(CodecError::VersionSkew {
                found: VERSION,
                expected: CKPT_CONTAINER_VERSION
            })
        );
        assert_eq!(
            unseal(&v2),
            Err(CodecError::VersionSkew {
                found: CKPT_CONTAINER_VERSION,
                expected: VERSION
            })
        );
        // Relabelling the version byte does not convert one into the other.
        let mut relabelled = v1.clone();
        relabelled[4] = CKPT_CONTAINER_VERSION;
        assert!(matches!(
            unseal_ckpt(&relabelled),
            Err(CodecError::Corrupt { .. })
        ));
        for n in 0..v2.len() {
            assert!(unseal_ckpt(&v2[..n]).is_err(), "prefix of {n} bytes");
        }
        for byte in 5..v2.len() {
            let mut flip = v2.clone();
            flip[byte] ^= 0x10;
            assert!(unseal_ckpt(&flip).is_err(), "bit flip at {byte}");
        }
    }

    #[test]
    fn unseal_rejects_every_corruption_mode() {
        let sealed = seal(b"payload bytes here");
        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xFF;
        assert_eq!(unseal(&bad), Err(CodecError::BadMagic));
        // Version skew.
        let mut skew = sealed.clone();
        skew[4] = VERSION + 1;
        assert_eq!(
            unseal(&skew),
            Err(CodecError::VersionSkew {
                found: VERSION + 1,
                expected: VERSION
            })
        );
        // Truncation at every prefix length.
        for n in 0..sealed.len() {
            assert!(
                matches!(
                    unseal(&sealed[..n]),
                    Err(CodecError::Truncated { .. }) | Err(CodecError::BadMagic)
                ),
                "prefix of {n} bytes must be rejected"
            );
        }
        // Any single payload bit flip is a digest mismatch.
        for byte in [13usize, 20, sealed.len() - 9] {
            let mut flip = sealed.clone();
            flip[byte] ^= 0x10;
            assert!(
                matches!(unseal(&flip), Err(CodecError::Corrupt { .. })),
                "bit flip at {byte} must be caught"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = sealed.clone();
        long.push(0);
        assert!(matches!(unseal(&long), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn decoder_never_panics_on_garbage_payloads() {
        // Arbitrary bytes through the program decoder: typed error or a
        // (vacuously) decoded program, never a panic or huge allocation.
        let mut seed = 0x1234_5678_9abc_def0u64;
        for len in [0usize, 1, 7, 64, 512] {
            let mut junk = Vec::with_capacity(len);
            for _ in 0..len {
                seed ^= seed >> 12;
                seed ^= seed << 25;
                seed ^= seed >> 27;
                junk.push((seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8);
            }
            let _ = Program::from_wire(&junk);
        }
    }

    #[test]
    fn digest_is_seed_and_content_sensitive() {
        let a = digest64(b"hello", 1);
        assert_ne!(a, digest64(b"hellp", 1), "content sensitivity");
        assert_ne!(a, digest64(b"hello", 2), "seed sensitivity");
        assert_eq!(a, digest64(b"hello", 1), "determinism");
    }

    #[derive(Debug, PartialEq)]
    struct Rec {
        id: u32,
        name: String,
        blob: Vec<u8>,
        next: Option<Box<Rec>>,
    }
    wire_struct!(Rec {
        id,
        name,
        blob,
        next
    });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Dot { x: i32, y: i32 },
        Path(Vec<(f32, f32)>, bool),
    }
    wire_enum!(Shape { 0 = Empty, 1 = Dot { x, y }, 3 = Path(points, closed) });

    counters! {
        /// Test counters.
        pub struct Tally [merge, since, wire] {
            /// First.
            a,
            b,
        }
    }

    #[test]
    fn wire_macros_write_the_listed_fields_in_order() {
        let rec = Rec {
            id: 7,
            name: "ab".into(),
            blob: vec![9, 8],
            next: Some(Box::new(Rec {
                id: 1,
                name: String::new(),
                blob: vec![],
                next: None,
            })),
        };
        let mut w = Writer::new();
        w.u32(7);
        w.str("ab");
        w.len(2);
        w.bytes(&[9, 8]);
        w.bool(true);
        w.u32(1);
        w.str("");
        w.len(0);
        w.bool(false);
        assert_eq!(rec.to_wire(), w.into_bytes());
        assert_eq!(Rec::from_wire(&rec.to_wire()).unwrap(), rec);

        for shape in [
            Shape::Empty,
            Shape::Dot { x: -1, y: 2 },
            Shape::Path(vec![(0.5, 1.5), (2.0, -2.0)], true),
        ] {
            assert_eq!(Shape::from_wire(&shape.to_wire()).unwrap(), shape);
        }
        assert_eq!(Shape::Dot { x: 1, y: 2 }.to_wire()[0], 1);
        assert_eq!(Shape::Path(vec![], false).to_wire()[0], 3);

        let mut t = Tally { a: 5, b: 7 };
        t.merge(&Tally { a: 1, b: 2 });
        assert_eq!(t, Tally { a: 6, b: 9 });
        assert_eq!(t.since(&Tally { a: 5, b: 7 }), Tally { a: 1, b: 2 });
        assert_eq!(
            t.to_wire(),
            [6u64.to_le_bytes(), 9u64.to_le_bytes()].concat()
        );
        assert_eq!(t.fields().collect::<Vec<_>>(), [("a", 6), ("b", 9)]);
        assert_eq!(t.to_string(), "a 6 · b 9");
        let le: Vec<u8> = t.fields().flat_map(|(_, v)| v.to_le_bytes()).collect();
        assert_eq!(t.to_wire(), le);
    }

    #[test]
    fn numeric_vectors_move_as_one_block_with_the_per_element_bytes() {
        fn check<T: Wire + PartialEq + std::fmt::Debug>(items: Vec<T>, width: usize) {
            let mut per_element = Writer::new();
            per_element.len(items.len());
            for item in &items {
                item.put(&mut per_element);
            }
            let bytes = items.to_wire();
            assert_eq!(bytes, per_element.into_bytes());
            assert_eq!(Vec::<T>::from_wire(&bytes).unwrap(), items);
            for cut in 0..bytes.len() {
                assert!(Vec::<T>::from_wire(&bytes[..cut]).is_err(), "prefix {cut}");
            }
            // A count the input cannot back is typed before any allocation:
            // `Reader::len` admits up to one item per remaining byte.
            let mut short = Writer::new();
            short.len(width * 3);
            short.bytes(&vec![0; width * 3]);
            assert!(matches!(
                Vec::<T>::from_wire(&short.into_bytes()),
                Err(CodecError::Truncated { .. })
            ));
        }
        check(vec![0u32, 1, u32::MAX], 4);
        check(vec![0u64, 1 << 40, u64::MAX], 8);
        check(vec![i32::MIN, -1, i32::MAX], 4);
        check(vec![i64::MIN, -1, i64::MAX], 8);
        check(vec![0.0f32, -2.25, f32::INFINITY, f32::MIN_POSITIVE], 4);
        check(vec![0.1f64, -0.0, f64::MAX], 8);
        check(Vec::<f64>::new(), 8);
        // NaN payload bits survive (compared as bits: NaN != NaN).
        let nan = f32::from_bits(0x7fc0_1234);
        let back = Vec::<f32>::from_wire(&vec![nan].to_wire()).unwrap();
        assert_eq!(back[0].to_bits(), nan.to_bits());
    }

    #[test]
    fn from_wire_is_total_and_strict() {
        // Unknown tag, trailing byte, every strict prefix, and a length
        // prefix larger than the input: all typed, none panic.
        assert!(matches!(
            Shape::from_wire(&[2]),
            Err(CodecError::Corrupt { .. })
        ));
        let bytes = Shape::Path(vec![(1.0, 2.0)], false).to_wire();
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Shape::from_wire(&long),
            Err(CodecError::Corrupt { .. })
        ));
        for cut in 0..bytes.len() {
            assert!(Shape::from_wire(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut huge = vec![3];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Shape::from_wire(&huge),
            Err(CodecError::Corrupt { .. })
        ));
    }

    /// Every two bytes either decode to an intrinsic that encodes to
    /// them again, or fail typed: one per table row, none otherwise.
    #[test]
    fn intrinsic_wire_pairs_round_trip_or_fail_typed() {
        let mut decoded = 0;
        for tag in 0..=u8::MAX {
            for axis in 0..=u8::MAX {
                match IntrinOp::from_wire(&[tag, axis]) {
                    Ok(op) => {
                        assert_eq!(op.to_wire(), [tag, axis], "{op:?}");
                        decoded += 1;
                    }
                    Err(e) => assert!(matches!(e, CodecError::Corrupt { .. }), "{e:?}"),
                }
            }
        }
        assert_eq!(decoded, crate::INTRINSICS.len());
        // The op no row has encodes to bytes that fail to decode.
        assert!(IntrinOp::from_wire(&IntrinOp::ThreadIdx(3).to_wire()).is_err());
    }
}
