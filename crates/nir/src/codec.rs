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
//! and two versions of it exist, told apart by what the payload is, never
//! by an option:
//!
//! | version | payload | digest | written / read by |
//! |---|---|---|---|
//! | [`VERSION`] = 1 | `.wjar` artifacts | [`digest64`], a byte per step | [`seal`] / [`unseal`] |
//! | [`CKPT_CONTAINER_VERSION`] = 2 | checkpoints | [`digest64_words`], eight bytes per step | [`seal_ckpt`] / [`unseal_ckpt`] |
//!
//! Version 1 is pinned byte for byte by artifacts already on disk and the
//! committed `golden.wjar`. Both go through one framing routine.
//!
//! All multi-byte integers are little-endian; floats are stored as their
//! IEEE-754 bit patterns, so encode→decode→encode is bit-identical (the
//! golden-fixture property the artifact tests pin down).
//!
//! The same [`Writer`]/[`Reader`] pair carries every runtime payload
//! (checkpoint records, `dist` and `jitd` frames). Those records declare
//! their layout once, through [`Wire`] and the `wire_struct!` /
//! `wire_enum!` / `counters!` macros below; the program and artifact
//! codecs in this module and in `translator::artifact` are still written
//! out by hand.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use jlang::ast::BinOp;
use jlang::types::PrimKind;

use crate::ir::{
    ClassMeta, ConstVal, ElemTy, FuncId, FuncKind, Function, Global, HostFnSig, Instr, IntrinOp,
    Program, Ty,
};
use crate::opt::PassProfile;

/// Magic prefix of a sealed artifact container.
pub const MAGIC: [u8; 4] = *b"WJAR";

/// Current artifact format version. Bump on any layout change: decoders
/// reject other versions with [`CodecError::VersionSkew`] rather than
/// guessing.
pub const VERSION: u8 = 1;

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
/// already on disk pin version 1 byte for byte.
pub const CKPT_CONTAINER_VERSION: u8 = 2;

/// Seed of the container checksum, both versions.
const SEAL_SEED: u64 = 0x57_4A_41_52_00_00_00_01; // "WJAR" | version 1

/// A container's payload digest, by version.
type SealDigest = fn(&[u8], u64) -> u64;

/// Bytes before the payload: magic, version, payload length.
const HEADER_LEN: usize = MAGIC.len() + 1 + 8;

/// Wrap an artifact payload in the version-1 container.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    seal_with(VERSION, digest64, payload)
}

/// Verify a version-1 container's framing and checksum; return the
/// payload slice.
pub fn unseal(bytes: &[u8]) -> CodecResult<&[u8]> {
    unseal_with(VERSION, digest64, bytes).map(|(payload, _)| payload)
}

/// Wrap a checkpoint payload in the version-2 container.
pub fn seal_ckpt(payload: &[u8]) -> Vec<u8> {
    seal_with(CKPT_CONTAINER_VERSION, digest64_words, payload)
}

/// Verify a version-2 container's framing and checksum; return the
/// payload slice and the digest that vouched for it (the container's
/// last eight bytes — what a checkpoint chain links a child to).
pub fn unseal_ckpt(bytes: &[u8]) -> CodecResult<(&[u8], u64)> {
    unseal_with(CKPT_CONTAINER_VERSION, digest64_words, bytes)
}

/// The one framing routine: every container is
/// `MAGIC | version | payload_len | payload | digest(payload)`.
fn seal_with(version: u8, digest: SealDigest, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&digest(payload, SEAL_SEED).to_le_bytes());
    out
}

/// Inverse of [`seal_with`]: the payload and its verified digest, or the
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

/// Yielded intrinsics cross the wire with the tags `.wjar` artifacts use.
impl Wire for IntrinOp {
    fn put(&self, w: &mut Writer) {
        let (tag, axis) = intrin_tag(*self);
        w.u8(tag);
        w.u8(axis);
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        let tag = r.u8()?;
        let axis = r.u8()?;
        intrin_of(tag, axis, r)
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
/// [`CodecError::Corrupt`]: crate::codec::CodecError::Corrupt
#[macro_export]
macro_rules! wire_enum {
    ($name:ident {
        $($tag:literal = $v:ident $({ $($f:ident),* $(,)? })? $(( $($p:ident),* ))?),* $(,)?
    }) => {
        impl $crate::codec::Wire for $name {
            fn put(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $($name::$v $({ $($f),* })? $(( $($p),* ))? => {
                        w.u8($tag);
                        $($($crate::codec::Wire::put($f, w);)*)?
                        $($($crate::codec::Wire::put($p, w);)*)?
                    })*
                }
            }
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

/// A stats struct of `pub u64` counters, declared once. The bracketed
/// list names what else to generate from the same field list: `merge`
/// (add another set in), `since` (subtract an earlier snapshot), `wire`
/// (a [`wire_struct!`] over every field, in declaration order).
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

// ---- enum discriminants -------------------------------------------------
//
// Every enum gets an explicit, append-only tag table. Changing an existing
// tag is a format change (bump VERSION); appending new tags is
// backwards-compatible for writers (old readers reject them as Corrupt).

fn prim_tag(k: PrimKind) -> u8 {
    match k {
        PrimKind::Int => 0,
        PrimKind::Long => 1,
        PrimKind::Float => 2,
        PrimKind::Double => 3,
        PrimKind::Boolean => 4,
    }
}

fn prim_of(tag: u8, r: &Reader<'_>) -> CodecResult<PrimKind> {
    Ok(match tag {
        0 => PrimKind::Int,
        1 => PrimKind::Long,
        2 => PrimKind::Float,
        3 => PrimKind::Double,
        4 => PrimKind::Boolean,
        other => return Err(r.corrupt(format!("prim kind tag {other}"))),
    })
}

/// Write a [`PrimKind`] (public: the translator artifact reuses it for
/// shapes and fingerprints).
pub fn write_prim(w: &mut Writer, k: PrimKind) {
    w.u8(prim_tag(k));
}

pub fn read_prim(r: &mut Reader<'_>) -> CodecResult<PrimKind> {
    let tag = r.u8()?;
    prim_of(tag, r)
}

fn elem_tag(e: ElemTy) -> u8 {
    match e {
        ElemTy::I32 => 0,
        ElemTy::I64 => 1,
        ElemTy::F32 => 2,
        ElemTy::F64 => 3,
        ElemTy::Bool => 4,
    }
}

pub fn write_elem(w: &mut Writer, e: ElemTy) {
    w.u8(elem_tag(e));
}

pub fn read_elem(r: &mut Reader<'_>) -> CodecResult<ElemTy> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => ElemTy::I32,
        1 => ElemTy::I64,
        2 => ElemTy::F32,
        3 => ElemTy::F64,
        4 => ElemTy::Bool,
        other => return Err(r.corrupt(format!("element type tag {other}"))),
    })
}

pub fn write_ty(w: &mut Writer, t: Ty) {
    match t {
        Ty::I32 => w.u8(0),
        Ty::I64 => w.u8(1),
        Ty::F32 => w.u8(2),
        Ty::F64 => w.u8(3),
        Ty::Bool => w.u8(4),
        Ty::Arr(e) => {
            w.u8(5);
            write_elem(w, e);
        }
        Ty::Obj => w.u8(6),
    }
}

pub fn read_ty(r: &mut Reader<'_>) -> CodecResult<Ty> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Ty::I32,
        1 => Ty::I64,
        2 => Ty::F32,
        3 => Ty::F64,
        4 => Ty::Bool,
        5 => Ty::Arr(read_elem(r)?),
        6 => Ty::Obj,
        other => return Err(r.corrupt(format!("type tag {other}"))),
    })
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Lt => 5,
        BinOp::Le => 6,
        BinOp::Gt => 7,
        BinOp::Ge => 8,
        BinOp::Eq => 9,
        BinOp::Ne => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
        BinOp::BitAnd => 13,
        BinOp::BitOr => 14,
        BinOp::BitXor => 15,
        BinOp::Shl => 16,
        BinOp::Shr => 17,
    }
}

fn binop_of(tag: u8, r: &Reader<'_>) -> CodecResult<BinOp> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::Lt,
        6 => BinOp::Le,
        7 => BinOp::Gt,
        8 => BinOp::Ge,
        9 => BinOp::Eq,
        10 => BinOp::Ne,
        11 => BinOp::And,
        12 => BinOp::Or,
        13 => BinOp::BitAnd,
        14 => BinOp::BitOr,
        15 => BinOp::BitXor,
        16 => BinOp::Shl,
        17 => BinOp::Shr,
        other => return Err(r.corrupt(format!("binop tag {other}"))),
    })
}

/// Stable wire tag of an intrinsic op (tag, axis). Public so runtime
/// wire protocols (the `dist` rank protocol) encode yielded intrinsics
/// with the same tags the program codec bakes into `.wjar` artifacts.
pub fn intrin_tag(op: IntrinOp) -> (u8, u8) {
    match op {
        IntrinOp::SqrtF64 => (0, 0),
        IntrinOp::SqrtF32 => (1, 0),
        IntrinOp::PowF64 => (2, 0),
        IntrinOp::ExpF64 => (3, 0),
        IntrinOp::AbsF32 => (4, 0),
        IntrinOp::AbsF64 => (5, 0),
        IntrinOp::AbsI32 => (6, 0),
        IntrinOp::MinI32 => (7, 0),
        IntrinOp::MaxI32 => (8, 0),
        IntrinOp::MinF32 => (9, 0),
        IntrinOp::MaxF32 => (10, 0),
        IntrinOp::PrintI32 => (11, 0),
        IntrinOp::PrintI64 => (12, 0),
        IntrinOp::PrintF32 => (13, 0),
        IntrinOp::PrintF64 => (14, 0),
        IntrinOp::PrintBool => (15, 0),
        IntrinOp::ArrayCopyF32 => (16, 0),
        IntrinOp::ThreadIdx(a) => (17, a),
        IntrinOp::BlockIdx(a) => (18, a),
        IntrinOp::BlockDim(a) => (19, a),
        IntrinOp::GridDim(a) => (20, a),
        IntrinOp::CopyToGpu => (21, 0),
        IntrinOp::CopyFromGpu => (22, 0),
        IntrinOp::CopyToGpuRange => (23, 0),
        IntrinOp::CopyFromGpuRange => (24, 0),
        IntrinOp::GpuAllocF32 => (25, 0),
        IntrinOp::GpuFree => (26, 0),
        IntrinOp::MpiRank => (27, 0),
        IntrinOp::MpiSize => (28, 0),
        IntrinOp::MpiBarrier => (29, 0),
        IntrinOp::MpiSendF32 => (30, 0),
        IntrinOp::MpiRecvF32 => (31, 0),
        IntrinOp::MpiSendRecvF32 => (32, 0),
        IntrinOp::MpiBcastF32 => (33, 0),
        IntrinOp::MpiAllreduceSumF64 => (34, 0),
        IntrinOp::MpiAllreduceSumF32 => (35, 0),
        IntrinOp::MpiAllreduceMaxF64 => (36, 0),
    }
}

/// Inverse of [`intrin_tag`]; unknown tags fail typed.
pub fn intrin_of(tag: u8, axis: u8, r: &Reader<'_>) -> CodecResult<IntrinOp> {
    if matches!(tag, 17..=20) && axis > 2 {
        return Err(r.corrupt(format!("CUDA register axis {axis}")));
    }
    Ok(match tag {
        0 => IntrinOp::SqrtF64,
        1 => IntrinOp::SqrtF32,
        2 => IntrinOp::PowF64,
        3 => IntrinOp::ExpF64,
        4 => IntrinOp::AbsF32,
        5 => IntrinOp::AbsF64,
        6 => IntrinOp::AbsI32,
        7 => IntrinOp::MinI32,
        8 => IntrinOp::MaxI32,
        9 => IntrinOp::MinF32,
        10 => IntrinOp::MaxF32,
        11 => IntrinOp::PrintI32,
        12 => IntrinOp::PrintI64,
        13 => IntrinOp::PrintF32,
        14 => IntrinOp::PrintF64,
        15 => IntrinOp::PrintBool,
        16 => IntrinOp::ArrayCopyF32,
        17 => IntrinOp::ThreadIdx(axis),
        18 => IntrinOp::BlockIdx(axis),
        19 => IntrinOp::BlockDim(axis),
        20 => IntrinOp::GridDim(axis),
        21 => IntrinOp::CopyToGpu,
        22 => IntrinOp::CopyFromGpu,
        23 => IntrinOp::CopyToGpuRange,
        24 => IntrinOp::CopyFromGpuRange,
        25 => IntrinOp::GpuAllocF32,
        26 => IntrinOp::GpuFree,
        27 => IntrinOp::MpiRank,
        28 => IntrinOp::MpiSize,
        29 => IntrinOp::MpiBarrier,
        30 => IntrinOp::MpiSendF32,
        31 => IntrinOp::MpiRecvF32,
        32 => IntrinOp::MpiSendRecvF32,
        33 => IntrinOp::MpiBcastF32,
        34 => IntrinOp::MpiAllreduceSumF64,
        35 => IntrinOp::MpiAllreduceSumF32,
        36 => IntrinOp::MpiAllreduceMaxF64,
        other => return Err(r.corrupt(format!("intrinsic tag {other}"))),
    })
}

fn write_opt_reg(w: &mut Writer, r: Option<u32>) {
    match r {
        Some(v) => {
            w.u8(1);
            w.u32(v);
        }
        None => w.u8(0),
    }
}

fn read_opt_reg(r: &mut Reader<'_>) -> CodecResult<Option<u32>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u32()?)),
        other => Err(r.corrupt(format!("option tag {other}"))),
    }
}

fn write_regs(w: &mut Writer, regs: &[u32]) {
    w.len(regs.len());
    for &r in regs {
        w.u32(r);
    }
}

fn read_regs(r: &mut Reader<'_>) -> CodecResult<Vec<u32>> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    Ok(out)
}

fn write_instr(w: &mut Writer, ins: &Instr) {
    match ins {
        Instr::ConstI32(d, v) => {
            w.u8(0);
            w.u32(*d);
            w.i32(*v);
        }
        Instr::ConstI64(d, v) => {
            w.u8(1);
            w.u32(*d);
            w.i64(*v);
        }
        Instr::ConstF32(d, v) => {
            w.u8(2);
            w.u32(*d);
            w.f32(*v);
        }
        Instr::ConstF64(d, v) => {
            w.u8(3);
            w.u32(*d);
            w.f64(*v);
        }
        Instr::ConstBool(d, v) => {
            w.u8(4);
            w.u32(*d);
            w.bool(*v);
        }
        Instr::Mov(d, s) => {
            w.u8(5);
            w.u32(*d);
            w.u32(*s);
        }
        Instr::Bin {
            op,
            kind,
            dst,
            lhs,
            rhs,
        } => {
            w.u8(6);
            w.u8(binop_tag(*op));
            write_prim(w, *kind);
            w.u32(*dst);
            w.u32(*lhs);
            w.u32(*rhs);
        }
        Instr::Neg { kind, dst, src } => {
            w.u8(7);
            write_prim(w, *kind);
            w.u32(*dst);
            w.u32(*src);
        }
        Instr::Not { dst, src } => {
            w.u8(8);
            w.u32(*dst);
            w.u32(*src);
        }
        Instr::Cast { to, from, dst, src } => {
            w.u8(9);
            write_prim(w, *to);
            write_prim(w, *from);
            w.u32(*dst);
            w.u32(*src);
        }
        Instr::Jmp(t) => {
            w.u8(10);
            w.u32(*t);
        }
        Instr::Br { cond, t, f } => {
            w.u8(11);
            w.u32(*cond);
            w.u32(*t);
            w.u32(*f);
        }
        Instr::Ret(r) => {
            w.u8(12);
            write_opt_reg(w, *r);
        }
        Instr::Call { func, args, dst } => {
            w.u8(13);
            w.u32(func.0);
            write_regs(w, args);
            write_opt_reg(w, *dst);
        }
        Instr::CallHost { host, args, dst } => {
            w.u8(14);
            w.u32(*host);
            write_regs(w, args);
            write_opt_reg(w, *dst);
        }
        Instr::NewObj { class, dst } => {
            w.u8(15);
            w.u32(*class);
            w.u32(*dst);
        }
        Instr::GetField { obj, slot, dst } => {
            w.u8(16);
            w.u32(*obj);
            w.u32(*slot);
            w.u32(*dst);
        }
        Instr::PutField { obj, slot, src } => {
            w.u8(17);
            w.u32(*obj);
            w.u32(*slot);
            w.u32(*src);
        }
        Instr::CallVirt {
            selector,
            recv,
            args,
            dst,
        } => {
            w.u8(18);
            w.u32(*selector);
            w.u32(*recv);
            write_regs(w, args);
            write_opt_reg(w, *dst);
        }
        Instr::NewArr { elem, len, dst } => {
            w.u8(19);
            write_elem(w, *elem);
            w.u32(*len);
            w.u32(*dst);
        }
        Instr::LdArr { arr, idx, dst } => {
            w.u8(20);
            w.u32(*arr);
            w.u32(*idx);
            w.u32(*dst);
        }
        Instr::StArr { arr, idx, src } => {
            w.u8(21);
            w.u32(*arr);
            w.u32(*idx);
            w.u32(*src);
        }
        Instr::ArrLen { arr, dst } => {
            w.u8(22);
            w.u32(*arr);
            w.u32(*dst);
        }
        Instr::FreeArr { arr } => {
            w.u8(23);
            w.u32(*arr);
        }
        Instr::Intrin { op, args, dst } => {
            w.u8(24);
            let (tag, axis) = intrin_tag(*op);
            w.u8(tag);
            w.u8(axis);
            write_regs(w, args);
            write_opt_reg(w, *dst);
        }
        Instr::Launch {
            kernel,
            grid,
            block,
            args,
        } => {
            w.u8(25);
            w.u32(kernel.0);
            for r in grid.iter().chain(block.iter()) {
                w.u32(*r);
            }
            write_regs(w, args);
        }
        Instr::SharedAlloc { elem, len, dst } => {
            w.u8(26);
            write_elem(w, *elem);
            w.u32(*len);
            w.u32(*dst);
        }
        Instr::Sync => w.u8(27),
    }
}

fn read_instr(r: &mut Reader<'_>) -> CodecResult<Instr> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Instr::ConstI32(r.u32()?, r.i32()?),
        1 => Instr::ConstI64(r.u32()?, r.i64()?),
        2 => Instr::ConstF32(r.u32()?, r.f32()?),
        3 => Instr::ConstF64(r.u32()?, r.f64()?),
        4 => Instr::ConstBool(r.u32()?, r.bool()?),
        5 => Instr::Mov(r.u32()?, r.u32()?),
        6 => {
            let op_tag = r.u8()?;
            let op = binop_of(op_tag, r)?;
            Instr::Bin {
                op,
                kind: read_prim(r)?,
                dst: r.u32()?,
                lhs: r.u32()?,
                rhs: r.u32()?,
            }
        }
        7 => Instr::Neg {
            kind: read_prim(r)?,
            dst: r.u32()?,
            src: r.u32()?,
        },
        8 => Instr::Not {
            dst: r.u32()?,
            src: r.u32()?,
        },
        9 => Instr::Cast {
            to: read_prim(r)?,
            from: read_prim(r)?,
            dst: r.u32()?,
            src: r.u32()?,
        },
        10 => Instr::Jmp(r.u32()?),
        11 => Instr::Br {
            cond: r.u32()?,
            t: r.u32()?,
            f: r.u32()?,
        },
        12 => Instr::Ret(read_opt_reg(r)?),
        13 => Instr::Call {
            func: FuncId(r.u32()?),
            args: read_regs(r)?,
            dst: read_opt_reg(r)?,
        },
        14 => Instr::CallHost {
            host: r.u32()?,
            args: read_regs(r)?,
            dst: read_opt_reg(r)?,
        },
        15 => Instr::NewObj {
            class: r.u32()?,
            dst: r.u32()?,
        },
        16 => Instr::GetField {
            obj: r.u32()?,
            slot: r.u32()?,
            dst: r.u32()?,
        },
        17 => Instr::PutField {
            obj: r.u32()?,
            slot: r.u32()?,
            src: r.u32()?,
        },
        18 => Instr::CallVirt {
            selector: r.u32()?,
            recv: r.u32()?,
            args: read_regs(r)?,
            dst: read_opt_reg(r)?,
        },
        19 => Instr::NewArr {
            elem: read_elem(r)?,
            len: r.u32()?,
            dst: r.u32()?,
        },
        20 => Instr::LdArr {
            arr: r.u32()?,
            idx: r.u32()?,
            dst: r.u32()?,
        },
        21 => Instr::StArr {
            arr: r.u32()?,
            idx: r.u32()?,
            src: r.u32()?,
        },
        22 => Instr::ArrLen {
            arr: r.u32()?,
            dst: r.u32()?,
        },
        23 => Instr::FreeArr { arr: r.u32()? },
        24 => {
            let itag = r.u8()?;
            let axis = r.u8()?;
            let op = intrin_of(itag, axis, r)?;
            Instr::Intrin {
                op,
                args: read_regs(r)?,
                dst: read_opt_reg(r)?,
            }
        }
        25 => {
            let kernel = FuncId(r.u32()?);
            let mut six = [0u32; 6];
            for slot in six.iter_mut() {
                *slot = r.u32()?;
            }
            Instr::Launch {
                kernel,
                grid: [six[0], six[1], six[2]],
                block: [six[3], six[4], six[5]],
                args: read_regs(r)?,
            }
        }
        26 => Instr::SharedAlloc {
            elem: read_elem(r)?,
            len: r.u32()?,
            dst: r.u32()?,
        },
        27 => Instr::Sync,
        other => return Err(r.corrupt(format!("instruction tag {other}"))),
    })
}

fn write_func(w: &mut Writer, f: &Function) {
    w.str(&f.name);
    w.len(f.params.len());
    for &t in &f.params {
        write_ty(w, t);
    }
    match f.ret {
        Some(t) => {
            w.u8(1);
            write_ty(w, t);
        }
        None => w.u8(0),
    }
    w.len(f.regs.len());
    for &t in &f.regs {
        write_ty(w, t);
    }
    w.len(f.code.len());
    for ins in &f.code {
        write_instr(w, ins);
    }
    w.u8(match f.kind {
        FuncKind::Host => 0,
        FuncKind::Kernel => 1,
        FuncKind::Device => 2,
    });
}

fn read_func(r: &mut Reader<'_>) -> CodecResult<Function> {
    let name = r.str()?;
    let n = r.len()?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(read_ty(r)?);
    }
    let ret = match r.u8()? {
        0 => None,
        1 => Some(read_ty(r)?),
        other => return Err(r.corrupt(format!("option tag {other}"))),
    };
    let n = r.len()?;
    let mut regs = Vec::with_capacity(n);
    for _ in 0..n {
        regs.push(read_ty(r)?);
    }
    let n = r.len()?;
    let mut code = Vec::with_capacity(n);
    for _ in 0..n {
        code.push(read_instr(r)?);
    }
    let kind = match r.u8()? {
        0 => FuncKind::Host,
        1 => FuncKind::Kernel,
        2 => FuncKind::Device,
        other => return Err(r.corrupt(format!("function kind tag {other}"))),
    };
    Ok(Function {
        name,
        params,
        ret,
        regs,
        code,
        kind,
    })
}

fn write_const(w: &mut Writer, v: &ConstVal) {
    match v {
        ConstVal::I32(x) => {
            w.u8(0);
            w.i32(*x);
        }
        ConstVal::I64(x) => {
            w.u8(1);
            w.i64(*x);
        }
        ConstVal::F32(x) => {
            w.u8(2);
            w.f32(*x);
        }
        ConstVal::F64(x) => {
            w.u8(3);
            w.f64(*x);
        }
        ConstVal::Bool(x) => {
            w.u8(4);
            w.bool(*x);
        }
    }
}

fn read_const(r: &mut Reader<'_>) -> CodecResult<ConstVal> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => ConstVal::I32(r.i32()?),
        1 => ConstVal::I64(r.i64()?),
        2 => ConstVal::F32(r.f32()?),
        3 => ConstVal::F64(r.f64()?),
        4 => ConstVal::Bool(r.bool()?),
        other => return Err(r.corrupt(format!("const tag {other}"))),
    })
}

/// Serialize a whole [`Program`] into `w` (payload bytes only; callers
/// frame the result with [`seal`] — the translator's `Translated::encode`
/// composes this with its own envelope).
pub fn write_program(w: &mut Writer, p: &Program) {
    w.len(p.funcs.len());
    for f in &p.funcs {
        write_func(w, f);
    }
    w.len(p.globals.len());
    for g in &p.globals {
        w.str(&g.name);
        write_ty(w, g.ty);
        write_const(w, &g.value);
    }
    w.len(p.classes.len());
    for c in &p.classes {
        w.str(&c.name);
        w.u32(c.field_count);
        w.len(c.vtable.len());
        for (sel, target) in &c.vtable {
            w.u32(*sel);
            w.u32(target.0);
        }
    }
    w.len(p.selectors.len());
    for s in &p.selectors {
        w.str(s);
    }
    w.len(p.host_fns.len());
    for h in &p.host_fns {
        w.str(&h.name);
        w.len(h.params.len());
        for &t in &h.params {
            write_ty(w, t);
        }
        match h.ret {
            Some(t) => {
                w.u8(1);
                write_ty(w, t);
            }
            None => w.u8(0),
        }
    }
    match p.entry {
        Some(e) => {
            w.u8(1);
            w.u32(e.0);
        }
        None => w.u8(0),
    }
}

/// Digest of `p`'s encoding ([`write_program`]) under `seed`: the same
/// for two programs that encode alike (code, registers, globals, classes,
/// host signatures, entry) and, but for a 64-bit collision, different
/// otherwise. What scopes a checkpoint to the program it was captured
/// from: a frame's saved pc means something only in that code.
pub fn program_digest(p: &Program, seed: u64) -> u64 {
    let mut w = Writer::new();
    write_program(&mut w, p);
    digest64_words(&w.into_bytes(), seed)
}

/// Deserialize a [`Program`]. Structural soundness (register ranges,
/// jump targets, arities) is *not* re-checked here — run
/// [`Program::validate`] on the result before executing it, exactly as
/// the translator does for freshly generated programs.
pub fn read_program(r: &mut Reader<'_>) -> CodecResult<Program> {
    let n = r.len()?;
    let mut funcs = Vec::with_capacity(n);
    for _ in 0..n {
        funcs.push(Arc::new(read_func(r)?));
    }
    let n = r.len()?;
    let mut globals = Vec::with_capacity(n);
    for _ in 0..n {
        globals.push(Global {
            name: r.str()?,
            ty: read_ty(r)?,
            value: read_const(r)?,
        });
    }
    let n = r.len()?;
    let mut classes = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let field_count = r.u32()?;
        let vn = r.len()?;
        let mut vtable = Vec::with_capacity(vn);
        for _ in 0..vn {
            vtable.push((r.u32()?, FuncId(r.u32()?)));
        }
        classes.push(ClassMeta {
            name,
            field_count,
            vtable,
        });
    }
    let n = r.len()?;
    let mut selectors = Vec::with_capacity(n);
    for _ in 0..n {
        selectors.push(r.str()?);
    }
    let n = r.len()?;
    let mut host_fns = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let pn = r.len()?;
        let mut params = Vec::with_capacity(pn);
        for _ in 0..pn {
            params.push(read_ty(r)?);
        }
        let ret = match r.u8()? {
            0 => None,
            1 => Some(read_ty(r)?),
            other => return Err(r.corrupt(format!("option tag {other}"))),
        };
        host_fns.push(HostFnSig { name, params, ret });
    }
    let entry = match r.u8()? {
        0 => None,
        1 => Some(FuncId(r.u32()?)),
        other => return Err(r.corrupt(format!("option tag {other}"))),
    };
    Ok(Program {
        funcs,
        globals,
        classes,
        selectors,
        host_fns,
        entry,
    })
}

/// The optimizer pass names the decoder can intern back to `'static`
/// strings (pass profiles carry `&'static str` names). Names outside this
/// set decode as `"other"` — an old artifact from a build with more
/// passes still decodes.
const KNOWN_PASSES: &[&str] = &["inline", "fold", "dce", "sroa"];

pub fn write_pass_profiles(w: &mut Writer, passes: &[PassProfile]) {
    w.len(passes.len());
    for p in passes {
        w.str(p.pass);
        w.u64(p.wall.as_nanos() as u64);
        w.u64(p.instrs_before);
        w.u64(p.instrs_after);
    }
}

pub fn read_pass_profiles(r: &mut Reader<'_>) -> CodecResult<Vec<PassProfile>> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let pass = KNOWN_PASSES
            .iter()
            .find(|k| **k == name)
            .copied()
            .unwrap_or("other");
        out.push(PassProfile {
            pass,
            wall: Duration::from_nanos(r.u64()?),
            instrs_before: r.u64()?,
            instrs_after: r.u64()?,
        });
    }
    Ok(out)
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

    fn encode(p: &Program) -> Vec<u8> {
        let mut w = Writer::new();
        write_program(&mut w, p);
        w.into_bytes()
    }

    #[test]
    fn program_roundtrips_bit_identically() {
        let p = sample_program();
        let bytes = encode(&p);
        let mut r = Reader::new(&bytes);
        let back = read_program(&mut r).unwrap();
        assert!(r.is_at_end(), "decoder consumed everything");
        assert_eq!(encode(&back), bytes, "encode(decode(x)) == x");
        assert_eq!(back.funcs.len(), p.funcs.len());
        assert_eq!(back.funcs[0].code, p.funcs[0].code);
        assert_eq!(back.entry, p.entry);
        back.validate().expect("decoded program is valid");
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"the artifact payload".to_vec();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
    }

    #[test]
    fn version_1_seal_bytes_are_pinned() {
        // Artifacts already on disk: `seal` must keep writing exactly this.
        let hex: String = seal(b"the artifact payload")
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "574a4152011400000000000000746865206172746966616374207061796c6f61641a2a3947eb512b28"
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
            let mut r = Reader::new(&junk);
            let _ = read_program(&mut r);
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

    #[test]
    fn pass_profiles_roundtrip_and_intern_names() {
        let passes = vec![
            PassProfile {
                pass: "fold",
                wall: Duration::from_nanos(1234),
                instrs_before: 100,
                instrs_after: 90,
            },
            PassProfile {
                pass: "dce",
                wall: Duration::from_micros(7),
                instrs_before: 90,
                instrs_after: 70,
            },
        ];
        let mut w = Writer::new();
        write_pass_profiles(&mut w, &passes);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_pass_profiles(&mut r).unwrap();
        assert_eq!(back, passes);
    }
}
