//! Durable JIT artifacts: `Translated` ⇄ bytes, plus the canonical
//! [`CacheKey`] and its cross-process [`fingerprint`](CacheKey::fingerprint).
//!
//! This is the translator's half of the two-tier artifact store. The
//! `nir::codec` module frames and checksums bytes; this module knows what
//! a translated program *carries* (bindings, mode, translation counters,
//! MPI/GPU usage, warnings; never the optimizer's pass profiles, which
//! time one process's translation) and how to name it on disk or on the
//! wire.
//!
//! Decoding is defensive end to end: a truncated, bit-flipped, or
//! version-skewed artifact yields a typed [`CodecError`], and even a
//! well-framed payload is re-validated with [`nir::Program::validate`] before
//! it is allowed near an execution engine. Callers treat any decode
//! failure as a cache miss and fall back to a cold translate.

use jlang::types::{ClassId, PrimKind};
use nir::codec::{self, CodecError, CodecResult, Reader, Wire, Writer};
use nir::{ElemTy, FuncId, Program};

use crate::lower::TransStats;
use crate::shape::Shape;
use crate::sheval::SpecKey;
use crate::{Binding, EntrySpec, Mode, TransConfig, Translated};

// ---- shapes, specs, configs (shared by artifact + fingerprint) ----------

/// Deepest `Obj` nesting a decoded [`Shape`] may have.
const MAX_SHAPE_NESTING: u32 = 64;

impl Wire for Shape {
    fn put(&self, w: &mut Writer) {
        match self {
            Shape::Prim(k) => {
                w.u8(0);
                k.put(w);
            }
            Shape::Arr(e) => {
                w.u8(1);
                e.put(w);
            }
            Shape::Obj { class, fields } => {
                w.u8(2);
                class.put(w);
                fields.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> CodecResult<Self> {
        get_shape(r, 0)
    }
}

/// Shapes are finite trees; the nesting bound keeps a corrupt payload
/// from blowing the stack.
fn get_shape(r: &mut Reader<'_>, depth: u32) -> CodecResult<Shape> {
    if depth > MAX_SHAPE_NESTING {
        return Err(r.corrupt(format!("shape nesting deeper than {MAX_SHAPE_NESTING}")));
    }
    Ok(match r.u8()? {
        0 => Shape::Prim(PrimKind::get(r)?),
        1 => Shape::Arr(ElemTy::get(r)?),
        2 => {
            let class = ClassId::get(r)?;
            let n = r.len()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(get_shape(r, depth + 1)?);
            }
            Shape::Obj { class, fields }
        }
        other => return Err(r.corrupt(format!("shape tag {other}"))),
    })
}

nir::wire_struct!(SpecKey {
    class,
    method,
    recv,
    args
});
nir::wire_enum!(EntrySpec { 0 = Shaped(key), 1 = Opaque { class, method, arity } });
nir::wire_enum!(Mode { 0 = Virtual, 1 = Devirt, 2 = Full });
nir::wire_enum!(Binding {
    0 = RecvLeaf { path },
    1 = ArgLeaf { arg, path },
    2 = RecvObj,
    3 = ArgWhole(arg),
});

nir::wire_struct!(TransConfig {
    mode,
    opt,
    check_rules
});

// ---- Translated ⇄ bytes -------------------------------------------------

impl Translated {
    /// Serialize into a sealed (magic + version + checksum) byte artifact
    /// suitable for the disk store or a rank-0 broadcast. The bytes are a
    /// pure function of what translation decided: two translations of
    /// one program encode alike, in any process, and
    /// `encode(decode(x)) == x` bit for bit (the golden-fixture
    /// property). The optimizer's pass profiles are this process's
    /// measurement, not part of the artifact.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = codec::Sealer::new(0);
        let w: &mut Writer = &mut buf;
        self.program.put(w);
        self.entry.put(w);
        self.bindings.put(w);
        self.mode.put(w);
        let stats = &self.stats;
        stats.specializations.put(w);
        stats.devirtualized_calls.put(w);
        stats.virtual_calls.put(w);
        stats.inlined_ctors.put(w);
        stats.inlined_calls.put(w);
        stats.kernels.put(w);
        self.uses_mpi.put(w);
        self.uses_gpu.put(w);
        self.warnings.put(w);
        buf.seal()
    }

    /// [`encode`](Translated::encode), under the name the frozen
    /// benchmark (`benchmark/`) still calls; ROADMAP item 4 (e) deletes it
    /// with the next change to the benchmark.
    #[doc(hidden)]
    pub fn encode_semantic(&self) -> Vec<u8> {
        self.encode()
    }

    /// Decode a sealed artifact. Never panics on hostile input: framing,
    /// checksum, every discriminant, and finally [`Program::validate`]
    /// and [`Program::verify`] all gate the result behind a typed
    /// [`CodecError`]. The decoded
    /// [`TransStats::passes`] is empty: no optimizer ran in this process.
    pub fn decode(bytes: &[u8]) -> CodecResult<Translated> {
        let r = &mut Reader::new(codec::unseal(bytes)?);
        let program = Program::get(r)?;
        let entry = FuncId::get(r)?;
        let bindings = Wire::get(r)?;
        let mode = Wire::get(r)?;
        let stats = TransStats {
            specializations: Wire::get(r)?,
            devirtualized_calls: Wire::get(r)?,
            virtual_calls: Wire::get(r)?,
            inlined_ctors: Wire::get(r)?,
            inlined_calls: Wire::get(r)?,
            kernels: Wire::get(r)?,
            passes: Vec::new(),
        };
        let uses_mpi = Wire::get(r)?;
        let uses_gpu = Wire::get(r)?;
        let warnings = Wire::get(r)?;
        if !r.is_at_end() {
            return Err(r.corrupt("payload longer than the artifact it encodes"));
        }
        // Defense in depth: the digest catches accidental corruption, but
        // a validated program is what the execution engines assume.
        if let Err(m) = program.validate() {
            return Err(CodecError::Corrupt {
                offset: 0,
                message: format!("decoded program failed validation: {m}"),
            });
        }
        // `exec` runs on untagged registers: a well-framed program whose
        // types disagree would compute garbage rather than fail.
        if let Err(e) = program.verify() {
            return Err(CodecError::Corrupt {
                offset: 0,
                message: format!("decoded program does not verify: {e}"),
            });
        }
        if entry.0 as usize >= program.funcs.len() || program.entry != Some(entry) {
            return Err(CodecError::Corrupt {
                offset: 0,
                message: "artifact entry point disagrees with its program".into(),
            });
        }
        Ok(Translated {
            program,
            entry,
            bindings,
            mode,
            stats,
            uses_mpi,
            uses_gpu,
            warnings,
        })
    }
}

// ---- CacheKey -----------------------------------------------------------

/// The canonical JIT-cache key: everything the translation pipeline reads.
/// Two calls with an equal key translate to identical programs — in *any*
/// process, which is what lets [`fingerprint`](CacheKey::fingerprint)
/// name artifacts on disk and on the wire.
///
/// `hosts` is kept private and **sorted** on construction: the host-FFI
/// registry reports keys in insertion order, and two environments that
/// register the same FFI set in a different order must still share cache
/// entries (the registry is keyed by name at call time, so order never
/// affects what translation emits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub spec: EntrySpec,
    pub config: TransConfig,
    hosts: Vec<String>,
    /// Platform salt (see [`CacheKey::with_platform_salt`]). Zero means
    /// "portable artifact" and is what the legacy facade paths use.
    salt: u64,
    /// Source fingerprint (see [`CacheKey::with_source_fingerprint`]).
    /// Zero means "no source revisioning" — the legacy namespace.
    source: u64,
    /// The optimizer that produces the artifact, [`nir::opt::REVISION`]:
    /// a store filled by another one misses instead of serving its code.
    opt_revision: u32,
}

impl CacheKey {
    /// Build a key, canonicalizing the host-FFI key list (sorted,
    /// deduplicated).
    pub fn new(spec: EntrySpec, config: TransConfig, mut hosts: Vec<String>) -> Self {
        hosts.sort();
        hosts.dedup();
        CacheKey {
            spec,
            config,
            hosts,
            salt: 0,
            source: 0,
            opt_revision: nir::opt::REVISION,
        }
    }

    /// Scope this key to one execution platform. Translated NIR is
    /// portable across the in-repo backends, but artifacts minted *for* a
    /// platform carry different run-time companions (most concretely the
    /// `<fingerprint>.wckpt` world checkpoint, whose topology is
    /// platform-shaped), so per-platform keys keep them from clobbering
    /// each other. Salt 0 is the unscoped/portable key and leaves the
    /// fingerprint what it is without a salt.
    pub fn with_platform_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// The platform salt this key is scoped to (0 = portable).
    pub fn platform_salt(&self) -> u64 {
        self.salt
    }

    /// Scope this key to a source revision: the query database's stable
    /// fingerprint over every file's item trees and body hashes
    /// (whitespace- and comment-insensitive). Entry specs only capture
    /// shapes, so without this a `jit` after `edit` could serve code
    /// translated from the previous revision. Zero — the value used by
    /// every non-incremental environment — leaves the fingerprint what it
    /// is without a source fingerprint.
    pub fn with_source_fingerprint(mut self, fp: u64) -> Self {
        self.source = fp;
        self
    }

    /// The source-revision fingerprint this key is scoped to (0 = none).
    pub fn source_fingerprint(&self) -> u64 {
        self.source
    }

    /// The canonicalized (sorted) host-FFI key list.
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }

    /// A stable string id for this key, usable as a filename or wire id.
    /// Derived from the canonical byte encoding of spec + config + hosts
    /// and the optimizer revision, digested twice with independent seeds
    /// (128 bits total), behind the fixed `wj01-` prefix. The name does
    /// not carry the artifact layout's version: a file written under
    /// another layout keeps its name, is refused by the container's
    /// version byte, and is replaced by the re-translation. Equal keys
    /// fingerprint equally across processes; the encoding (not Rust's
    /// `Hash`) is the source of stability.
    pub fn fingerprint(&self) -> String {
        let mut w = Writer::new();
        self.spec.put(&mut w);
        self.config.put(&mut w);
        self.hosts.put(&mut w);
        // Salt 0 stays out of the digest, so an unscoped key digests only
        // what it has.
        if self.salt != 0 {
            w.u64(self.salt);
        }
        // Likewise source revision 0. The tag byte keeps a salted key
        // from ever colliding with a source-fingerprinted one (the salt
        // extends the stream by 8 bytes, this by 9; the revision that
        // ends every stream by 4).
        if self.source != 0 {
            w.u8(2);
            w.u64(self.source);
        }
        w.u32(self.opt_revision);
        let bytes = w.into_bytes();
        let a = codec::digest64(&bytes, 0x9E37_79B9_7F4A_7C15);
        let b = codec::digest64(&bytes, 0xC2B2_AE3D_27D4_EB4F);
        format!("wj01-{a:016x}{b:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opaque(class: u32, method: u32, arity: usize) -> EntrySpec {
        EntrySpec::Opaque {
            class: ClassId(class),
            method,
            arity,
        }
    }

    #[test]
    fn fingerprint_ignores_host_registration_order() {
        let a = CacheKey::new(
            opaque(1, 0, 2),
            TransConfig::full(),
            vec!["ffi.b".into(), "ffi.a".into(), "ffi.c".into()],
        );
        let b = CacheKey::new(
            opaque(1, 0, 2),
            TransConfig::full(),
            vec!["ffi.c".into(), "ffi.a".into(), "ffi.b".into()],
        );
        assert_eq!(a, b, "keys with reordered host sets must be equal");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_what_matters() {
        let base = CacheKey::new(opaque(1, 0, 2), TransConfig::full(), vec!["ffi.a".into()]);
        let other_spec = CacheKey::new(opaque(1, 1, 2), TransConfig::full(), vec!["ffi.a".into()]);
        let other_cfg = CacheKey::new(opaque(1, 0, 2), TransConfig::devirt(), vec!["ffi.a".into()]);
        let other_hosts = CacheKey::new(opaque(1, 0, 2), TransConfig::full(), vec!["ffi.b".into()]);
        let fp = base.fingerprint();
        assert_ne!(fp, other_spec.fingerprint());
        assert_ne!(fp, other_cfg.fingerprint());
        assert_ne!(fp, other_hosts.fingerprint());
        // Stable across calls and usable as a filename.
        assert_eq!(fp, base.fingerprint());
        assert!(fp.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
    }

    #[test]
    fn the_optimizer_revision_scopes_the_fingerprint() {
        let key = CacheKey::new(opaque(1, 0, 2), TransConfig::full(), vec!["ffi.a".into()]);
        let mut older = key.clone();
        older.opt_revision -= 1;
        assert_ne!(key, older);
        assert_ne!(key.fingerprint(), older.fingerprint());
    }

    #[test]
    fn platform_salt_scopes_the_fingerprint_and_zero_is_identity() {
        let base = CacheKey::new(opaque(1, 0, 2), TransConfig::full(), vec!["ffi.a".into()]);
        let zero = base.clone().with_platform_salt(0);
        assert_eq!(base, zero, "salt 0 is the unscoped key");
        assert_eq!(base.fingerprint(), zero.fingerprint());

        let a = base.clone().with_platform_salt(0x1111);
        let b = base.clone().with_platform_salt(0x2222);
        assert_ne!(a, b);
        assert_ne!(a.fingerprint(), base.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same salt, same key: stable across calls.
        assert_eq!(
            a.fingerprint(),
            base.clone().with_platform_salt(0x1111).fingerprint()
        );
    }

    #[test]
    fn shaped_specs_roundtrip_through_the_key_encoding() {
        use jlang::types::PrimKind;
        let spec = EntrySpec::Shaped(SpecKey {
            class: ClassId(7),
            method: 3,
            recv: Some(Shape::Obj {
                class: ClassId(7),
                fields: vec![Shape::Prim(PrimKind::Float), Shape::Arr(nir::ElemTy::F32)],
            }),
            args: vec![Shape::Prim(PrimKind::Int)],
        });
        let back = EntrySpec::from_wire(&spec.to_wire()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn configs_roundtrip_through_the_key_encoding() {
        for config in [
            TransConfig::full(),
            TransConfig::devirt(),
            TransConfig::virtual_dispatch(),
            TransConfig::template_no_virt(),
        ] {
            let back = TransConfig::from_wire(&config.to_wire()).unwrap();
            assert_eq!(back, config);
        }
    }
}
