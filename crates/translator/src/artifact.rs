//! Durable JIT artifacts: `Translated` ⇄ bytes, plus the canonical
//! [`CacheKey`] and its cross-process [`fingerprint`](CacheKey::fingerprint).
//!
//! This is the translator's half of the two-tier artifact store. The
//! `nir::codec` module frames and checksums bytes; this module knows what
//! a translated program *carries* (bindings, mode, stats, MPI/GPU usage,
//! warnings) and how to name it on disk or on the wire.
//!
//! Decoding is defensive end to end: a truncated, bit-flipped, or
//! version-skewed artifact yields a typed [`CodecError`], and even a
//! well-framed payload is re-validated with [`nir::Program::validate`] before
//! it is allowed near an execution engine. Callers treat any decode
//! failure as a cache miss and fall back to a cold translate.

#[cfg(test)]
use jlang::types::ClassId;
use nir::codec::{self, CodecError, CodecResult, Reader, Writer};
use nir::FuncId;
#[cfg(test)]
use nir::OptConfig;

use crate::lower::TransStats;
use crate::shape::Shape;
#[cfg(test)]
use crate::sheval::SpecKey;
use crate::{Binding, EntrySpec, Mode, TransConfig, Translated};

// ---- shapes, specs, configs (shared by artifact + fingerprint) ----------

fn write_shape(w: &mut Writer, s: &Shape) {
    match s {
        Shape::Prim(k) => {
            w.u8(0);
            codec::write_prim(w, *k);
        }
        Shape::Arr(e) => {
            w.u8(1);
            codec::write_elem(w, *e);
        }
        Shape::Obj { class, fields } => {
            w.u8(2);
            w.u32(class.0);
            w.len(fields.len());
            for f in fields {
                write_shape(w, f);
            }
        }
    }
}

#[cfg(test)]
fn read_shape(r: &mut Reader<'_>, depth: u32) -> CodecResult<Shape> {
    // Shapes are finite trees; bound recursion so a corrupt payload
    // cannot blow the stack.
    if depth > 64 {
        return Err(r.corrupt("shape nesting deeper than 64"));
    }
    let tag = r.u8()?;
    Ok(match tag {
        0 => Shape::Prim(codec::read_prim(r)?),
        1 => Shape::Arr(codec::read_elem(r)?),
        2 => {
            let class = ClassId(r.u32()?);
            let n = r.len()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(read_shape(r, depth + 1)?);
            }
            Shape::Obj { class, fields }
        }
        other => return Err(r.corrupt(format!("shape tag {other}"))),
    })
}

fn write_opt_shape(w: &mut Writer, s: &Option<Shape>) {
    match s {
        Some(s) => {
            w.u8(1);
            write_shape(w, s);
        }
        None => w.u8(0),
    }
}

#[cfg(test)]
fn read_opt_shape(r: &mut Reader<'_>) -> CodecResult<Option<Shape>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_shape(r, 0)?)),
        other => Err(r.corrupt(format!("option tag {other}"))),
    }
}

fn write_spec(w: &mut Writer, spec: &EntrySpec) {
    match spec {
        EntrySpec::Shaped(k) => {
            w.u8(0);
            w.u32(k.class.0);
            w.u32(k.method);
            write_opt_shape(w, &k.recv);
            w.len(k.args.len());
            for s in &k.args {
                write_shape(w, s);
            }
        }
        EntrySpec::Opaque {
            class,
            method,
            arity,
        } => {
            w.u8(1);
            w.u32(class.0);
            w.u32(*method);
            w.u64(*arity as u64);
        }
    }
}

#[cfg(test)]
fn read_spec(r: &mut Reader<'_>) -> CodecResult<EntrySpec> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => {
            let class = ClassId(r.u32()?);
            let method = r.u32()?;
            let recv = read_opt_shape(r)?;
            let n = r.len()?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(read_shape(r, 0)?);
            }
            EntrySpec::Shaped(SpecKey {
                class,
                method,
                recv,
                args,
            })
        }
        1 => EntrySpec::Opaque {
            class: ClassId(r.u32()?),
            method: r.u32()?,
            arity: r.u64()? as usize,
        },
        other => return Err(r.corrupt(format!("entry-spec tag {other}"))),
    })
}

fn mode_tag(m: Mode) -> u8 {
    match m {
        Mode::Virtual => 0,
        Mode::Devirt => 1,
        Mode::Full => 2,
    }
}

fn mode_of(tag: u8, r: &Reader<'_>) -> CodecResult<Mode> {
    Ok(match tag {
        0 => Mode::Virtual,
        1 => Mode::Devirt,
        2 => Mode::Full,
        other => return Err(r.corrupt(format!("mode tag {other}"))),
    })
}

fn write_config(w: &mut Writer, c: &TransConfig) {
    w.u8(mode_tag(c.mode));
    w.bool(c.opt.const_fold);
    w.bool(c.opt.copy_prop);
    w.bool(c.opt.dce);
    w.u64(c.opt.inline_limit as u64);
    w.bool(c.opt.sroa);
    w.bool(c.check_rules);
}

#[cfg(test)]
fn read_config(r: &mut Reader<'_>) -> CodecResult<TransConfig> {
    let tag = r.u8()?;
    let mode = mode_of(tag, r)?;
    Ok(TransConfig {
        mode,
        opt: OptConfig {
            const_fold: r.bool()?,
            copy_prop: r.bool()?,
            dce: r.bool()?,
            inline_limit: r.u64()? as usize,
            sroa: r.bool()?,
        },
        check_rules: r.bool()?,
        // Not persisted: execution strategy, not translation identity.
        parallel_lowering: false,
    })
}

fn write_path(w: &mut Writer, path: &[u32]) {
    w.len(path.len());
    for &p in path {
        w.u32(p);
    }
}

fn read_path(r: &mut Reader<'_>) -> CodecResult<Vec<u32>> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    Ok(out)
}

fn write_binding(w: &mut Writer, b: &Binding) {
    match b {
        Binding::RecvLeaf { path } => {
            w.u8(0);
            write_path(w, path);
        }
        Binding::ArgLeaf { arg, path } => {
            w.u8(1);
            w.u64(*arg as u64);
            write_path(w, path);
        }
        Binding::RecvObj => w.u8(2),
        Binding::ArgWhole(i) => {
            w.u8(3);
            w.u64(*i as u64);
        }
    }
}

fn read_binding(r: &mut Reader<'_>) -> CodecResult<Binding> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Binding::RecvLeaf {
            path: read_path(r)?,
        },
        1 => Binding::ArgLeaf {
            arg: r.u64()? as usize,
            path: read_path(r)?,
        },
        2 => Binding::RecvObj,
        3 => Binding::ArgWhole(r.u64()? as usize),
        other => return Err(r.corrupt(format!("binding tag {other}"))),
    })
}

// ---- Translated ⇄ bytes -------------------------------------------------

impl Translated {
    /// Serialize into a sealed (magic + version + checksum) byte artifact
    /// suitable for the disk store or a rank-0 broadcast. The encoding is
    /// deterministic: equal `Translated` values produce identical bytes,
    /// and `encode(decode(x)) == x` bit-for-bit (the golden-fixture
    /// property).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(&self.stats)
    }

    /// Serialize with volatile observability stripped: pass profiles
    /// (wall times) and facade-filled cache counters are zeroed, so two
    /// semantically equal translations — e.g. an incremental re-JIT and
    /// a from-scratch translate at the same revision — produce
    /// byte-identical output. This is the determinism contract the
    /// incremental property tests assert.
    pub fn encode_semantic(&self) -> Vec<u8> {
        let stats = TransStats {
            passes: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            queries_executed: 0,
            queries_reused: 0,
            early_cutoffs: 0,
            ..self.stats.clone()
        };
        self.encode_with(&stats)
    }

    fn encode_with(&self, stats: &TransStats) -> Vec<u8> {
        let mut w = Writer::new();
        codec::write_program(&mut w, &self.program);
        w.u32(self.entry.0);
        w.len(self.bindings.len());
        for b in &self.bindings {
            write_binding(&mut w, b);
        }
        w.u8(mode_tag(self.mode));
        w.u32(stats.specializations);
        w.u32(stats.devirtualized_calls);
        w.u32(stats.virtual_calls);
        w.u32(stats.inlined_ctors);
        w.u32(stats.inlined_calls);
        w.u32(stats.kernels);
        codec::write_pass_profiles(&mut w, &stats.passes);
        w.u64(stats.cache_hits);
        w.u64(stats.cache_misses);
        w.bool(self.uses_mpi);
        w.bool(self.uses_gpu);
        w.len(self.warnings.len());
        for warn in &self.warnings {
            w.str(warn);
        }
        codec::seal(&w.into_bytes())
    }

    /// Decode a sealed artifact. Never panics on hostile input: framing,
    /// checksum, every discriminant, and finally [`Program::validate`]
    /// all gate the result behind a typed [`CodecError`].
    ///
    /// [`Program::validate`]: nir::Program::validate
    pub fn decode(bytes: &[u8]) -> CodecResult<Translated> {
        let payload = codec::unseal(bytes)?;
        let mut r = Reader::new(payload);
        let program = codec::read_program(&mut r)?;
        let entry = FuncId(r.u32()?);
        let n = r.len()?;
        let mut bindings = Vec::with_capacity(n);
        for _ in 0..n {
            bindings.push(read_binding(&mut r)?);
        }
        let tag = r.u8()?;
        let mode = mode_of(tag, &r)?;
        let stats = TransStats {
            specializations: r.u32()?,
            devirtualized_calls: r.u32()?,
            virtual_calls: r.u32()?,
            inlined_ctors: r.u32()?,
            inlined_calls: r.u32()?,
            kernels: r.u32()?,
            passes: codec::read_pass_profiles(&mut r)?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            // Query counters are facade-side observability, never encoded.
            ..TransStats::default()
        };
        let uses_mpi = r.bool()?;
        let uses_gpu = r.bool()?;
        let n = r.len()?;
        let mut warnings = Vec::with_capacity(n);
        for _ in 0..n {
            warnings.push(r.str()?);
        }
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
        }
    }

    /// Scope this key to one execution platform. Translated NIR is
    /// portable across the in-repo backends, but artifacts minted *for* a
    /// platform carry different run-time companions (most concretely the
    /// `<fingerprint>.wckpt` world checkpoint, whose topology is
    /// platform-shaped), so per-platform keys keep them from clobbering
    /// each other. Salt 0 is the unscoped/portable key and leaves the
    /// fingerprint exactly as before — existing stores stay warm.
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
    /// every non-incremental environment — leaves the fingerprint
    /// byte-identical to the legacy encoding, so existing disk and
    /// shared stores stay warm across the upgrade.
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
    /// Derived from the canonical byte encoding of spec + config + hosts,
    /// digested twice with independent seeds (128 bits total), and
    /// prefixed with the artifact format version so stores never mix
    /// incompatible layouts. Equal keys fingerprint equally across
    /// processes; the encoding (not Rust's `Hash`) is the source of
    /// stability.
    pub fn fingerprint(&self) -> String {
        let mut w = Writer::new();
        write_spec(&mut w, &self.spec);
        write_config(&mut w, &self.config);
        w.len(self.hosts.len());
        for h in &self.hosts {
            w.str(h);
        }
        // Salt 0 stays out of the digest so unscoped fingerprints (and
        // the artifacts persisted under them) are unchanged.
        if self.salt != 0 {
            w.u64(self.salt);
        }
        // Likewise source revision 0. The tag byte keeps a salted key
        // from ever colliding with a source-fingerprinted one (the salt
        // extends the stream by 8 bytes, this by 9).
        if self.source != 0 {
            w.u8(2);
            w.u64(self.source);
        }
        let bytes = w.into_bytes();
        let a = codec::digest64(&bytes, 0x9E37_79B9_7F4A_7C15);
        let b = codec::digest64(&bytes, 0xC2B2_AE3D_27D4_EB4F);
        format!("wj{:02}-{a:016x}{b:016x}", codec::VERSION)
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
        let mut w = Writer::new();
        write_spec(&mut w, &spec);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_spec(&mut r).unwrap();
        assert!(r.is_at_end());
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
            let mut w = Writer::new();
            write_config(&mut w, &config);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = read_config(&mut r).unwrap();
            assert!(r.is_at_end());
            assert_eq!(back, config);
        }
    }
}
